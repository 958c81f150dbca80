"""The game kernels as numpy array loops, kept as the oracle of the package's builds.

These are the element-by-element loops that ``gamesolve._fp_kernel``,
``gamesolve._rm_kernel``, ``marl._single_kernel`` and ``marl._mdp_kernel``
were derived from.  The package runs its own builds, which hold the same
state in Python lists, cache greedy indices and bisect running sums; these
loops scan every element instead, so the tests can hold each package kernel
to its loop output by output, bit for bit.  Like the package kernels they
take pre-drawn uniforms, so both walk the same sample path.
"""
import numpy as np


def fp_kernel(M, max_iters, tol, check_every):
    """Simultaneous-update fictitious play with empirical-frequency beliefs.

    u_a[i] accumulates sum_t M[i, d_t]; u_d[j] accumulates sum_t M[a_t, j],
    so each step costs O(m+n). The epsilon of the averaged strategies is
    checked every check_every steps.
    """
    m, n = M.shape
    count_a = np.zeros(m)
    count_d = np.zeros(n)
    u_a = np.zeros(m)
    u_d = np.zeros(n)
    a = 0
    d = 0
    eps = np.inf
    t = 0
    while t < max_iters:
        t += 1
        count_a[a] += 1.0
        count_d[d] += 1.0
        for i in range(m):
            u_a[i] += M[i, d]
        for j in range(n):
            u_d[j] += M[a, j]
        # best responses to the opponent's empirical frequency
        a = 0
        best = u_a[0]
        for i in range(1, m):
            if u_a[i] < best:
                best = u_a[i]
                a = i
        d = 0
        best = u_d[0]
        for j in range(1, n):
            if u_d[j] > best:
                best = u_d[j]
                d = j
        if t % check_every == 0 or t == max_iters:
            pa = count_a / t
            pd = count_d / t
            value = 0.0
            worst_row = np.inf
            best_col = -np.inf
            for i in range(m):
                row = 0.0
                for j in range(n):
                    row += M[i, j] * pd[j]
                if row < worst_row:
                    worst_row = row
                value += row * pa[i]
            for j in range(n):
                col = 0.0
                for i in range(m):
                    col += M[i, j] * pa[i]
                if col > best_col:
                    best_col = col
            eps = max(value - worst_row, best_col - value)
            if eps <= tol:
                break
    return count_a / t, count_d / t, t, eps


def rm_kernel(M, uniforms, record_every):
    """Self-play regret matching; both sides sample from positive-regret mixes.

    uniforms is a (T, 2) array of pre-drawn U(0,1) variates, so a seed pins
    the loop bit for bit. Records (t, avg_regret_a, avg_regret_d,
    running value estimate) every record_every steps.
    """
    T = uniforms.shape[0]
    m, n = M.shape
    regret_a = np.zeros(m)
    regret_d = np.zeros(n)
    mix_sum_a = np.zeros(m)
    mix_sum_d = np.zeros(n)
    pa = np.full(m, 1.0 / m)
    pd = np.full(n, 1.0 / n)
    rows = T // record_every + (1 if T % record_every else 0)
    traj = np.zeros((rows, 4))
    payoff_sum = 0.0
    r = 0
    for t in range(T):
        # sample actions from the current mixes
        ua = uniforms[t, 0]
        a = m - 1
        acc = 0.0
        for i in range(m):
            acc += pa[i]
            if ua < acc:
                a = i
                break
        ud = uniforms[t, 1]
        d = n - 1
        acc = 0.0
        for j in range(n):
            acc += pd[j]
            if ud < acc:
                d = j
                break
        got = M[a, d]
        payoff_sum += got
        # attacker minimizes: regret of row i is M[a,d] - M[i,d]
        for i in range(m):
            regret_a[i] += got - M[i, d]
        for j in range(n):
            regret_d[j] += M[a, j] - got
        for i in range(m):
            mix_sum_a[i] += pa[i]
        for j in range(n):
            mix_sum_d[j] += pd[j]
        # next mixes from positive parts
        pos = 0.0
        for i in range(m):
            if regret_a[i] > 0.0:
                pos += regret_a[i]
        if pos > 0.0:
            for i in range(m):
                pa[i] = regret_a[i] / pos if regret_a[i] > 0.0 else 0.0
        else:
            for i in range(m):
                pa[i] = 1.0 / m
        pos = 0.0
        for j in range(n):
            if regret_d[j] > 0.0:
                pos += regret_d[j]
        if pos > 0.0:
            for j in range(n):
                pd[j] = regret_d[j] / pos if regret_d[j] > 0.0 else 0.0
        else:
            for j in range(n):
                pd[j] = 1.0 / n
        if (t + 1) % record_every == 0 or t == T - 1:
            if r < rows:
                ra = 0.0
                for i in range(m):
                    if regret_a[i] > ra:
                        ra = regret_a[i]
                rd = 0.0
                for j in range(n):
                    if regret_d[j] > rd:
                        rd = regret_d[j]
                traj[r, 0] = t + 1
                traj[r, 1] = ra / (t + 1)
                traj[r, 2] = rd / (t + 1)
                traj[r, 3] = payoff_sum / (t + 1)
                r += 1
    return mix_sum_a / T, mix_sum_d / T, traj[:r]


def single_kernel(m, opp_cdf, defender_side, alpha_mode, alpha_c, alpha_p,
                  eps0, eps_decay, uniforms, record_every):
    # uniforms: (episodes, 3) = opponent draw, explore coin, explore pick
    episodes = uniforms.shape[0]
    rows, cols = m.shape
    n_own = cols if defender_side else rows
    n_opp = rows if defender_side else cols
    q = np.zeros((n_own, n_opp))
    visits = np.zeros((n_own, n_opp), dtype=np.int64)
    opp_counts = np.zeros(n_opp, dtype=np.int64)
    n_rec = episodes // record_every
    telemetry = np.zeros((n_rec, 5))
    rec = 0
    opp_last = 0
    eps = eps0
    for t in range(episodes):
        u = uniforms[t, 0]
        opp = 0
        while opp < n_opp - 1 and u >= opp_cdf[opp]:
            opp += 1
        if uniforms[t, 1] < eps:
            own = int(uniforms[t, 2] * n_own)
            if own == n_own:
                own -= 1
        else:
            own = 0
            best = q[0, opp_last]
            for k in range(1, n_own):
                v = q[k, opp_last]
                if (defender_side and v > best) or (not defender_side and v < best):
                    best = v
                    own = k
        reward = m[opp, own] if defender_side else m[own, opp]
        visits[own, opp] += 1
        if alpha_mode == 0:
            alpha = 1.0 / visits[own, opp]
        elif alpha_mode == 1:
            alpha = alpha_c
        else:
            alpha = float(visits[own, opp]) ** (-alpha_p)
        delta = alpha * (reward - q[own, opp])
        q[own, opp] += delta
        opp_counts[opp] += 1
        opp_last = opp
        if (t + 1) % record_every == 0 and rec < n_rec:
            telemetry[rec, 0] = t + 1
            telemetry[rec, 1] = eps
            telemetry[rec, 2] = alpha
            telemetry[rec, 3] = reward
            telemetry[rec, 4] = abs(delta)
            rec += 1
        eps *= eps_decay
    return q, visits, opp_counts, telemetry


def mdp_kernel(rewards, transitions, gamma, alpha_mode, alpha_c, alpha_p,
               eps0, eps_decay, uniforms, window_start, record_every):
    # uniforms: (episodes, 5) = attacker coin, attacker pick, defender coin,
    #   defender pick, state transition
    episodes = uniforms.shape[0]
    n_states, n_att, n_def = rewards.shape
    qa = np.zeros((n_states, n_att, n_def))
    qd = np.zeros((n_states, n_def, n_att))
    visits_a = np.zeros((n_states, n_att, n_def), dtype=np.int64)
    visits_d = np.zeros((n_states, n_def, n_att), dtype=np.int64)
    a_counts = np.zeros((n_states, n_att), dtype=np.int64)
    d_counts = np.zeros((n_states, n_def), dtype=np.int64)
    a_counts_win = np.zeros((n_states, n_att), dtype=np.int64)
    d_counts_win = np.zeros((n_states, n_def), dtype=np.int64)
    n_rec = episodes // record_every
    telemetry = np.zeros((n_rec, 5))
    rec = 0
    s = 0
    a_last = 0
    d_last = 0
    reward_win = 0.0
    win_n = 0
    eps = eps0
    for t in range(episodes):
        if uniforms[t, 0] < eps:
            a = int(uniforms[t, 1] * n_att)
            if a == n_att:
                a -= 1
        else:
            a = 0
            best = qa[s, 0, d_last]
            for k in range(1, n_att):
                if qa[s, k, d_last] < best:
                    best = qa[s, k, d_last]
                    a = k
        if uniforms[t, 2] < eps:
            d = int(uniforms[t, 3] * n_def)
            if d == n_def:
                d -= 1
        else:
            d = 0
            best = qd[s, 0, a_last]
            for k in range(1, n_def):
                if qd[s, k, a_last] > best:
                    best = qd[s, k, a_last]
                    d = k
        reward = rewards[s, a, d]
        u = uniforms[t, 4]
        s_next = 0
        acc = 0.0
        for k in range(n_states):
            acc += transitions[s, a, d, k]
            if u < acc:
                s_next = k
                break
            s_next = k
        # bootstrap targets use the opponent action just observed
        next_a = qa[s_next, 0, d]
        for k in range(1, n_att):
            if qa[s_next, k, d] < next_a:
                next_a = qa[s_next, k, d]
        next_d = qd[s_next, 0, a]
        for k in range(1, n_def):
            if qd[s_next, k, a] > next_d:
                next_d = qd[s_next, k, a]
        visits_a[s, a, d] += 1
        if alpha_mode == 0:
            alpha_a = 1.0 / visits_a[s, a, d]
        elif alpha_mode == 1:
            alpha_a = alpha_c
        else:
            alpha_a = float(visits_a[s, a, d]) ** (-alpha_p)
        delta_a = alpha_a * (reward + gamma * next_a - qa[s, a, d])
        qa[s, a, d] += delta_a
        visits_d[s, d, a] += 1
        if alpha_mode == 0:
            alpha_d = 1.0 / visits_d[s, d, a]
        elif alpha_mode == 1:
            alpha_d = alpha_c
        else:
            alpha_d = float(visits_d[s, d, a]) ** (-alpha_p)
        delta_d = alpha_d * (reward + gamma * next_d - qd[s, d, a])
        qd[s, d, a] += delta_d
        a_counts[s, a] += 1
        d_counts[s, d] += 1
        if t >= window_start:
            a_counts_win[s, a] += 1
            d_counts_win[s, d] += 1
            reward_win += reward
            win_n += 1
        if (t + 1) % record_every == 0 and rec < n_rec:
            telemetry[rec, 0] = t + 1
            telemetry[rec, 1] = eps
            telemetry[rec, 2] = alpha_d
            telemetry[rec, 3] = reward
            d1 = abs(delta_a)
            d2 = abs(delta_d)
            telemetry[rec, 4] = d1 if d1 > d2 else d2
            rec += 1
        a_last = a
        d_last = d
        s = s_next
        eps *= eps_decay
    value = reward_win / win_n if win_n > 0 else 0.0
    return (qa, qd, visits_a, visits_d, a_counts, d_counts,
            a_counts_win, d_counts_win, value, telemetry)
