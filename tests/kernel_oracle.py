"""The game kernels as numpy array loops, kept as the oracle of the package's builds.

These are the element-by-element loops that ``gamesolve._fp_kernel``,
``gamesolve._rm_kernel``, ``marl._single_kernel`` and ``marl._mdp_kernel``
were derived from.  The package runs its own builds, which hold the same
state in Python lists or numpy arrays, cache greedy indices and bisect
running sums, and the learners stop updating once Q can no longer move;
these loops scan every element and update every step instead, so the tests
can hold each package kernel to its loop output by output, bit for bit.  The
learners take the package kernels' arguments, a seeded generator and an
episode count, and draw all their uniforms in one array up front; the
package draws the same numbers chunk by chunk, so both walk the same sample
path.  The two solvers draw nothing.  The solvers' stop rule is
``gamesolve.verify_epsilon_equilibrium`` in both the package and these
loops, so a stop decided by it is the same decision in both.
"""
import numpy as np

from gridgame.gamesolve import verify_epsilon_equilibrium


def fp_kernel(M, max_iters, tol, check_every):
    """Simultaneous-update fictitious play with empirical-frequency beliefs.

    u_a[i] accumulates sum_t M[i, d_t]; u_d[j] accumulates sum_t M[a_t, j],
    so each step costs O(m+n). The epsilon of the averaged strategies is
    checked every check_every steps and at max_iters, stopping at tol.
    """
    m, n = M.shape
    count_a = np.zeros(m)
    count_d = np.zeros(n)
    u_a = np.zeros(m)
    u_d = np.zeros(n)
    a = 0
    d = 0
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
            if verify_epsilon_equilibrium(M, count_a / t, count_d / t) <= tol:
                break
    return count_a / t, count_d / t, t


def rm_kernel(M, T, tol, check_every, record_every):
    """Alternating regret matching+ with floored regrets and a stop rule.

    The attacker's floored regrets take its regrets against the current
    defender mix, then the defender's take theirs against the new attacker
    mix; the output averages (new attacker mix, defender mix it met) with
    weight t. The epsilon of the average is checked every check_every steps
    and at T, stopping at tol. Records (t, avg_regret_a, avg_regret_d, mean
    payoff of the pairs) every record_every steps and at the stop.
    """
    m, n = M.shape
    floored_a = np.zeros(m)
    floored_d = np.zeros(n)
    regret_a = np.zeros(m)
    regret_d = np.zeros(n)
    sum_a = np.zeros(m)
    sum_d = np.zeros(n)
    pa = np.full(m, 1.0 / m)
    pd = np.full(n, 1.0 / n)
    loss = np.zeros(m)
    gain = np.zeros(n)
    traj = np.zeros((T // record_every + 1, 4))
    weight = 0.0
    payoff_sum = 0.0
    r = 0
    t = 0
    while t < T:
        t += 1
        # attacker minimizes: the regret of row i is value - (M pd)[i]
        for i in range(m):
            acc = 0.0
            for j in range(n):
                acc += M[i, j] * pd[j]
            loss[i] = acc
        value = 0.0
        for i in range(m):
            value += pa[i] * loss[i]
        for i in range(m):
            regret_a[i] += value - loss[i]
            g = floored_a[i] + (value - loss[i])
            floored_a[i] = g if g > 0.0 else 0.0
        total = 0.0
        for i in range(m):
            total += floored_a[i]
        for i in range(m):
            pa[i] = floored_a[i] / total if total > 0.0 else 1.0 / m
        # defender maximizes against the new attacker mix
        for j in range(n):
            acc = 0.0
            for i in range(m):
                acc += M[i, j] * pa[i]
            gain[j] = acc
        value = 0.0
        for j in range(n):
            value += pd[j] * gain[j]
        for j in range(n):
            regret_d[j] += gain[j] - value
            g = floored_d[j] + (gain[j] - value)
            floored_d[j] = g if g > 0.0 else 0.0
        # step t's pair: the new attacker mix and the defender mix it met
        for i in range(m):
            sum_a[i] += t * pa[i]
        for j in range(n):
            sum_d[j] += t * pd[j]
        weight += t
        payoff_sum += value
        total = 0.0
        for j in range(n):
            total += floored_d[j]
        for j in range(n):
            pd[j] = floored_d[j] / total if total > 0.0 else 1.0 / n
        stop = t == T
        if not stop and t % check_every == 0:
            stop = verify_epsilon_equilibrium(M, sum_a / weight, sum_d / weight) <= tol
        if stop or t % record_every == 0:
            ra = 0.0
            for i in range(m):
                if regret_a[i] > ra:
                    ra = regret_a[i]
            rd = 0.0
            for j in range(n):
                if regret_d[j] > rd:
                    rd = regret_d[j]
            traj[r] = (t, ra / t, rd / t, payoff_sum / t)
            r += 1
        if stop:
            break
    return sum_a / weight, sum_d / weight, t, traj[:r]


def single_kernel(m, opp_cdf, alpha_mode, alpha_c, alpha_p,
                  eps0, eps_decay, rng, episodes, record_every):
    # the defender learns against sampled attacks
    # uniforms: (episodes, 3) = attack draw, explore coin, explore pick
    uniforms = rng.random((episodes, 3))
    n_opp, n_own = m.shape
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
                if v > best:
                    best = v
                    own = k
        reward = m[opp, own]
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
               eps0, eps_decay, rng, episodes, window_start, record_every):
    # uniforms: (episodes, 5) = attacker coin, attacker pick, defender coin,
    #   defender pick, state transition
    uniforms = rng.random((episodes, 5))
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
    return qa, qd, a_counts, d_counts, a_counts_win, d_counts_win, value, telemetry
