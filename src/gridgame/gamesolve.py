"""Solvers for the two-player matrix game over a defender-maximizing payoff.

The attacker picks rows to minimize the resilience score, the defender picks
columns to maximize it. The game is treated as strictly competitive, so the
exact solution is the zero-sum minimax pair, computed with a built-in dense
simplex (Bland's rule, deterministic). Iterative methods (fictitious play,
regret matching+) and bounded-rationality responses (softmax, QRE) come with
an epsilon verifier so every report carries its true equilibrium gap.

Ties in argmin/argmax are broken by lowest index everywhere.  Solvers write
no files: a report's ``to_json`` and ``trajectory`` are what the CLI writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .resilience import left_sum

FP_DEFAULT_ITERS = 100_000
FP_DEFAULT_TOL = 1e-3
RM_DEFAULT_TOL = 1e-4
QRE_DAMPING = 0.5
QRE_MAX_ITERS = 10_000
QRE_TOL = 1e-12


def telemetry_cadence(steps: int) -> int:
    """Steps between the telemetry rows of a run of ``steps`` steps: at most
    about 1000 rows per run, whatever its length."""
    return max(1, steps // 1000)


def _entries(m) -> np.ndarray:
    arr = np.asarray(getattr(m, "entries", m), dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise SolverError("payoff matrix must be a non-empty 2-d array")
    if not np.isfinite(arr).all():
        raise SolverError("payoff matrix has non-finite entries")
    return arr


def is_distribution(p) -> bool:
    """Whether every row of ``p`` along its last axis is a probability vector:
    entries at least -1e-12 and a sum within 1e-9 of 1, both false for NaN."""
    p = np.atleast_1d(p)
    return bool((p >= -1e-12).all() and (np.abs(p.sum(axis=-1) - 1.0) <= 1e-9).all())


@dataclass(frozen=True)
class MixedStrategy:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if not is_distribution(p):
            raise SolverError(f"not a probability vector: {p}")

    @classmethod
    def uniform(cls, k: int) -> "MixedStrategy":
        return cls(np.full(k, 1.0 / k))


def draw_bounds(cdf: np.ndarray) -> np.ndarray:
    """Bisection bounds of the cumulative sums ``cdf`` along its last axis:
    ``np.searchsorted(bounds, u, side="right")`` draws the first k with
    u < cdf[k], else the last index, as a linear scan does.  They are the
    running maxima of the sums but the last, sorted also where rounding or
    a -1e-12 probability makes the sums dip."""
    return np.maximum.accumulate(cdf[..., :-1], axis=-1)


def _probs(mix) -> np.ndarray:
    """The probabilities of a MixedStrategy, or a plain vector as an array."""
    return mix.probs if isinstance(mix, MixedStrategy) else np.asarray(mix)


@dataclass(frozen=True)
class EquilibriumReport:
    attacker: MixedStrategy
    defender: MixedStrategy
    game_value: float
    method: str
    iterations: int
    epsilon: float
    trajectory: tuple = ()  # rows of (iteration, avg_regret_a, avg_regret_d, value)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "value": self.game_value,
            "epsilon": self.epsilon,
            "attacker_probs": [float(p) for p in self.attacker.probs],
            "defender_probs": [float(p) for p in self.defender.probs],
            "iterations": self.iterations,
        }


def _report(method, M, pa, pd, iterations, trajectory=()) -> EquilibriumReport:
    attacker = MixedStrategy(pa)
    defender = MixedStrategy(pd)
    value = float(left_sum(attacker.probs * left_sum(M * defender.probs)))
    eps = verify_epsilon_equilibrium(M, attacker, defender)
    return EquilibriumReport(
        attacker=attacker, defender=defender, game_value=value, method=method,
        iterations=iterations, epsilon=eps, trajectory=tuple(trajectory),
    )


def best_response(M, opponent_mix, side: str) -> tuple[int, float]:
    """Pure best response and its value; lowest index wins ties."""
    m = _entries(M)
    mix = _probs(opponent_mix)
    if side == "attacker":
        if len(mix) != m.shape[1]:
            raise SolverError("defender mix length does not match columns")
        scores = left_sum(m * mix)
        idx = int(np.argmin(scores))
    elif side == "defender":
        if len(mix) != m.shape[0]:
            raise SolverError("attacker mix length does not match rows")
        scores = left_sum(m.T * mix)
        idx = int(np.argmax(scores))
    else:
        raise SolverError(f"unknown side {side!r}")
    return idx, float(scores[idx])


def verify_epsilon_equilibrium(M, attacker_mix, defender_mix) -> float:
    """Max unilateral improvement over pure deviations (exact by linearity)."""
    m = _entries(M)
    pa = _probs(attacker_mix)
    pd = _probs(defender_mix)
    loss = left_sum(m * pd)
    value = float(left_sum(pa * loss))
    attacker_gain = value - float(np.min(loss))
    defender_gain = float(np.max(left_sum(m.T * pa))) - value
    return max(attacker_gain, defender_gain)


# -- fictitious play ---------------------------------------------------------


def _hold(u, rate, k, cap):
    """Steps s = 1, 2, ... up to the first one at which k stops being the
    first minimum of u + s * rate, in exact arithmetic, at most cap.

    Rounding can put the real change a step off; the caller finds it in the
    block's rows, so this only sizes the block.
    """
    gain = rate[k] - rate
    closing = gain > 0  # a rival that closes in on k
    s = ((u[closing] - u[k]) / gain[closing]).min(initial=cap)
    return cap if not s < cap else int(max(s, 0.0)) + 1  # a NaN gap takes cap


def _fp_kernel(M, max_iters, tol, check_every):
    """Simultaneous-update fictitious play with empirical-frequency beliefs.

    u_a[i] accumulates sum_t M[i, d_t]; u_d[j] accumulates sum_t M[a_t, j].
    Every check_every steps and at max_iters the averaged strategies go to
    verify_epsilon_equilibrium, stopping once their epsilon is <= tol.

    The pair (a, d) of best responses holds for runs of steps, so each run
    advances as one block: np.add.accumulate down rows of the pair's column
    and row gives u_a and u_d after every step of the block, adding in the
    step loop's order.  The block is sized by ``_hold`` and cut at the next
    check step; its rows' argmin/argmax find the first step whose best
    responses change, and the block ends there.  argmin and argmax pick the
    first extreme, so ties go to the lowest index (entries are finite).
    """
    m, n = M.shape
    cols = np.ascontiguousarray(M.T)
    neg_rows = -M  # the defender's first argmax of u_d is the first argmin of -u_d
    count_a = np.zeros(m)
    count_d = np.zeros(n)
    # row 0 holds u_a (u_d) before the block, row s after its step s
    rows = min(check_every, max_iters) + 1
    block_a = np.zeros((rows, m))
    block_d = np.zeros((rows, n))
    a = d = t = 0
    while t < max_iters:
        cap = min(check_every - t % check_every, max_iters - t)
        k = _hold(block_a[0], cols[d], a, cap)
        k = _hold(-block_d[0], neg_rows[a], d, k)
        ua, ud = block_a[:k + 1], block_d[:k + 1]
        ua[1:] = cols[d]
        ud[1:] = M[a]
        np.add.accumulate(ua, axis=0, out=ua)
        np.add.accumulate(ud, axis=0, out=ud)
        next_a = ua[1:].argmin(axis=1)
        next_d = ud[1:].argmax(axis=1)
        changed = np.flatnonzero((next_a != a) | (next_d != d))
        k = int(changed[0]) + 1 if changed.size else k
        count_a[a] += k
        count_d[d] += k
        t += k
        a, d = int(next_a[k - 1]), int(next_d[k - 1])
        block_a[0] = ua[k]
        block_d[0] = ud[k]
        if (t % check_every == 0 or t == max_iters) and verify_epsilon_equilibrium(
                M, count_a / t, count_d / t) <= tol:
            break
    return count_a / t, count_d / t, t


def nash_fictitious_play(M, max_iters: int = FP_DEFAULT_ITERS,
                         tol: float = FP_DEFAULT_TOL) -> EquilibriumReport:
    m = _entries(M)
    if max_iters < 1:
        raise ConfigError(f"max_iters must be at least 1, got {max_iters}")
    pa, pd, iters = _fp_kernel(m, max_iters, tol, 100)
    return _report("fictitious-play", m, pa, pd, int(iters))


# -- exact zero-sum solution -------------------------------------------------


def _simplex_max(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max 1'x  s.t.  A x <= b, x >= 0, with b > 0.

    Dense tableau, Bland's rule. Returns (x, y) where y holds the duals on
    the rows. Small problems only; this is exact up to float arithmetic.
    """
    rows, cols = A.shape
    # tableau: [A | I | b] with objective row [-c | 0 | 0]
    t = np.zeros((rows + 1, cols + rows + 1))
    t[:rows, :cols] = A
    t[:rows, cols:cols + rows] = np.eye(rows)
    t[:rows, -1] = b
    t[rows, :cols] = -1.0
    basis = list(range(cols, cols + rows))
    for _ in range(50_000):
        # Bland: first column with negative reduced cost
        enter = -1
        for j in range(cols + rows):
            if t[rows, j] < -1e-12:
                enter = j
                break
        if enter < 0:
            break
        # ratio test, lowest basis index on ties
        leave = -1
        best = np.inf
        for i in range(rows):
            if t[i, enter] > 1e-9:
                ratio = t[i, -1] / t[i, enter]
                if ratio < best - 1e-12 or (
                    abs(ratio - best) <= 1e-12 and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise SolverError("unbounded game LP; payoff matrix is not finite")
        piv = t[leave, enter]
        t[leave] /= piv
        for i in range(rows + 1):
            if i != leave and t[i, enter] != 0.0:
                t[i] -= t[i, enter] * t[leave]
        basis[leave] = enter
    else:
        raise SolverError("simplex failed to terminate")
    x = np.zeros(cols)
    for i, bi in enumerate(basis):
        if bi < cols:
            x[bi] = t[i, -1]
    y = t[rows, cols:cols + rows].copy()  # duals = reduced costs of slacks
    return x, y


def nash_exact(M) -> EquilibriumReport:
    """Exact minimax pair via the standard LP reduction.

    Shift the matrix positive, solve max 1'x s.t. M''x <= 1 for the attacker
    weights, read the defender weights off the duals, then normalize. The
    reported epsilon is re-verified against the original matrix.
    """
    m = _entries(M)
    shift = 1.0 - float(m.min())
    pos = m + shift
    x, y = _simplex_max(pos.T, np.ones(pos.shape[1]))
    total_x, total_y = left_sum(x), left_sum(y)
    if total_x <= 0 or total_y <= 0:
        raise SolverError("degenerate game LP solution")
    pa = x / total_x
    pd = y / total_y
    report = _report("nash-exact", m, pa, pd, iterations=1)
    if report.epsilon > 1e-7:
        raise SolverError(f"simplex solution failed verification: eps={report.epsilon}")
    return report


def stackelberg(M) -> tuple[int, float, int]:
    """Leader commitment to the pure column with the best security level."""
    m = _entries(M)
    levels = m.min(axis=0)
    j = int(np.argmax(levels))
    i = int(np.argmin(m[:, j]))
    return j, float(levels[j]), i


# -- regret matching+ ---------------------------------------------------------


def _rm_kernel(M, T, tol, check_every, record_every):
    """Alternating regret matching+ on expected payoffs (Tammelin et al., 2015).

    Each step the attacker's cumulative regrets, floored at zero, take its
    regrets against the current defender mix, and the attacker plays them
    normalized (uniform while all are zero); then the defender does the same
    against the new attacker mix. Step t's pair is the new attacker mix and
    the defender mix it met, and the output averages these pairs with weight
    t: its epsilon is bounded by the two sides' weighted regrets,
    2 * range * (sqrt(m) + sqrt(n)) / sqrt(t). Every check_every steps and
    at T the average goes to verify_epsilon_equilibrium, stopping once its
    epsilon is <= tol.
    Records (t, avg_regret_a, avg_regret_d, mean payoff of the pairs) every
    record_every steps and at the stop, where avg_regret is the largest
    unfloored cumulative regret of the mixes played, over t.

    Every sum of a step runs left to right (``left_sum``), so the loops in
    ``tests/kernel_oracle.py`` reproduce each output bit for bit.
    """
    m, n = M.shape
    cols = np.ascontiguousarray(M.T)
    by_row, by_col = np.empty((m, n)), np.empty((n, m))
    uniform_a, uniform_d = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    pa, pd = uniform_a, uniform_d
    floored_a, floored_d = np.zeros(m), np.zeros(n)
    regret_a, regret_d = np.zeros(m), np.zeros(n)
    sum_a, sum_d = np.zeros(m), np.zeros(n)
    weight = 0.0
    payoff_sum = 0.0
    traj = []
    for t in range(1, T + 1):
        # attacker minimizes: the regret of row i is value - (M pd)[i]
        loss = left_sum(np.multiply(M, pd, out=by_row), out=by_row)
        gain_a = left_sum(pa * loss) - loss
        regret_a += gain_a
        floored_a += gain_a
        np.maximum(0.0, floored_a, out=floored_a)
        total = left_sum(floored_a)
        pa = floored_a / total if total > 0.0 else uniform_a
        # defender maximizes against the attacker's new mix
        gain = left_sum(np.multiply(cols, pa, out=by_col), out=by_col)
        value = left_sum(pd * gain)
        gain_d = gain - value
        regret_d += gain_d
        floored_d += gain_d
        np.maximum(0.0, floored_d, out=floored_d)
        sum_a += t * pa
        sum_d += t * pd
        weight += t
        payoff_sum += value
        total = left_sum(floored_d)
        pd = floored_d / total if total > 0.0 else uniform_d
        last = t == T or (t % check_every == 0 and verify_epsilon_equilibrium(
            M, sum_a / weight, sum_d / weight) <= tol)
        if last or t % record_every == 0:
            ra = regret_a.max()
            rd = regret_d.max()
            traj.append((t, (ra if ra > 0.0 else 0.0) / t,
                         (rd if rd > 0.0 else 0.0) / t, payoff_sum / t))
        if last:
            break
    return sum_a / weight, sum_d / weight, t, np.array(traj, dtype=np.float64)


def regret_matching(M, T: int, tol: float = RM_DEFAULT_TOL) -> EquilibriumReport:
    """Regret matching+ for at most T steps, stopping once epsilon <= tol.

    Deterministic: the same matrix gives the same report. ``iterations`` is
    the number of steps run; the trajectory holds a row every
    telemetry_cadence(T) steps and one at the stop.
    """
    m = _entries(M)
    if T < 1:
        raise ConfigError(f"T must be at least 1, got {T}")
    pa, pd, steps, traj = _rm_kernel(m, T, tol, 10, telemetry_cadence(T))
    return _report(
        "regret-matching", m, pa, pd, steps,
        trajectory=tuple(tuple(row) for row in traj),
    )


# -- bounded rationality -------------------------------------------------------


def softmax_response(M, opponent_mix, beta: float, side: str) -> MixedStrategy:
    """Logit response; beta=0 is uniform, beta→inf approaches best response
    (uniform over the best responses), which is the response wherever beta
    times a payoff could leave the float range."""
    m = _entries(M)
    if not (math.isfinite(beta) and beta >= 0):
        raise ConfigError(f"beta must be finite and non-negative, got {beta}")
    mix = _probs(opponent_mix)
    if side == "attacker":
        u = -left_sum(m * mix)
    elif side == "defender":
        u = left_sum(m.T * mix)
    else:
        raise SolverError(f"unknown side {side!r}")
    # every logit and every difference of two is at most 2 * beta * max|u|
    if not math.isfinite(2.0 * float(beta) * float(np.abs(u).max())):
        w = (u == u.max()).astype(float)
    else:
        z = beta * u
        top = z.max()
        w = np.array([math.exp(v - top) for v in z.tolist()])
    return MixedStrategy(w / left_sum(w))


@dataclass(frozen=True)
class QreResult:
    attacker: MixedStrategy
    defender: MixedStrategy
    converged: bool
    iterations: int
    residual: float  # max-norm distance of the last iterate from its response


def qre_fixed_point(M, beta_a: float, beta_d: float) -> QreResult:
    """Damped simultaneous logit iteration toward the quantal response pair.

    Stops once neither mix moves by more than QRE_TOL, or after
    QRE_MAX_ITERS steps with converged=False.
    """
    m = _entries(M)
    pa = np.full(m.shape[0], 1.0 / m.shape[0])
    pd = np.full(m.shape[1], 1.0 / m.shape[1])
    converged = False
    for iters in range(1, QRE_MAX_ITERS + 1):
        ra = softmax_response(m, pd, beta_a, "attacker").probs
        rd = softmax_response(m, pa, beta_d, "defender").probs
        na = (1.0 - QRE_DAMPING) * pa + QRE_DAMPING * ra
        nd = (1.0 - QRE_DAMPING) * pd + QRE_DAMPING * rd
        delta = max(np.max(np.abs(na - pa)), np.max(np.abs(nd - pd)))
        pa, pd = na, nd
        if delta <= QRE_TOL:
            converged = True
            break
    res_a = np.max(np.abs(pa - softmax_response(m, pd, beta_a, "attacker").probs))
    res_d = np.max(np.abs(pd - softmax_response(m, pa, beta_d, "defender").probs))
    return QreResult(
        attacker=MixedStrategy(pa), defender=MixedStrategy(pd),
        converged=converged, iterations=iters, residual=float(max(res_a, res_d)),
    )
