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
from operator import add

import numpy as np

from .errors import ConfigError, SolverError

FP_DEFAULT_ITERS = 100_000
FP_DEFAULT_TOL = 1e-3
RM_DEFAULT_TOL = 1e-4
QRE_DAMPING = 0.5
QRE_MAX_ITERS = 10_000
QRE_TOL = 1e-12


def _entries(m) -> np.ndarray:
    arr = np.asarray(getattr(m, "entries", m), dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise SolverError("payoff matrix must be a non-empty 2-d array")
    if not np.isfinite(arr).all():
        raise SolverError("payoff matrix has non-finite entries")
    return arr


@dataclass(frozen=True)
class MixedStrategy:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
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
    value = float(attacker.probs @ M @ defender.probs)
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
        scores = m @ mix
        idx = int(np.argmin(scores))
    elif side == "defender":
        if len(mix) != m.shape[0]:
            raise SolverError("attacker mix length does not match rows")
        scores = mix @ m
        idx = int(np.argmax(scores))
    else:
        raise SolverError(f"unknown side {side!r}")
    return idx, float(scores[idx])


def verify_epsilon_equilibrium(M, attacker_mix, defender_mix) -> float:
    """Max unilateral improvement over pure deviations (exact by linearity)."""
    m = _entries(M)
    pa = _probs(attacker_mix)
    pd = _probs(defender_mix)
    value = float(pa @ m @ pd)
    attacker_gain = value - float(np.min(m @ pd))
    defender_gain = float(np.max(pa @ m)) - value
    return max(attacker_gain, defender_gain)


# -- fictitious play ---------------------------------------------------------


def _fp_kernel(M, max_iters, tol, check_every):
    """Simultaneous-update fictitious play with empirical-frequency beliefs.

    u_a[i] accumulates sum_t M[i, d_t]; u_d[j] accumulates sum_t M[a_t, j],
    so each step costs O(m+n). Every check_every steps and at max_iters the
    averaged strategies go to verify_epsilon_equilibrium, stopping once their
    epsilon is <= tol. min/max return the first extreme element and index()
    its first position, so ties go to the lowest index (entries are finite).
    """
    m, n = M.shape
    rows = M.tolist()
    cols = M.T.tolist()
    count_a = [0.0] * m
    count_d = [0.0] * n
    u_a = [0.0] * m
    u_d = [0.0] * n
    a = 0
    d = 0
    t = 0
    while t < max_iters:
        t += 1
        count_a[a] += 1.0
        count_d[d] += 1.0
        u_a = list(map(add, u_a, cols[d]))
        u_d = list(map(add, u_d, rows[a]))
        a = u_a.index(min(u_a))
        d = u_d.index(max(u_d))
        if (t % check_every == 0 or t == max_iters) and verify_epsilon_equilibrium(
                M, np.array(count_a) / t, np.array(count_d) / t) <= tol:
            break
    return np.array(count_a) / t, np.array(count_d) / t, t


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
    total = x.sum()
    if total <= 0 or y.sum() <= 0:
        raise SolverError("degenerate game LP solution")
    pa = x / total
    pd = y / y.sum()
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


def _loop_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums along the last axis, added left to right as a plain loop adds them.

    ``out`` may be ``a`` itself; the result is then a view into it.
    """
    return np.add.accumulate(a, axis=-1, out=out)[..., -1]


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

    Every sum of a step runs left to right (``_loop_sums``), so the loops in
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
        loss = _loop_sums(np.multiply(M, pd, out=by_row), out=by_row)
        gain_a = _loop_sums(pa * loss) - loss
        regret_a += gain_a
        floored_a += gain_a
        np.maximum(0.0, floored_a, out=floored_a)
        total = _loop_sums(floored_a)
        pa = floored_a / total if total > 0.0 else uniform_a
        # defender maximizes against the attacker's new mix
        gain = _loop_sums(np.multiply(cols, pa, out=by_col), out=by_col)
        value = _loop_sums(pd * gain)
        gain_d = gain - value
        regret_d += gain_d
        floored_d += gain_d
        np.maximum(0.0, floored_d, out=floored_d)
        sum_a += t * pa
        sum_d += t * pd
        weight += t
        payoff_sum += value
        total = _loop_sums(floored_d)
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
    max(1, T // 1000) steps and one at the stop.
    """
    m = _entries(M)
    if T < 1:
        raise ConfigError(f"T must be at least 1, got {T}")
    pa, pd, steps, traj = _rm_kernel(m, T, tol, 10, max(1, T // 1000))
    return _report(
        "regret-matching", m, pa, pd, steps,
        trajectory=tuple(tuple(row) for row in traj),
    )


# -- bounded rationality -------------------------------------------------------


def softmax_response(M, opponent_mix, beta: float, side: str) -> MixedStrategy:
    """Logit response; beta=0 is uniform, beta→inf approaches best response."""
    m = _entries(M)
    if not (math.isfinite(beta) and beta >= 0):
        raise ConfigError(f"beta must be finite and non-negative, got {beta}")
    mix = _probs(opponent_mix)
    if side == "attacker":
        z = -beta * (m @ mix)
    elif side == "defender":
        z = beta * (mix @ m)
    else:
        raise SolverError(f"unknown side {side!r}")
    z = z - z.max()
    w = np.exp(z)
    return MixedStrategy(w / w.sum())


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
