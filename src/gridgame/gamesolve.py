"""Solvers for the two-player matrix game over a defender-maximizing payoff.

The attacker picks rows to minimize the resilience score, the defender picks
columns to maximize it. The game is treated as strictly competitive, so the
exact solution is the zero-sum minimax pair, computed with a built-in dense
simplex (Bland's rule, deterministic). Iterative methods (fictitious play,
regret matching) and bounded-rationality responses (softmax, QRE) come with
an epsilon verifier so every report carries its true equilibrium gap.

Ties in argmin/argmax are broken by lowest index everywhere.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import add

import numpy as np

from .errors import SolverError

FP_DEFAULT_ITERS = 100_000
FP_DEFAULT_TOL = 1e-3
QRE_DEFAULT_DAMPING = 0.5

# rows converted to Python lists per chunk: a whole (100000, 5) array as
# lists adds ~27 MB of peak memory, a 512-row chunk about 0.1 MB
ROW_CHUNK = 512


def _entries(m) -> np.ndarray:
    arr = np.asarray(getattr(m, "entries", m), dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise SolverError("payoff matrix must be a non-empty 2-d array")
    if not np.isfinite(arr).all():
        raise SolverError("payoff matrix has non-finite entries")
    return arr


def iter_rows(arr):
    """Yield the rows of a 2-d array as lists of Python floats, chunk by chunk."""
    for start in range(0, arr.shape[0], ROW_CHUNK):
        yield from arr[start:start + ROW_CHUNK].tolist()


@dataclass(frozen=True)
class MixedStrategy:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
            raise SolverError(f"not a probability vector: {p}")

    def __len__(self):
        return len(self.probs)

    @classmethod
    def uniform(cls, k: int) -> "MixedStrategy":
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def pure(cls, k: int, index: int) -> "MixedStrategy":
        p = np.zeros(k)
        p[index] = 1.0
        return cls(p)


@dataclass(frozen=True)
class EquilibriumReport:
    attacker: MixedStrategy
    defender: MixedStrategy
    game_value: float
    method: str
    iterations: int
    epsilon: float
    trajectory: tuple = ()  # rows of (iteration, avg_regret_a, avg_regret_d, value)

    def to_json(self, path=None):
        obj = {
            "method": self.method,
            "value": self.game_value,
            "epsilon": self.epsilon,
            "attacker_probs": [float(p) for p in self.attacker.probs],
            "defender_probs": [float(p) for p in self.defender.probs],
            "iterations": self.iterations,
        }
        if path is None:
            return obj
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        return obj

    def trajectory_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "avg_regret_attacker", "avg_regret_defender", "value"])
            for row in self.trajectory:
                writer.writerow([int(row[0])] + [f"{v:.12g}" for v in row[1:]])


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
    mix = opponent_mix.probs if isinstance(opponent_mix, MixedStrategy) else np.asarray(opponent_mix)
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
    pa = attacker_mix.probs if isinstance(attacker_mix, MixedStrategy) else np.asarray(attacker_mix)
    pd = defender_mix.probs if isinstance(defender_mix, MixedStrategy) else np.asarray(defender_mix)
    value = float(pa @ m @ pd)
    attacker_gain = value - float(np.min(m @ pd))
    defender_gain = float(np.max(pa @ m)) - value
    return max(attacker_gain, defender_gain)


# -- fictitious play ---------------------------------------------------------


def _fp_kernel(M, max_iters, tol, check_every):
    """Simultaneous-update fictitious play with empirical-frequency beliefs.

    u_a[i] accumulates sum_t M[i, d_t]; u_d[j] accumulates sum_t M[a_t, j],
    so each step costs O(m+n). The epsilon of the averaged strategies is
    checked every check_every steps. min/max return the first extreme element
    and index() its first position, so ties go to the lowest index (entries
    are finite).
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
    eps = math.inf
    t = 0
    while t < max_iters:
        t += 1
        count_a[a] += 1.0
        count_d[d] += 1.0
        u_a = list(map(add, u_a, cols[d]))
        u_d = list(map(add, u_d, rows[a]))
        a = u_a.index(min(u_a))
        d = u_d.index(max(u_d))
        if t % check_every == 0 or t == max_iters:
            pa = [c / t for c in count_a]
            pd = [c / t for c in count_d]
            value = 0.0
            worst_row = math.inf
            best_col = -math.inf
            for i in range(m):
                row = 0.0
                for x, p in zip(rows[i], pd):
                    row += x * p
                if row < worst_row:
                    worst_row = row
                value += row * pa[i]
            for j in range(n):
                col = 0.0
                for x, p in zip(cols[j], pa):
                    col += x * p
                if col > best_col:
                    best_col = col
            eps = max(value - worst_row, best_col - value)
            if eps <= tol:
                break
    return np.array(count_a) / t, np.array(count_d) / t, t, eps


def nash_fictitious_play(M, max_iters: int = FP_DEFAULT_ITERS,
                         tol: float = FP_DEFAULT_TOL) -> EquilibriumReport:
    m = _entries(M)
    if max_iters < 1:
        raise SolverError("max_iters must be at least 1")
    pa, pd, iters, _eps = _fp_kernel(m, max_iters, tol, 100)
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
            if t[i, enter] > 1e-12:
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


# -- regret matching ----------------------------------------------------------


def _sample(mix, u) -> int:
    """First index whose running sum of mix exceeds u, else the last index.

    The running sums are accumulated left to right, as a linear scan adds
    them; mix is non-negative, so they are sorted for bisection.
    """
    k = bisect_right(list(accumulate(mix)), u)
    return k if k < len(mix) else len(mix) - 1


def _rm_kernel(M, uniforms, record_every):
    """Self-play regret matching; both sides sample from positive-regret mixes.

    uniforms is a (T, 2) array of pre-drawn U(0,1) variates, so a seed pins
    the run bit for bit. Records (t, avg_regret_a, avg_regret_d, running
    value estimate) every record_every steps.
    """
    T = uniforms.shape[0]
    m, n = M.shape
    rows_of = M.tolist()
    cols_of = M.T.tolist()
    regret_a = [0.0] * m
    regret_d = [0.0] * n
    mix_sum_a = [0.0] * m
    mix_sum_d = [0.0] * n
    pa = [1.0 / m] * m
    pd = [1.0 / n] * n
    rows = T // record_every + (1 if T % record_every else 0)
    traj = np.zeros((rows, 4))
    payoff_sum = 0.0
    r = 0
    for t, (ua, ud) in enumerate(iter_rows(uniforms)):
        a = _sample(pa, ua)
        d = _sample(pd, ud)
        row = rows_of[a]
        got = row[d]
        payoff_sum += got
        regret_a = [g + (got - x) for g, x in zip(regret_a, cols_of[d])]
        regret_d = [g + (x - got) for g, x in zip(regret_d, row)]
        mix_sum_a = list(map(add, mix_sum_a, pa))
        mix_sum_d = list(map(add, mix_sum_d, pd))
        pos = 0.0
        for g in regret_a:
            if g > 0.0:
                pos += g
        if pos > 0.0:
            pa = [g / pos if g > 0.0 else 0.0 for g in regret_a]
        else:
            pa = [1.0 / m] * m
        pos = 0.0
        for g in regret_d:
            if g > 0.0:
                pos += g
        if pos > 0.0:
            pd = [g / pos if g > 0.0 else 0.0 for g in regret_d]
        else:
            pd = [1.0 / n] * n
        if (t + 1) % record_every == 0 or t == T - 1:
            if r < rows:
                ra = max(regret_a)
                rd = max(regret_d)
                traj[r] = (t + 1, (ra if ra > 0.0 else 0.0) / (t + 1),
                           (rd if rd > 0.0 else 0.0) / (t + 1), payoff_sum / (t + 1))
                r += 1
    return np.array(mix_sum_a) / T, np.array(mix_sum_d) / T, traj[:r]


def regret_matching(M, T: int, seed: int) -> EquilibriumReport:
    m = _entries(M)
    if T < 1:
        raise SolverError("T must be at least 1")
    rng = np.random.default_rng(seed)
    uniforms = rng.random((T, 2))
    record_every = max(1, T // 1000)
    pa, pd, traj = _rm_kernel(m, uniforms, record_every)
    return _report(
        "regret-matching", m, pa, pd, T,
        trajectory=tuple(tuple(row) for row in traj),
    )


# -- bounded rationality -------------------------------------------------------


def softmax_response(M, opponent_mix, beta: float, side: str) -> MixedStrategy:
    """Logit response; beta=0 is uniform, beta→inf approaches best response."""
    m = _entries(M)
    if not (math.isfinite(beta) and beta >= 0):
        raise SolverError(f"beta must be finite and non-negative, got {beta}")
    mix = opponent_mix.probs if isinstance(opponent_mix, MixedStrategy) else np.asarray(opponent_mix)
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

    def __iter__(self):  # allows  pa, pd = qre_fixed_point(...)
        return iter((self.attacker, self.defender))


def qre_fixed_point(M, beta_a: float, beta_d: float,
                    damping: float = QRE_DEFAULT_DAMPING,
                    max_iters: int = 10_000, tol: float = 1e-12) -> QreResult:
    """Damped simultaneous logit iteration toward the quantal response pair."""
    m = _entries(M)
    if not 0.0 < damping <= 1.0:
        raise SolverError("damping must lie in (0, 1]")
    pa = np.full(m.shape[0], 1.0 / m.shape[0])
    pd = np.full(m.shape[1], 1.0 / m.shape[1])
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        ra = softmax_response(m, pd, beta_a, "attacker").probs
        rd = softmax_response(m, pa, beta_d, "defender").probs
        na = (1.0 - damping) * pa + damping * ra
        nd = (1.0 - damping) * pd + damping * rd
        delta = max(np.max(np.abs(na - pa)), np.max(np.abs(nd - pd)))
        pa, pd = na, nd
        if delta <= tol:
            converged = True
            break
    res_a = np.max(np.abs(pa - softmax_response(m, pd, beta_a, "attacker").probs))
    res_d = np.max(np.abs(pd - softmax_response(m, pa, beta_d, "defender").probs))
    return QreResult(
        attacker=MixedStrategy(pa), defender=MixedStrategy(pd),
        converged=converged, iterations=iters, residual=float(max(res_a, res_d)),
    )
