"""Resilience scorecards, AHP weight synthesis, and payoff-matrix construction.

Four complementary indices quantify how a network state weathers an
attack-defense interaction: the fraction of total demand still served (LSR),
the same restricted to critical buses (CLR), the fraction of buses in
energized islands (TSS), and the fraction of available DER capacity actually
used (DRS).  ``scenario.PlanTable.metrics`` computes them for any runs of
any cells of a plan table in one array pass.  An AHP eigenvector turns
expert pairwise judgments into weights that collapse the four into one
defender-maximizing score per cell.  ``build_payoff_matrix`` is the plan
table, one pass of it over every cell, and the flows that set each cell's
voltage flags; ``nominal_payoff`` is the same pass without the flows.
``PayoffMatrix`` reads and writes the payoff CSV, the format the CLI's
``--matrix`` takes; every other data file is written by the CLI.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import NetworkValidationError, read_text

FLAG_EMPTY_DENOMINATOR = "empty-denominator"
FLAG_NON_CONVERGENCE = "non-convergence"
FLAG_UNDERVOLTAGE = "undervoltage"

# the largest |entry| a payoff CSV may hold: the package's own scores lie in
# [0, 1], and the learners take rewards bounded by 1 in absolute value
REWARD_BOUND = 1.0 + 1e-12

# power iteration of ahp_weights: max-norm step at which it stops, and its cap
AHP_TOL = 1e-10
AHP_MAX_ITERS = 10_000

SAATY_RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
                      6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}

# pairwise comparison judgments; criterion order LSR, CLR, TSS, DRS
DEFAULT_AHP_MATRIX = np.array([
    [1.0, 0.5, 3.0, 2.0],
    [2.0, 1.0, 4.0, 3.0],
    [1.0 / 3.0, 0.25, 1.0, 0.5],
    [0.5, 1.0 / 3.0, 2.0, 1.0],
])


@dataclass(frozen=True)
class ResilienceScorecard:
    lsr: float
    clr: float
    tss: float
    drs: float
    flags: frozenset[str] = frozenset()

    def as_vector(self) -> np.ndarray:
        return np.array([self.lsr, self.clr, self.tss, self.drs])


def left_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums along the last axis, added left to right as a plain loop adds
    them; 0.0 where that axis is empty.

    Every matrix or vector product whose result reaches a data file is one
    of these sums, ``left_sum(m * v)``: a BLAS kernel orders its additions
    by the CPU it runs on.  ``out`` may be ``a`` itself; the result is then
    a view into it.  Without ``out`` the result is a copy, so the running
    sums are freed at once.
    """
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    last = np.add.accumulate(a, axis=-1, out=out)[..., -1]
    return last if out is not None else last.copy()


def float_sum(values) -> float:
    """The builtin ``sum`` of floats as Python 3.11 adds them, on every
    Python (3.12's compensates): from 0.0, left to right (``left_sum``).  A
    total past the float limit is inf, without a warning, as the builtin's."""
    with np.errstate(over="ignore"):
        return float(left_sum(np.array([0.0, *values])))


@dataclass(frozen=True)
class AhpWeights:
    w: np.ndarray  # normalized, sums to 1
    lambda_max: float
    consistency_index: float
    consistency_ratio: float


@dataclass(frozen=True)
class PayoffMatrix:
    entries: np.ndarray  # shape (m, n), defender-maximizing, values in [0,1]
    attack_ids: tuple[str, ...]
    defense_ids: tuple[str, ...]
    cell_flags: dict[tuple[int, int], frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        m, n = self.entries.shape
        if m == 0 or n == 0:
            raise ValueError(f"payoff matrix needs at least one attack and one "
                             f"defense, got shape {(m, n)}")
        if m != len(self.attack_ids) or n != len(self.defense_ids):
            raise ValueError("payoff dimensions do not match id sequences")
        for side, ids in (("attack", self.attack_ids), ("defense", self.defense_ids)):
            if len(set(ids)) != len(ids):
                raise ValueError(f"payoff matrix repeats {side} ids: {list(ids)}")
        if not np.isfinite(self.entries).all():
            raise ValueError("payoff matrix has non-finite entries")

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def to_csv(self, path) -> None:
        """The payoff CSV that from_csv reads back (the CLI's --matrix input):
        the one data file written outside the CLI."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["attack"] + list(self.defense_ids))
            for i, aid in enumerate(self.attack_ids):
                writer.writerow([aid] + [f"{v:.12g}" for v in self.entries[i]])

    @classmethod
    def from_csv(cls, path) -> "PayoffMatrix":
        """The matrix in the payoff CSV at ``path``, each entry within
        ``REWARD_BOUND`` of 0; every error names the file."""
        try:
            rows = list(csv.reader(io.StringIO(read_text(path, ValueError), newline="")))
        except csv.Error as exc:  # a field over the csv module's size limit
            raise ValueError(f"{path}: {exc}") from None
        if len(rows) < 2:
            raise ValueError(f"{path}: empty payoff matrix CSV")
        header, entries = rows[0], []
        for line, row in enumerate(rows[1:], start=2):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                values = [float(v) for v in row[1:]]
                for v in values:
                    if abs(v) > REWARD_BOUND:
                        raise ValueError(f"entry {v!r} is not bounded by 1 in absolute value")
                entries.append(values)
            except ValueError as exc:
                raise ValueError(f"{path}, line {line}: {exc}") from None
        try:
            return cls(entries=np.array(entries), attack_ids=tuple(r[0] for r in rows[1:]),
                       defense_ids=tuple(header[1:]))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# -- AHP -------------------------------------------------------------------

def ahp_weights(comparison: np.ndarray) -> AhpWeights:
    """Principal-eigenvector weights of a positive reciprocal matrix.

    Power iteration from the uniform vector; positive reciprocal matrices
    have a dominant positive eigenpair, so this converges to it. The
    consistency ratio divides the consistency index by Saaty's random index
    for the matrix order.
    """
    a = np.asarray(comparison, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NetworkValidationError("comparison matrix must be square")
    _check_comparison(a)

    w = np.full(n, 1.0 / n)
    for _ in range(AHP_MAX_ITERS):
        nxt = left_sum(a * w)
        nxt /= left_sum(nxt)
        if np.max(np.abs(nxt - w)) <= AHP_TOL:
            w = nxt
            break
        w = nxt
    lam = float(left_sum(left_sum(a * w) / w)) / n
    ci = (lam - n) / (n - 1) if n > 1 else 0.0
    ri = SAATY_RANDOM_INDEX.get(n, 1.49)
    cr = ci / ri if ri > 0 else 0.0
    return AhpWeights(w=w, lambda_max=lam, consistency_index=ci, consistency_ratio=cr)


def _check_comparison(a: np.ndarray) -> None:
    """Every entry of the square matrix ``a`` is finite and positive, and
    a[j, i] is 1 / a[i, j]."""
    missing = np.argwhere(~np.isfinite(a))
    if missing.size:
        i, j = missing[0] + 1
        raise NetworkValidationError(
            f"comparison matrix entry at row {i}, column {j} is missing or not finite")
    if np.any(a <= 0):
        raise NetworkValidationError("comparison matrix entries must be positive")
    with np.errstate(over="ignore"):  # an overflowing product is inf: not reciprocal
        if not np.allclose(a * a.T, 1.0, atol=1e-6):
            raise NetworkValidationError("comparison matrix is not reciprocal")


def load_ahp_matrix(path) -> np.ndarray:
    """Read the comparison matrix of the four criteria from a CSV file, one
    row per line; rows and columns follow the order LSR, CLR, TSS, DRS."""
    text = read_text(path, NetworkValidationError).strip()
    try:
        rows = [r for r in csv.reader(text.splitlines()) if r]
        a = np.array([[float(v) for v in r] for r in rows])
    except (csv.Error, ValueError) as exc:
        raise NetworkValidationError(
            f"{path}: AHP comparison matrix is not a table of numbers ({exc})") from exc
    if a.shape != (4, 4):
        raise NetworkValidationError(
            f"{path}: AHP comparison matrix must be 4x4, one row and column per "
            f"criterion in the order LSR, CLR, TSS, DRS; got shape {a.shape}")
    try:
        _check_comparison(a)
    except NetworkValidationError as exc:
        raise NetworkValidationError(f"{path}: {exc}") from exc
    return a


def unified_score(card: ResilienceScorecard, weights: AhpWeights) -> float:
    """Weighted combination of the four metrics; lands in [0,1]."""
    return float(left_sum(weights.w * card.as_vector()))


# -- payoff matrix ---------------------------------------------------------

def build_payoff_matrix(base, catalog, weights: AhpWeights) -> PayoffMatrix:
    """Unified score and flags of every attack-defense pair in the catalog.

    Three steps: the plan table (``scenario.compile_catalog``); one pass of
    it that scores every cell, serves its loads and marks its curtailment
    and empty denominators (``PlanTable.nominal``); then, row by row of the
    matrix, the power flows that set the voltage flags: the row's flows in
    one sweep pass (``scenario.solve_row``), then each cell's flags in
    (attack, defense) order (``scenario.evaluate_pair``), which reads the
    solutions that pass stored. Only ``payoff`` writes the flags."""
    from . import scenario  # deferred: scenario imports the scorecard and flags above
    from .netmodel import forget_solution

    table = scenario.compile_catalog(base, catalog)
    _, cards, _ = table.nominal
    n_def = len(catalog.defenses)
    flags = {}
    for i, attack in enumerate(catalog.attacks):
        cells = range(i * n_def, (i + 1) * n_def)
        # the row's flows in one pass; evaluate_pair finds each one solved
        served = scenario.solve_row(table, cells)
        for cell, defense, state in zip(cells, catalog.defenses, served):
            card = scenario.payoff_cell(scenario.evaluate_pair, base, attack, defense,
                                        table=table, cell=cell, served_state=state)
            if card.flags:
                flags[divmod(cell, n_def)] = card.flags
        # the row's flows are read: free them, so the build holds one row's at a time
        for cell in cells:
            if table.cells[cell].defended is not base:
                forget_solution(table.cells[cell].defended)
    return _payoff(catalog, left_sum(cards * weights.w), flags)


def nominal_payoff(table, catalog, weights: AhpWeights) -> PayoffMatrix:
    """The matrix of ``scenario.compile_catalog``'s plan table, each cell
    scored on its unperturbed loads: ``build_payoff_matrix``'s entries bit
    for bit, without its flows and so without flags."""
    return _payoff(catalog, left_sum(table.nominal[1] * weights.w))


def _payoff(catalog, entries, flags=None) -> PayoffMatrix:
    shape = (len(catalog.attacks), len(catalog.defenses))
    return PayoffMatrix(np.array(entries, dtype=float).reshape(shape),
                        tuple(a.id for a in catalog.attacks),
                        tuple(d.id for d in catalog.defenses), flags or {})
