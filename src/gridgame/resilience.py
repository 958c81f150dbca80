"""Resilience scorecards, AHP weight synthesis, and payoff-matrix construction.

Four complementary indices quantify how a network state weathers an
attack-defense interaction: the fraction of total demand still served (LSR),
the same restricted to critical buses (CLR), the fraction of buses in
energized islands (TSS), and the fraction of available DER capacity actually
used (DRS).  ``scenario.PairPlan.metrics`` computes them.  An AHP eigenvector turns expert pairwise judgments into weights
that collapse the four into one defender-maximizing score per cell.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NetworkValidationError

FLAG_EMPTY_DENOMINATOR = "empty-denominator"
FLAG_NON_CONVERGENCE = "non-convergence"
FLAG_UNDERVOLTAGE = "undervoltage"

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["attack"] + list(self.defense_ids))
            for i, aid in enumerate(self.attack_ids):
                writer.writerow([aid] + [f"{v:.12g}" for v in self.entries[i]])

    def to_long_csv(self, path) -> None:
        """(attack, defense, score) rows; the heatmap plotting contract."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["attack", "defense", "score"])
            for i, aid in enumerate(self.attack_ids):
                for j, did in enumerate(self.defense_ids):
                    writer.writerow([aid, did, f"{self.entries[i, j]:.12g}"])

    def to_flags_csv(self, path) -> None:
        """(attack, defense, flag) rows in catalog order, flags sorted per cell."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["attack", "defense", "flag"])
            for i, j in sorted(self.cell_flags):
                for flag in sorted(self.cell_flags[i, j]):
                    writer.writerow([self.attack_ids[i], self.defense_ids[j], flag])

    @classmethod
    def from_csv(cls, path) -> "PayoffMatrix":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or len(rows) < 2:
            raise ValueError(f"{path}: empty payoff matrix CSV")
        defense_ids = tuple(rows[0][1:])
        attack_ids = tuple(r[0] for r in rows[1:])
        entries = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        return cls(entries=entries, attack_ids=attack_ids, defense_ids=defense_ids)


# -- AHP -------------------------------------------------------------------

def ahp_weights(comparison: np.ndarray, tol: float = 1e-10,
                max_iter: int = 10_000) -> AhpWeights:
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
    if np.any(a <= 0):
        raise NetworkValidationError("comparison matrix entries must be positive")
    if not np.allclose(a * a.T, 1.0, atol=1e-6):
        raise NetworkValidationError("comparison matrix is not reciprocal")

    w = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = a @ w
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - w)) <= tol:
            w = nxt
            break
        w = nxt
    lam = float(np.mean((a @ w) / w))
    ci = (lam - n) / (n - 1) if n > 1 else 0.0
    ri = SAATY_RANDOM_INDEX.get(n, 1.49)
    cr = ci / ri if ri > 0 else 0.0
    return AhpWeights(w=w, lambda_max=lam, consistency_index=ci, consistency_ratio=cr)


def load_ahp_matrix(path) -> np.ndarray:
    """Read the comparison matrix of the four criteria from JSON (list of
    rows) or CSV; rows and columns follow the order LSR, CLR, TSS, DRS."""
    with open(path) as fh:
        text = fh.read().strip()
    if text.startswith("["):
        a = np.array(json.loads(text), dtype=float)
    else:
        rows = [r for r in csv.reader(text.splitlines()) if r]
        a = np.array([[float(v) for v in r] for r in rows])
    if a.shape != (4, 4):
        raise NetworkValidationError(
            f"{path}: AHP comparison matrix must be 4x4, one row and column per "
            f"criterion in the order LSR, CLR, TSS, DRS; got shape {a.shape}")
    return a


def unified_score(card: ResilienceScorecard, weights: AhpWeights) -> float:
    """Weighted combination of the four metrics; lands in [0,1]."""
    return float(weights.w @ card.as_vector())


# -- payoff matrix ---------------------------------------------------------

def build_payoff_matrix(base, catalog, weights: AhpWeights) -> PayoffMatrix:
    """Unified score for every attack-defense pair in the catalog.

    Cells are evaluated one after another in (attack, defense) order.
    """
    from . import scenario  # deferred: scenario imports the scorecard and flags above

    attacks = list(catalog.attacks)
    defenses = list(catalog.defenses)
    entries = np.empty((len(attacks), len(defenses)))
    flags: dict[tuple[int, int], frozenset[str]] = {}
    for i, attack in enumerate(attacks):
        for j, defense in enumerate(defenses):
            try:
                card = scenario.evaluate_pair(base, attack, defense)
            except Exception as exc:
                raise type(exc)(f"payoff cell ({attack.id},{defense.id}): {exc}") from exc
            entries[i, j] = unified_score(card, weights)
            if card.flags:
                flags[(i, j)] = card.flags
    return PayoffMatrix(
        entries=entries,
        attack_ids=tuple(a.id for a in attacks),
        defense_ids=tuple(d.id for d in defenses),
        cell_flags=flags,
    )
