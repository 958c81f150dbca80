"""Immutable data model for radial distribution networks.

All types are frozen dataclasses: a scenario transformation never mutates a
network, it derives a new one.  Bus ids are dense 1..N; internal array code
uses 0-based indices and converts at the boundary.

A state is validated at the boundary: every ``NetworkState(...)`` and
``dataclasses.replace`` runs the full check in ``__post_init__``, so loaders
and user code always do.  The ``with_*`` derivations check only what they
change, with the same rules, and build their result through one trusted
path.  Beside each value, the total active load and the total online DER
output must stay finite: the scores divide by these sums.

Beside its buses, lines and switches, a state holds its branches as arrays:
the end positions and impedances of every branch, lines first and then
switches (``Grid``), which the validated state builds and every derivation
shares, and its own mask of closed branches, which ``with_line_status``
copies and flips in one entry.  Each state also carries three slots that
``topology`` and ``powerflow`` fill the first time they resolve it, so its
connectivity, its numbering and its power-flow solution are worked out
once.  A derivation that changes loads, shed fractions or a DER's dispatch
alone keeps the first two, every other derivation starts with both empty,
and no derivation keeps the solution.  The numbering slot holds a one-entry
list that such a derivation shares with its parent, so a numbering made
after the derivation still serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping

import numpy as np

from ..errors import NetworkValidationError

CLOSED = "closed"
OPEN = "open"


@dataclass(frozen=True)
class Bus:
    id: int
    load_p: float  # kW
    load_q: float  # kvar
    is_critical: bool = False


@dataclass(frozen=True)
class Line:
    """A branch: a line, or a tie switch, which is a line that starts open."""

    id: str
    from_bus: int
    to_bus: int
    r: float  # ohms
    x: float  # ohms
    status: str = CLOSED

    @property
    def closed(self) -> bool:
        return self.status == CLOSED


@dataclass(frozen=True)
class Der:
    id: str
    bus: int
    rating_p: float  # kW
    dispatch_fraction: float = 0.7
    online: bool = True

    def output_kw(self) -> float:
        """Effective active-power output: rating scaled by dispatch, zero offline."""
        return self.rating_p * self.dispatch_fraction if self.online else 0.0


class Grid:
    """The arrays of a validated state that every state derived from it
    shares: its bus positions, and each branch's end positions and
    impedance, lines first and then switches, in state order.  None of
    them is ever written."""

    def __init__(self, buses, lines, switches):
        branches = (*lines, *switches)
        self.ids = tuple(b.id for b in buses)  # bus id per position
        self.pos = {bus: i for i, bus in enumerate(self.ids)}
        self.branch = {ln.id: k for k, ln in enumerate(branches)}
        # positions in bus-id order, and each position's place in that order
        self.by_id = np.array(sorted(range(len(self.ids)), key=self.ids.__getitem__),
                              dtype=np.int64)
        self.rank = np.empty_like(self.by_id)
        self.rank[self.by_id] = np.arange(len(self.ids))
        self.id_order = np.array(sorted(self.ids), dtype=np.int64)  # bus ids, ascending
        # per branch: end positions, and r and x in ohms
        self.frm = np.array([self.pos[ln.from_bus] for ln in branches], dtype=np.int64)
        self.to = np.array([self.pos[ln.to_bus] for ln in branches], dtype=np.int64)
        self.r = np.array([ln.r for ln in branches], dtype=float)
        self.x = np.array([ln.x for ln in branches], dtype=float)
        for a in (self.by_id, self.rank, self.id_order, self.frm, self.to, self.r, self.x):
            a.flags.writeable = False

    @cached_property
    def neighbours(self) -> tuple[list[int], list[int], list[int]]:
        """(start, near, via): the branches at bus position i, open or
        closed, run to the positions near[start[i]:start[i + 1]], in bus-id
        order, and are the branches via[start[i]:start[i + 1]]."""
        src, near = np.concatenate((self.frm, self.to)), np.concatenate((self.to, self.frm))
        via = np.tile(np.arange(len(self.frm)), 2)
        order = np.lexsort((self.rank[near], src))
        start = np.searchsorted(src[order], np.arange(len(self.ids) + 1))
        return start.tolist(), near[order].tolist(), via[order].tolist()


@dataclass(frozen=True)
class NetworkState:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    switches: tuple[Line, ...] = ()
    ders: tuple[Der, ...] = ()
    base_kv: float = 12.66
    base_mva: float = 10.0
    slack_bus: int = 1
    # bus id -> shed fraction in [0,1]; missing means 0. Treated as immutable.
    shed_fractions: Mapping[int, float] = field(default_factory=dict)

    # built by the full check and shared by every derivation; never compared
    _grid: Grid | None = field(default=None, init=False, repr=False, compare=False)
    _closed: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # filled by topology.connectivity and powerflow.power_flow; never compared
    _topology: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _numbering: list | None = field(default=None, init=False, repr=False, compare=False)
    _solution: PowerFlowSolution | None = field(default=None, init=False, repr=False,
                                                compare=False)

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        _check_unique(ids, "bus")
        # with_line_status finds a branch by id in either list
        _check_unique([ln.id for ln in (*self.lines, *self.switches)], "branch")
        known = set(ids)
        for name in ("base_kv", "base_mva"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise NetworkValidationError(f"{name} must be finite and positive, got {value}")
        z_base = self.base_kv * self.base_kv / self.base_mva  # the flow's impedance base
        if not (math.isfinite(z_base) and z_base > 0):
            raise NetworkValidationError(
                f"impedance base base_kv**2 / base_mva must be finite and positive, got {z_base}")
        if self.slack_bus not in known:
            raise NetworkValidationError(f"slack bus {self.slack_bus} not in network")
        _check_loads(self.buses)
        for ln in (*self.lines, *self.switches):
            if ln.from_bus == ln.to_bus:
                raise NetworkValidationError(f"{ln.id}: from and to bus coincide")
            if ln.from_bus not in known or ln.to_bus not in known:
                raise NetworkValidationError(f"{ln.id}: endpoint bus does not exist")
            if not (math.isfinite(ln.r) and math.isfinite(ln.x)):
                raise NetworkValidationError(f"{ln.id}: non-finite impedance")
            if ln.r < 0 or ln.x < 0:
                raise NetworkValidationError(f"{ln.id}: negative impedance")
        _check_ders(self.ders, known)
        _check_shed(self.shed_fractions, known)
        branches = (*self.lines, *self.switches)
        closed = np.array([ln.status == CLOSED for ln in branches], dtype=bool)
        closed.flags.writeable = False
        object.__setattr__(self, "_grid", Grid(self.buses, self.lines, self.switches))
        object.__setattr__(self, "_closed", closed)
        object.__setattr__(self, "_numbering", [None])

    # -- lookups ---------------------------------------------------------

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def bus(self, bus_id: int) -> Bus:
        if bus_id not in self._grid.pos:
            raise KeyError(f"no bus {bus_id}")
        return self.buses[self._grid.pos[bus_id]]

    def shed(self, bus_id: int) -> float:
        return self.shed_fractions.get(bus_id, 0.0)

    def find_line(self, a: int, b: int) -> Line | None:
        """The first line, in state order, between buses a and b."""
        pos, n = self._grid.pos, len(self.lines)
        if a not in pos or b not in pos:
            return None
        frm, to = self._grid.frm[:n], self._grid.to[:n]
        pa, pb = pos[a], pos[b]
        hit = np.flatnonzero((frm == pa) & (to == pb) | (frm == pb) & (to == pa))
        return self.lines[hit[0]] if hit.size else None

    def find_switch(self, switch_id: str) -> Line | None:
        k = self._grid.branch.get(switch_id, -1) - len(self.lines)  # switches follow lines
        return self.switches[k] if k >= 0 else None

    def der_at_bus(self, bus_id: int) -> Der | None:
        for d in self.ders:
            if d.bus == bus_id:
                return d
        return None

    # -- derivations (pure; the receiver is never modified) --------------

    def with_line_status(self, branch_id: str, status: str) -> "NetworkState":
        """Open or close the line or tie switch ``branch_id``."""
        k = self._grid.branch.get(branch_id)
        if k is None:
            raise KeyError(f"no branch {branch_id}")
        closed = self._closed.copy()
        closed[k] = status == CLOSED
        closed.flags.writeable = False
        kind, i = ("lines", k) if k < len(self.lines) else ("switches", k - len(self.lines))
        branches = getattr(self, kind)
        changed = (*branches[:i], replace(branches[i], status=status), *branches[i + 1:])
        return self._derive(_closed=closed, **{kind: changed})

    def with_der(self, der_id: str, **changes) -> "NetworkState":
        if not any(d.id == der_id for d in self.ders):
            raise KeyError(f"no DER {der_id}")
        ders = tuple(replace(d, **changes) if d.id == der_id else d for d in self.ders)
        _check_ders(ders, self._grid.pos)
        # a dispatch change moves no island and no reference
        return self._derive(same_topology=changes.keys() <= {"dispatch_fraction"}, ders=ders)

    def with_shed(self, fractions: Mapping[int, float]) -> "NetworkState":
        _check_shed(fractions, self._grid.pos)
        merged = dict(self.shed_fractions)
        merged.update(fractions)
        return self._derive(same_topology=True, shed_fractions=merged)

    def with_scaled_loads(self, factors: Mapping[int, float]) -> "NetworkState":
        buses = tuple(
            replace(b, load_p=b.load_p * factors[b.id], load_q=b.load_q * factors[b.id])
            if b.id in factors else b
            for b in self.buses
        )
        _check_loads(buses)
        return self._derive(same_topology=True, buses=buses)

    def _derive(self, *, same_topology: bool = False, **changes) -> "NetworkState":
        """The trusted path of the ``with_*`` derivations: a copy with
        ``changes``, which the caller has checked, without ``__post_init__``.
        It keeps the resolved topology, and shares the numbering slot, only
        when ``same_topology``: the change touched no branch, no DER's place,
        rating or status, and no reference.  The stored power-flow solution
        never carries over."""
        derived = object.__new__(type(self))
        attrs = vars(derived)
        attrs.update(vars(self))
        attrs.update(changes, _solution=None)
        if not same_topology:
            attrs.update(_topology=None, _numbering=[None])
        return derived


def _check_loads(buses) -> None:
    total = 0.0
    for b in buses:
        if not (math.isfinite(b.load_p) and math.isfinite(b.load_q)):
            raise NetworkValidationError(f"bus {b.id}: non-finite load")
        if b.load_p < 0:
            raise NetworkValidationError(f"bus {b.id}: negative active load")
        total += b.load_p
    _check_total(total, "total active load")


def _check_unique(ids, kind) -> None:
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise NetworkValidationError(f"duplicate {kind} ids: {dupes}")


def _check_ders(ders, known) -> None:
    _check_unique([d.id for d in ders], "DER")
    for d in ders:
        if d.bus not in known:
            raise NetworkValidationError(f"{d.id}: bus {d.bus} does not exist")
        if not (math.isfinite(d.rating_p) and d.rating_p >= 0):
            raise NetworkValidationError(f"{d.id}: rating must be finite and non-negative")
        if not 0.0 <= d.dispatch_fraction <= 1.0:
            raise NetworkValidationError(f"{d.id}: dispatch fraction outside [0,1]")
    total = 0.0
    for d in ders:
        total += d.output_kw()
    _check_total(total, "total online DER output")


def _check_total(total: float, name: str) -> None:
    """The scores divide by sums like these, added left to right in state
    order, so each must stay inside the float range."""
    if not math.isfinite(total):
        raise NetworkValidationError(
            f"{name} overflows the float range ({total} kW); it must be finite")


def _check_shed(fractions, known) -> None:
    for bus_id, frac in fractions.items():
        if bus_id not in known:
            raise NetworkValidationError(f"shed fraction on unknown bus {bus_id}")
        if not 0.0 <= frac <= 1.0:
            raise NetworkValidationError(f"bus {bus_id}: shed fraction outside [0,1]")


@dataclass(frozen=True)
class PowerFlowSolution:
    voltages: dict[int, complex]  # bus id -> per-unit voltage (0 when de-energized)
    converged: bool
    iterations: int
    max_mismatch: float  # final max |dV| over energized islands, p.u.
    islands: tuple[frozenset[int], ...] = ()
    energized: tuple[bool, ...] = ()  # per island
    undervoltage_buses: tuple[int, ...] = ()  # |V| < 0.90 p.u., flagged but still served
