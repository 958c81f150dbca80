"""Immutable data model for radial distribution networks.

All types are frozen dataclasses: a scenario transformation never mutates a
network, it derives a new one.  Bus ids are dense 1..N; internal array code
uses 0-based indices and converts at the boundary.

A state is validated at the boundary: every ``NetworkState(...)`` and
``dataclasses.replace`` runs the full check in ``__post_init__``, so loaders
and user code always do.  The ``with_*`` derivations check only what they
change, with the same rules, and build their result through one trusted
path.  Each state also carries two slots that ``topology`` and
``powerflow`` fill the first time they resolve it, so its connectivity and
its numbering are worked out once: a derivation that changes loads or shed
fractions alone keeps them, and every other derivation starts empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

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

    # filled by topology.connectivity and powerflow.power_flow; never compared
    _topology: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _numbering: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    # -- lookups ---------------------------------------------------------

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(f"no bus {bus_id}")

    def shed(self, bus_id: int) -> float:
        return self.shed_fractions.get(bus_id, 0.0)

    def closed_branches(self) -> list[tuple[int, int, float, float, str]]:
        """(from, to, r_ohm, x_ohm, branch id) for every closed line and switch."""
        return [(l.from_bus, l.to_bus, l.r, l.x, l.id)
                for l in (*self.lines, *self.switches) if l.closed]

    def find_line(self, a: int, b: int) -> Line | None:
        for ln in self.lines:
            if {ln.from_bus, ln.to_bus} == {a, b}:
                return ln
        return None

    def find_switch(self, switch_id: str) -> Line | None:
        for sw in self.switches:
            if sw.id == switch_id:
                return sw
        return None

    def der_at_bus(self, bus_id: int) -> Der | None:
        for d in self.ders:
            if d.bus == bus_id:
                return d
        return None

    # -- derivations (pure; the receiver is never modified) --------------

    def with_line_status(self, branch_id: str, status: str) -> "NetworkState":
        """Open or close the line or tie switch ``branch_id``."""
        for kind in ("lines", "switches"):
            branches = getattr(self, kind)
            if any(l.id == branch_id for l in branches):
                return self._derive(**{kind: tuple(
                    replace(l, status=status) if l.id == branch_id else l for l in branches)})
        raise KeyError(f"no branch {branch_id}")

    def with_der(self, der_id: str, **changes) -> "NetworkState":
        if not any(d.id == der_id for d in self.ders):
            raise KeyError(f"no DER {der_id}")
        ders = tuple(replace(d, **changes) if d.id == der_id else d for d in self.ders)
        _check_ders(ders, {b.id for b in self.buses})
        # the islands hold the old Der objects, and the flow reads their output
        return self._derive(ders=ders)

    def with_shed(self, fractions: Mapping[int, float]) -> "NetworkState":
        _check_shed(fractions, {b.id for b in self.buses})
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
        It keeps the resolved topology and numbering only when
        ``same_topology``: the change touched no branch, DER or reference."""
        derived = object.__new__(type(self))
        attrs = vars(derived)
        attrs.update(vars(self))
        attrs.update(changes)
        if not same_topology:
            attrs.update(_topology=None, _numbering=None)
        return derived


def _check_loads(buses) -> None:
    for b in buses:
        if not (math.isfinite(b.load_p) and math.isfinite(b.load_q)):
            raise NetworkValidationError(f"bus {b.id}: non-finite load")
        if b.load_p < 0:
            raise NetworkValidationError(f"bus {b.id}: negative active load")


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
