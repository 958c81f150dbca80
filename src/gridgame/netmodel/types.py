"""Immutable data model for radial distribution networks.

All types are frozen dataclasses: a scenario transformation never mutates a
network, it derives a new one.  Bus ids are dense 1..N; internal array code
uses 0-based indices and converts at the boundary.
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
class TieSwitch:
    id: str
    from_bus: int
    to_bus: int
    r: float  # ohms
    x: float  # ohms
    position: str = OPEN

    @property
    def closed(self) -> bool:
        return self.position == CLOSED


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
    switches: tuple[TieSwitch, ...] = ()
    ders: tuple[Der, ...] = ()
    base_kv: float = 12.66
    base_mva: float = 10.0
    slack_bus: int = 1
    # bus id -> shed fraction in [0,1]; missing means 0. Treated as immutable.
    shed_fractions: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise NetworkValidationError("duplicate bus ids")
        known = set(ids)
        for name in ("base_kv", "base_mva"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise NetworkValidationError(f"{name} must be finite and positive, got {value}")
        if self.slack_bus not in known:
            raise NetworkValidationError(f"slack bus {self.slack_bus} not in network")
        for b in self.buses:
            if not (math.isfinite(b.load_p) and math.isfinite(b.load_q)):
                raise NetworkValidationError(f"bus {b.id}: non-finite load")
            if b.load_p < 0:
                raise NetworkValidationError(f"bus {b.id}: negative active load")
        for ln in list(self.lines) + list(self.switches):
            if ln.from_bus == ln.to_bus:
                raise NetworkValidationError(f"{ln.id}: from and to bus coincide")
            if ln.from_bus not in known or ln.to_bus not in known:
                raise NetworkValidationError(f"{ln.id}: endpoint bus does not exist")
            if not (math.isfinite(ln.r) and math.isfinite(ln.x)):
                raise NetworkValidationError(f"{ln.id}: non-finite impedance")
            if ln.r < 0 or ln.x < 0:
                raise NetworkValidationError(f"{ln.id}: negative impedance")
        der_ids = [d.id for d in self.ders]
        if len(set(der_ids)) != len(der_ids):
            raise NetworkValidationError("duplicate DER ids")
        for d in self.ders:
            if d.bus not in known:
                raise NetworkValidationError(f"{d.id}: bus {d.bus} does not exist")
            if not (math.isfinite(d.rating_p) and d.rating_p >= 0):
                raise NetworkValidationError(f"{d.id}: rating must be finite and non-negative")
            if not 0.0 <= d.dispatch_fraction <= 1.0:
                raise NetworkValidationError(f"{d.id}: dispatch fraction outside [0,1]")
        for bus_id, frac in self.shed_fractions.items():
            if bus_id not in known:
                raise NetworkValidationError(f"shed fraction on unknown bus {bus_id}")
            if not 0.0 <= frac <= 1.0:
                raise NetworkValidationError(f"bus {bus_id}: shed fraction outside [0,1]")

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

    def critical_buses(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses if b.is_critical)

    def total_load(self) -> tuple[float, float]:
        """(kW, kvar) summed over all buses, before shedding."""
        return (sum(b.load_p for b in self.buses), sum(b.load_q for b in self.buses))

    def closed_branches(self) -> list[tuple[int, int, float, float, str]]:
        """(from, to, r_ohm, x_ohm, branch id) for every closed line and switch."""
        out = [(l.from_bus, l.to_bus, l.r, l.x, l.id) for l in self.lines if l.closed]
        out += [(s.from_bus, s.to_bus, s.r, s.x, s.id) for s in self.switches if s.closed]
        return out

    def find_line(self, a: int, b: int) -> Line | None:
        for ln in self.lines:
            if {ln.from_bus, ln.to_bus} == {a, b}:
                return ln
        return None

    def find_switch(self, switch_id: str) -> TieSwitch | None:
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

    def with_line_status(self, line_id: str, status: str) -> "NetworkState":
        if not any(l.id == line_id for l in self.lines):
            raise KeyError(f"no line {line_id}")
        lines = tuple(replace(l, status=status) if l.id == line_id else l for l in self.lines)
        return replace(self, lines=lines)

    def with_switch_position(self, switch_id: str, position: str) -> "NetworkState":
        if not any(s.id == switch_id for s in self.switches):
            raise KeyError(f"no switch {switch_id}")
        sws = tuple(replace(s, position=position) if s.id == switch_id else s for s in self.switches)
        return replace(self, switches=sws)

    def with_der(self, der_id: str, **changes) -> "NetworkState":
        if not any(d.id == der_id for d in self.ders):
            raise KeyError(f"no DER {der_id}")
        ders = tuple(replace(d, **changes) if d.id == der_id else d for d in self.ders)
        return replace(self, ders=ders)

    def with_shed(self, fractions: Mapping[int, float]) -> "NetworkState":
        merged = dict(self.shed_fractions)
        merged.update(fractions)
        return replace(self, shed_fractions=merged)

    def with_scaled_loads(self, factors: Mapping[int, float]) -> "NetworkState":
        buses = tuple(
            replace(b, load_p=b.load_p * factors[b.id], load_q=b.load_q * factors[b.id])
            if b.id in factors else b
            for b in self.buses
        )
        return replace(self, buses=buses)


@dataclass(frozen=True)
class PowerFlowSolution:
    voltages: dict[int, complex]  # bus id -> per-unit voltage (0 when de-energized)
    converged: bool
    iterations: int
    max_mismatch: float  # final max |dV| over energized islands, p.u.
    island_assignment: dict[int, int]  # bus id -> island index
    islands: tuple[frozenset[int], ...] = ()
    energized: tuple[bool, ...] = ()  # per island
    reference_bus: dict[int, int] = field(default_factory=dict)  # island idx -> bus id
    undervoltage_buses: tuple[int, ...] = ()  # |V| < 0.90 p.u., flagged but still served
