"""The dict-based serving policy and scalar metrics, kept as the oracle of
the package's plan path.

This is the scorer the package ran before every payoff cell went through
``scenario.PairPlan``: ``serve_loads`` walks the islands of a solved state
one bus at a time into dicts, ``lsr``/``clr``/``drs``/``tss`` reduce that
report with Python sums, and ``evaluate_pair`` runs the flows around them.
The tests hold ``scenario.evaluate_pair`` and ``PairPlan.scores`` to these
functions bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from gridgame.netmodel import NetworkState, PowerFlowSolution, power_flow, topology
from gridgame.resilience import (
    FLAG_EMPTY_DENOMINATOR,
    FLAG_NON_CONVERGENCE,
    FLAG_UNDERVOLTAGE,
    ResilienceScorecard,
)
from gridgame.scenario import AttackAction, DefenseAction, apply_attack, apply_defense


@dataclass(frozen=True)
class ServedLoadReport:
    served_p: dict[int, float]  # kW per bus
    served_q: dict[int, float]  # kvar per bus
    der_utilized: dict[str, float]  # kW per DER id
    der_available: dict[str, float]  # kW per DER id
    connected_buses: frozenset[int]  # buses inside energized islands
    # 1 - served_p/load_p per bus; feeds a re-solve after capacity curtailment
    effective_shed: dict[int, float] = field(default_factory=dict)
    capacity_curtailed: bool = False

    def total_served_p(self) -> float:
        return sum(self.served_p.values())


def serve_loads(state: NetworkState, solution: PowerFlowSolution) -> ServedLoadReport:
    served_p: dict[int, float] = {}
    served_q: dict[int, float] = {}
    effective_shed: dict[int, float] = {}
    der_utilized: dict[str, float] = {d.id: 0.0 for d in state.ders}
    der_available: dict[str, float] = {d.id: d.output_kw() for d in state.ders}
    connected: set[int] = set()
    curtailed = False

    bus_by_id = {b.id: b for b in state.buses}
    for idx, comp in enumerate(solution.islands):
        members = sorted(comp)
        if not solution.energized[idx]:
            for bus_id in members:
                served_p[bus_id] = 0.0
                served_q[bus_id] = 0.0
                effective_shed[bus_id] = 1.0
            continue
        connected.update(members)
        # post-shedding demand per bus
        demand_p = {b: bus_by_id[b].load_p * (1.0 - state.shed(b)) for b in members}
        demand_q = {b: bus_by_id[b].load_q * (1.0 - state.shed(b)) for b in members}
        island_ders = [d for d in state.ders if d.online and d.bus in comp]
        capacity = sum(d.output_kw() for d in island_ders)

        if state.slack_bus in comp:
            # grid-connected: the slack covers any balance, nothing curtailed
            factors = {b: 1.0 for b in members}
            for d in island_ders:
                der_utilized[d.id] = d.output_kw()
        else:
            factors = _curtail_factors(bus_by_id, members, demand_p, capacity)
            if any(f < 1.0 for f in factors.values()):
                curtailed = True
            served_total = sum(demand_p[b] * factors[b] for b in members)
            rating_total = sum(d.rating_p for d in island_ders)
            for d in island_ders:
                share = served_total * d.rating_p / rating_total if rating_total else 0.0
                if not math.isfinite(share):  # the product overflowed: divide first
                    share = served_total * (d.rating_p / rating_total)
                der_utilized[d.id] = min(d.output_kw(), share)

        for b in members:
            served_p[b] = demand_p[b] * factors[b]
            served_q[b] = demand_q[b] * factors[b]
            load_p = bus_by_id[b].load_p
            effective_shed[b] = 1.0 - served_p[b] / load_p if load_p > 0 else 0.0

    return ServedLoadReport(
        served_p=served_p,
        served_q=served_q,
        der_utilized=der_utilized,
        der_available=der_available,
        connected_buses=frozenset(connected),
        effective_shed=effective_shed,
        capacity_curtailed=curtailed,
    )


def _curtail_factors(bus_by_id, members, demand_p, capacity) -> dict[int, float]:
    """Per-bus serving factors for a DER island with limited capacity.

    Non-critical demand scales down first; critical demand is touched only
    when capacity cannot even cover the critical total.
    """
    crit = sum(demand_p[b] for b in members if bus_by_id[b].is_critical)
    noncrit = sum(demand_p[b] for b in members if not bus_by_id[b].is_critical)
    total = crit + noncrit
    if total <= capacity:
        return {b: 1.0 for b in members}
    if crit <= capacity:
        nc_factor = (capacity - crit) / noncrit if noncrit > 0 else 0.0
        return {
            b: (1.0 if bus_by_id[b].is_critical else nc_factor) for b in members
        }
    crit_factor = capacity / crit if crit > 0 else 0.0
    return {b: (crit_factor if bus_by_id[b].is_critical else 0.0) for b in members}


def lsr(report: ServedLoadReport, base: NetworkState) -> tuple[float, frozenset[str]]:
    """Served fraction of total pre-attack demand, clamped to [0,1]."""
    demand = sum(b.load_p for b in base.buses)
    if demand <= 0:
        return 1.0, frozenset({FLAG_EMPTY_DENOMINATOR})
    served = sum(report.served_p.get(b.id, 0.0) for b in base.buses)
    return float(min(1.0, max(0.0, served / demand))), frozenset()


def clr(report: ServedLoadReport, base: NetworkState) -> tuple[float, frozenset[str]]:
    """LSR restricted to critical buses; vacuously 1 when none exist."""
    crit = [b for b in base.buses if b.is_critical]
    demand = sum(b.load_p for b in crit)
    if demand <= 0:
        return 1.0, frozenset({FLAG_EMPTY_DENOMINATOR})
    served = sum(report.served_p.get(b.id, 0.0) for b in crit)
    return float(min(1.0, max(0.0, served / demand))), frozenset()


def tss(state: NetworkState) -> float:
    """Fraction of buses residing in energized islands."""
    return len(topology.energized_buses(state)) / state.n_buses


def drs(report: ServedLoadReport) -> tuple[float, frozenset[str]]:
    """Utilized over available DER capacity; zero (flagged) when none available."""
    available = sum(report.der_available.values())
    if available <= 0:
        return 0.0, frozenset({FLAG_EMPTY_DENOMINATOR})
    utilized = sum(report.der_utilized.values())
    return float(min(1.0, max(0.0, utilized / available))), frozenset()


def evaluate_pair(base: NetworkState, attack: AttackAction,
                  defense: DefenseAction) -> ResilienceScorecard:
    """Score one attack-defense interaction on the pristine network.

    Pipeline: pre-attack flow (steady-state sanity), attack, defense,
    post-defense flow, metrics. Non-convergence of the post-defense flow is
    flagged and metrics fall back to the energy-balance serving policy,
    which needs no voltage solution.
    """
    flags: set[str] = set()
    pre = power_flow(base)
    if not pre.converged:
        flags.add(FLAG_NON_CONVERGENCE)

    defended = apply_defense(apply_attack(base, attack), defense)

    solution = power_flow(defended)
    if not solution.converged:
        flags.add(FLAG_NON_CONVERGENCE)
    if solution.undervoltage_buses:
        flags.add(FLAG_UNDERVOLTAGE)

    report = serve_loads(defended, solution)
    if report.capacity_curtailed:
        # re-solve with the curtailment baked in so voltages are consistent
        resolved = power_flow(defended.with_shed(report.effective_shed))
        if not resolved.converged:
            flags.add(FLAG_NON_CONVERGENCE)
        if resolved.undervoltage_buses:
            flags.add(FLAG_UNDERVOLTAGE)

    v_lsr, f1 = lsr(report, base)
    v_clr, f2 = clr(report, base)
    v_drs, f3 = drs(report)
    v_tss = tss(defended)
    return ResilienceScorecard(
        lsr=v_lsr, clr=v_clr, tss=v_tss, drs=v_drs,
        flags=frozenset(flags | f1 | f2 | f3),
    )
