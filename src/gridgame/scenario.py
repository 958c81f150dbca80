"""Attack and defense catalogs as declarative network transformations.

Ten attacks and ten defenses, each an ordered list of primitive effects over
the network state. Applying an action is pure: the input state is never
touched. ``compile_pair`` resolves one pair once into a ``PairPlan``, which
serves the loads (``serve_loads``) and scores the served state (LSR, CLR, TSS,
DRS) for many load vectors at a time. ``evaluate_pair`` scores one cell
through its plan and runs the power flows that set the cell's voltage flags.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CatalogError
from .netmodel import CLOSED, OPEN, NetworkState, power_flow, topology
from .resilience import (
    FLAG_EMPTY_DENOMINATOR,
    FLAG_NON_CONVERGENCE,
    FLAG_UNDERVOLTAGE,
    ResilienceScorecard,
)

ATTACK_KINDS = frozenset(
    {"trip_line", "trip_der", "open_switch", "close_switch", "scale_load", "fdi_bias"})
DEFENSE_KINDS = frozenset(
    {"close_switch", "companion_open", "set_der_dispatch", "shed_fraction", "shed_threshold"})

CATALOG_VERSION = "default-1"


@dataclass(frozen=True)
class Effect:
    kind: str
    # bus id, "a-b" line endpoints, switch/DER id, "*", "non-critical",
    # or a list of bus ids; None for network-wide effects
    target: object = None
    value: float | None = None

    def to_json(self) -> dict:
        tgt = list(self.target) if isinstance(self.target, tuple) else self.target
        return {"kind": self.kind, "target": tgt, "value": self.value}

    @classmethod
    def from_json(cls, obj: dict) -> "Effect":
        tgt = obj.get("target")
        if isinstance(tgt, list):
            tgt = tuple(tgt)
        return cls(kind=obj["kind"], target=tgt, value=obj.get("value"))


def _check_effects(action_id: str, effects, kinds, side: str) -> None:
    """Known kinds only; every value None or a finite real, not a bool or a
    string; a shed_threshold needs its value."""
    for eff in effects:
        if not isinstance(eff.kind, str) or eff.kind not in kinds:
            raise CatalogError(f"{action_id}: unknown {side} effect kind {eff.kind!r}")
        v = eff.value
        if v is None and eff.kind == "shed_threshold":
            raise CatalogError(f"{action_id}: shed_threshold needs a value")
        if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Real)
                              or not math.isfinite(v)):
            raise CatalogError(f"{action_id}: {eff.kind} value {v!r} is not a finite number")


@dataclass(frozen=True)
class AttackAction:
    id: str
    label: str
    effects: tuple[Effect, ...]

    def __post_init__(self):
        _check_effects(self.id, self.effects, ATTACK_KINDS, "attack")


@dataclass(frozen=True)
class DefenseAction:
    id: str
    label: str
    effects: tuple[Effect, ...]

    def __post_init__(self):
        _check_effects(self.id, self.effects, DEFENSE_KINDS, "defense")


@dataclass(frozen=True)
class ScenarioCatalog:
    attacks: tuple[AttackAction, ...]
    defenses: tuple[DefenseAction, ...]
    version: str = CATALOG_VERSION

    def __post_init__(self):
        ids = [a.id for a in self.attacks] + [d.id for d in self.defenses]
        if len(set(ids)) != len(ids):
            raise CatalogError("duplicate action ids in catalog")

    def attack(self, action_id: str) -> AttackAction:
        for a in self.attacks:
            if a.id == action_id:
                return a
        raise CatalogError(f"no attack {action_id}")

    def defense(self, action_id: str) -> DefenseAction:
        for d in self.defenses:
            if d.id == action_id:
                return d
        raise CatalogError(f"no defense {action_id}")

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "attacks": [
                {"id": a.id, "label": a.label, "effects": [e.to_json() for e in a.effects]}
                for a in self.attacks
            ],
            "defenses": [
                {"id": d.id, "label": d.label, "effects": [e.to_json() for e in d.effects]}
                for d in self.defenses
            ],
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fx(kind, target=None, value=None) -> Effect:
    return Effect(kind=kind, target=target, value=value)


def catalog_default() -> ScenarioCatalog:
    """The built-in ten-by-ten action catalog for the bundled 33-bus network.

    Sensor bias attacks resolve to protective DER trips at the biased buses.
    Tie-close defenses carry a companion sectionalizing line that opens only
    if the close would otherwise form a loop.
    """
    attacks = (
        AttackAction("A1", "voltage sensor bias trips DERs at buses 5/18/29", (
            _fx("fdi_bias", 5, 0.15),
            _fx("fdi_bias", 18, 0.15),
            _fx("fdi_bias", 29, 0.15),
        )),
        AttackAction("A2", "rogue breaker commands open lines 6-7 and 14-15", (
            _fx("trip_line", "6-7"),
            _fx("trip_line", "14-15"),
        )),
        AttackAction("A3", "coordinated shutdown of all DERs", (
            _fx("trip_der", "DER1"),
            _fx("trip_der", "DER2"),
            _fx("trip_der", "DER3"),
            _fx("trip_der", "DER4"),
        )),
        AttackAction("A4", "operator console hijack: open 5-6, inflate loads 20-24", (
            _fx("trip_line", "5-6"),
            _fx("scale_load", (20, 21, 22, 23, 24), 1.2),
        )),
        AttackAction("A5", "relay spoofing isolates critical junctions", (
            _fx("trip_line", "6-7"),
            _fx("trip_line", "23-24"),
        )),
        AttackAction("A6", "single line sabotage 3-4", (
            _fx("trip_line", "3-4"),
        )),
        AttackAction("A7", "double cut 5-6 and 14-15", (
            _fx("trip_line", "5-6"),
            _fx("trip_line", "14-15"),
        )),
        AttackAction("A8", "double cut 7-8 and 6-26", (
            _fx("trip_line", "7-8"),
            _fx("trip_line", "6-26"),
        )),
        AttackAction("A9", "triple cut 2-3, 2-19, 28-29", (
            _fx("trip_line", "2-3"),
            _fx("trip_line", "2-19"),
            _fx("trip_line", "28-29"),
        )),
        AttackAction("A10", "triple cut 6-7, 23-24, 30-31", (
            _fx("trip_line", "6-7"),
            _fx("trip_line", "23-24"),
            _fx("trip_line", "30-31"),
        )),
    )
    defenses = (
        DefenseAction("D1", "no action", ()),
        DefenseAction("D2", "reconfigure via tie SW1 (12-21)", (
            _fx("close_switch", "SW1"),
            _fx("companion_open", "11-12"),
        )),
        DefenseAction("D3", "reconfigure via tie SW2 (9-15)", (
            _fx("close_switch", "SW2"),
            _fx("companion_open", "14-15"),
        )),
        DefenseAction("D4", "reconfigure via tie SW3 (18-33)", (
            _fx("close_switch", "SW3"),
            _fx("companion_open", "17-18"),
        )),
        DefenseAction("D5", "reconfigure via tie SW4 (25-29)", (
            _fx("close_switch", "SW4"),
            _fx("companion_open", "28-29"),
        )),
        DefenseAction("D6", "full dispatch of DER at bus 5", (
            _fx("set_der_dispatch", "DER1", 1.0),
        )),
        DefenseAction("D7", "full dispatch of DER at bus 21", (
            _fx("set_der_dispatch", "DER3", 1.0),
        )),
        DefenseAction("D8", "shed 30% of every non-critical load", (
            _fx("shed_fraction", "non-critical", 0.30),
        )),
        DefenseAction("D9", "shed all loads above 200 kW", (
            _fx("shed_threshold", None, 200.0),
        )),
        DefenseAction("D10", "tie SW2 plus full dispatch at bus 21", (
            _fx("close_switch", "SW2"),
            _fx("companion_open", "14-15"),
            _fx("set_der_dispatch", "DER3", 1.0),
        )),
    )
    return ScenarioCatalog(attacks=attacks, defenses=defenses)


def load_catalog(path) -> ScenarioCatalog:
    """Catalog from an override file; entries replace the defaults by id.

    With a top-level ``"replace": true`` the listed arrays stand on their
    own instead: the catalog contains exactly the listed attacks/defenses
    (an absent array keeps the full default set for that side).  That is
    how a reduced scenario set, down to a single attack, is expressed.
    """
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise CatalogError(f"{path}: top level must be an object, got {type(obj).__name__}")
    base = catalog_default()
    version = obj.get("version", CATALOG_VERSION)
    att = _parse_actions(obj, "attacks", AttackAction, path)
    dfn = _parse_actions(obj, "defenses", DefenseAction, path)

    if obj.get("replace", False):
        for acts in (att, dfn):
            ids = [a.id for a in acts]
            if len(ids) != len(set(ids)):
                raise CatalogError(f"{path}: duplicate action ids in replace mode")
        return ScenarioCatalog(
            attacks=att or base.attacks,
            defenses=dfn or base.defenses,
            version=version,
        )

    attacks = {a.id: a for a in base.attacks}
    defenses = {d.id: d for d in base.defenses}
    for acts, known, side in ((att, attacks, "attack"), (dfn, defenses, "defense")):
        for act in acts:
            if act.id not in known:
                raise CatalogError(f"{path}: unknown {side} id {act.id!r}")
            known[act.id] = act
    return ScenarioCatalog(
        attacks=tuple(attacks[a.id] for a in base.attacks),
        defenses=tuple(defenses[d.id] for d in base.defenses),
        version=version,
    )


def _parse_actions(obj: dict, key: str, cls, path) -> tuple:
    """The actions listed under ``key``: a list of objects, each with a list
    of effect objects."""
    entries = obj.get(key, [])
    if not isinstance(entries, list):
        raise CatalogError(f"{path}: {key!r} must be a list of action objects")
    actions = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise CatalogError(f"{path}: {key} entry {entry!r} is not an object")
        if not isinstance(entry.get("id", ""), str):
            raise CatalogError(f"{path}: {key} id {entry['id']!r} is not a string")
        effects = entry.get("effects", [])
        if not isinstance(effects, list) or not all(isinstance(e, dict) for e in effects):
            raise CatalogError(f"{path}: effects of {entry.get('id')!r} must be a list of objects")
        try:
            actions.append(cls(id=entry["id"], label=entry.get("label", entry["id"]),
                               effects=tuple(Effect.from_json(e) for e in effects)))
        except KeyError as exc:
            raise CatalogError(f"{path}: action entry missing field {exc}") from exc
    return tuple(actions)


# -- effect resolution -----------------------------------------------------

def _line_endpoints(action_id: str, target) -> tuple[int, int]:
    if isinstance(target, str) and "-" in target:
        a, _, b = target.partition("-")
        try:
            return int(a), int(b)
        except ValueError:
            pass
    if isinstance(target, tuple) and len(target) == 2:
        return int(target[0]), int(target[1])
    raise CatalogError(f"{action_id}: line target {target!r} is not a bus pair")


def _resolve_line(state: NetworkState, action_id: str, target):
    a, b = _line_endpoints(action_id, target)
    line = state.find_line(a, b)
    if line is None:
        raise CatalogError(f"{action_id}: no line between buses {a} and {b}")
    return line


def _resolve_switch(state: NetworkState, action_id: str, target):
    sw = state.find_switch(str(target))
    if sw is None:
        raise CatalogError(f"{action_id}: no tie switch {target!r}")
    return sw


def _resolve_ders(state: NetworkState, action_id: str, target) -> list[str]:
    if target == "*":
        return [d.id for d in state.ders]
    if isinstance(target, int):
        der = state.der_at_bus(target)
        if der is None:
            raise CatalogError(f"{action_id}: no DER at bus {target}")
        return [der.id]
    for d in state.ders:
        if d.id == target:
            return [d.id]
    raise CatalogError(f"{action_id}: no DER {target!r}")


def _resolve_buses(state: NetworkState, action_id: str, target) -> list[int]:
    known = {b.id for b in state.buses}
    if target == "*" or target == "all":
        return sorted(known)
    if target == "non-critical":
        return sorted(b.id for b in state.buses if not b.is_critical)
    if isinstance(target, int):
        ids = [target]
    elif isinstance(target, tuple):
        ids = [int(t) for t in target]
    else:
        raise CatalogError(f"{action_id}: bus target {target!r} not understood")
    for i in ids:
        if i not in known:
            raise CatalogError(f"{action_id}: no bus {i}")
    return ids


# -- action application ----------------------------------------------------

def apply_attack(state: NetworkState, attack: AttackAction) -> NetworkState:
    """Attacked copy of the state; effects land in catalog order."""
    s = state
    for eff in attack.effects:
        if eff.kind == "trip_line":
            s = s.with_line_status(_resolve_line(s, attack.id, eff.target).id, OPEN)
        elif eff.kind == "trip_der":
            for der_id in _resolve_ders(s, attack.id, eff.target):
                s = s.with_der(der_id, online=False)
        elif eff.kind == "open_switch":
            s = s.with_switch_position(_resolve_switch(s, attack.id, eff.target).id, OPEN)
        elif eff.kind == "close_switch":
            sw = _resolve_switch(s, attack.id, eff.target)
            # a close that would loop the network is rejected by protection
            if not topology.closing_creates_loop(s, sw.from_bus, sw.to_bus):
                s = s.with_switch_position(sw.id, CLOSED)
        elif eff.kind == "scale_load":
            buses = _resolve_buses(s, attack.id, eff.target)
            factor = 1.0 if eff.value is None else float(eff.value)
            s = s.with_scaled_loads({b: factor for b in buses})
        elif eff.kind == "fdi_bias":
            # corrupted telemetry causes protective tripping of the DER there
            for der_id in _resolve_ders(s, attack.id, eff.target):
                s = s.with_der(der_id, online=False)
        else:
            raise CatalogError(f"{attack.id}: unknown effect kind {eff.kind!r}")
    return s


def apply_defense(state: NetworkState, defense: DefenseAction) -> NetworkState:
    """Defended copy of the state (typically already attacked).

    A close_switch followed by companion_open means: close the tie, opening
    the companion sectionalizing line first only if the plain close would
    form a loop. When even that cannot restore radiality the close is
    skipped.
    """
    s = state
    effects = list(defense.effects)
    i = 0
    while i < len(effects):
        eff = effects[i]
        if eff.kind == "close_switch":
            sw = _resolve_switch(s, defense.id, eff.target)
            companion = None
            if i + 1 < len(effects) and effects[i + 1].kind == "companion_open":
                companion = effects[i + 1]
                i += 1
            if not topology.closing_creates_loop(s, sw.from_bus, sw.to_bus):
                s = s.with_switch_position(sw.id, CLOSED)
            elif companion is not None:
                line = _resolve_line(s, defense.id, companion.target)
                trial = s.with_line_status(line.id, OPEN)
                if not topology.closing_creates_loop(trial, sw.from_bus, sw.to_bus):
                    s = trial.with_switch_position(sw.id, CLOSED)
                # otherwise: leave the network untouched and skip the close
        elif eff.kind == "companion_open":
            raise CatalogError(
                f"{defense.id}: companion_open must directly follow a close_switch")
        elif eff.kind == "set_der_dispatch":
            frac = 1.0 if eff.value is None else float(eff.value)
            for der_id in _resolve_ders(s, defense.id, eff.target):
                s = s.with_der(der_id, dispatch_fraction=frac)
        elif eff.kind == "shed_fraction":
            frac = 0.0 if eff.value is None else float(eff.value)
            buses = _resolve_buses(s, defense.id, eff.target)
            s = s.with_shed({b: frac for b in buses})
        elif eff.kind == "shed_threshold":
            limit = float(eff.value)
            hit = {b.id: 1.0 for b in s.buses if b.load_p > limit}
            if hit:
                s = s.with_shed(hit)
        else:
            raise CatalogError(f"{defense.id}: unknown effect kind {eff.kind!r}")
        i += 1
    return s


def evaluate_pair(base: NetworkState, attack: AttackAction,
                  defense: DefenseAction) -> ResilienceScorecard:
    """Score one attack-defense interaction on the pristine network.

    Pipeline: pre-attack flow (steady-state sanity), attack, defense,
    post-defense flow, then the cell's plan serves the loads and scores
    them. The flows only set flags: voltages reach no metric, so the
    serving policy needs no voltage solution, converged or not.
    """
    flags: set[str] = set()
    if not power_flow(base).converged:
        flags.add(FLAG_NON_CONVERGENCE)

    defended = apply_defense(apply_attack(base, attack), defense)
    solutions = [power_flow(defended)]
    plan = _plan(base, attack, defense, defended)
    served = serve_loads(plan, np.ones((1, len(base.buses))))
    if served.curtailed[0]:
        # re-solve with the curtailment baked in so voltages are consistent
        load = np.array([b.load_p for b in defended.buses])
        kept = np.divide(served.served[0], load, out=np.zeros_like(load), where=load > 0)
        shed = np.where(plan.dead, 1.0, np.where(load > 0, 1.0 - kept, 0.0))
        solutions.append(power_flow(defended.with_shed(
            {b.id: s for b, s in zip(defended.buses, shed.tolist())})))
    for solution in solutions:
        if not solution.converged:
            flags.add(FLAG_NON_CONVERGENCE)
        if solution.undervoltage_buses:
            flags.add(FLAG_UNDERVOLTAGE)

    cards, empty = plan.metrics(served)
    if empty[0].any():
        flags.add(FLAG_EMPTY_DENOMINATOR)
    return ResilienceScorecard(*cards[0].tolist(), flags=frozenset(flags))


# -- compiled pairs --------------------------------------------------------

def _seq_sum(x: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the last axis: the order Python's sum() adds in."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1]


def _clamped_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """min(1, max(0, num/den)) where den > 0, else 1: the LSR and CLR rule."""
    ok = den > 0
    ratio = np.divide(num, den, out=np.zeros_like(num), where=ok)
    return np.where(ok, np.minimum(1.0, np.maximum(0.0, ratio)), 1.0)


def _check_energized_radial(state: NetworkState) -> None:
    """The RadialityError power_flow would raise on this state, if any."""
    for comp in topology.islands(state):
        if topology.is_energized(state, comp):
            topology.check_radial(state, comp)


@dataclass(frozen=True, eq=False)
class _DerIsland:
    """An energized island without the slack bus: DERs alone serve it."""

    members: np.ndarray    # bus positions, ordered by bus id
    critical: np.ndarray   # per member
    capacity: float        # online DER output, kW
    rating_total: float    # online DER rating, kW
    ders: tuple            # (DER position, output kW, rating kW) per online DER


@dataclass(frozen=True, eq=False)
class ServedLoads:
    """What ``serve_loads`` served, per run (row) and bus or DER (column)."""

    demand: np.ndarray        # perturbed base load per bus, kW: the LSR/CLR denominators
    served: np.ndarray        # served load per bus, kW
    der_utilized: np.ndarray  # utilised output per DER, kW
    curtailed: np.ndarray     # per run: some DER island fell short of its demand


@dataclass(frozen=True, eq=False)
class PairPlan:
    """One (attack, defense) cell resolved on the unperturbed feeder.

    Topology, DER states, shed_fraction targets and TSS do not depend on the
    loads, so they are fixed here. What does depend on them is replayed per
    run by ``serve_loads`` and ``metrics``: the attack's load scaling, the
    shed_threshold masks, the DER-island curtailment and DER utilisation
    shares, and the LSR and CLR denominators. Voltages never reach a score,
    so no flow is solved.
    """

    load_p: np.ndarray      # base active load per bus position, kW
    critical: np.ndarray    # positions of critical buses
    scalings: tuple         # (bus positions, factor) per scale_load, in effect order
    shed: np.ndarray        # base shed fraction per bus position
    shed_steps: tuple       # (kind, bus positions or None, value) in effect order
    dead: np.ndarray        # bus sits in a de-energized island
    der_islands: tuple      # _DerIsland per island the slack does not feed
    der_fixed: np.ndarray   # utilised kW per DER that no DER island holds
    der_available: float
    tss: float

    def metrics(self, served: ServedLoads) -> tuple[np.ndarray, np.ndarray]:
        """LSR, CLR, TSS and DRS per run, shape (runs, 4), and a mask of the
        same shape that marks each metric whose denominator is empty.

        LSR and CLR are the served shares of all and of critical demand, TSS
        the share of buses in energized islands, DRS utilised over available
        DER output; each is clamped to [0, 1], and an empty denominator reads
        1 for LSR and CLR and 0 for DRS. Sums run left to right, bus order.
        """
        runs = served.demand.shape[0]
        crit = self.critical
        demand = _seq_sum(served.demand)
        crit_demand = _seq_sum(served.demand[:, crit])
        lsr_v = _clamped_ratio(_seq_sum(served.served), demand)
        clr_v = _clamped_ratio(_seq_sum(served.served[:, crit]), crit_demand)
        if self.der_available <= 0:
            drs_v = np.zeros(runs)
        else:
            utilized = _seq_sum(served.der_utilized)
            drs_v = np.minimum(1.0, np.maximum(0.0, utilized / self.der_available))
        cards = np.column_stack([lsr_v, clr_v, np.full(runs, self.tss), drs_v])
        empty = np.column_stack([demand <= 0, crit_demand <= 0, np.zeros(runs, dtype=bool),
                                 np.full(runs, self.der_available <= 0)])
        return cards, empty

    def scores(self, multipliers, weights) -> np.ndarray:
        """Unified score per row of load multipliers, shape (runs, buses).

        Each score equals ``unified_score(evaluate_pair(perturbed, a, d),
        weights)`` bit for bit, where ``perturbed`` scales every bus load by
        its multiplier.
        """
        cards, _ = self.metrics(serve_loads(self, multipliers))
        return np.array([float(weights.w @ card) for card in cards])


# serve_loads stays a module global: the benchmark's tracer wraps it here
def serve_loads(plan: PairPlan, multipliers) -> ServedLoads:
    """Serve each row of load multipliers, shape (runs, buses), on the plan.

    The policy is energy-balance based. De-energized islands serve nothing.
    Energized islands serve the post-shedding demand, except that an
    island the slack does not feed, whose online DER output falls short,
    curtails non-critical load proportionally first, then critical load,
    until demand fits the output.
    """
    perturbed = plan.load_p * np.asarray(multipliers, dtype=float)
    runs = perturbed.shape[0]
    loads = perturbed.copy()
    for idx, factor in plan.scalings:
        loads[:, idx] = loads[:, idx] * factor
    shed = np.repeat(plan.shed[None, :], runs, axis=0)
    for kind, idx, value in plan.shed_steps:
        if kind == "shed_threshold":
            shed[loads > value] = 1.0
        else:
            shed[:, idx] = value

    served = loads * (1.0 - shed)
    served[:, plan.dead] = 0.0
    utilized = np.repeat(plan.der_fixed[None, :], runs, axis=0)
    curtailed = np.zeros(runs, dtype=bool)
    for isl in plan.der_islands:
        demand = served[:, isl.members]
        factors = _curtail_factors(demand, isl.critical, isl.capacity)
        curtailed |= (factors < 1.0).any(axis=1)
        kept = demand * factors
        served[:, isl.members] = kept
        total = _seq_sum(kept)
        for k, output, rating in isl.ders:
            share = total * rating / isl.rating_total if isl.rating_total else 0.0
            utilized[:, k] = np.minimum(output, share)
    return ServedLoads(demand=perturbed, served=served, der_utilized=utilized,
                       curtailed=curtailed)


def _curtail_factors(demand: np.ndarray, critical: np.ndarray, capacity: float) -> np.ndarray:
    """Per-run, per-member serving factors of a DER island with ``capacity`` kW.

    Non-critical demand scales down first; critical demand is touched only
    when the capacity cannot even cover the critical total.
    """
    crit = _seq_sum(demand[:, critical])
    noncrit = _seq_sum(demand[:, ~critical])
    fits = crit + noncrit <= capacity
    crit_fits = ~fits & (crit <= capacity)
    # both branches are computed for every run; np.where keeps the valid one
    with np.errstate(all="ignore"):
        nc_factor = np.where(noncrit > 0, (capacity - crit) / noncrit, 0.0)
        crit_factor = np.where(crit > 0, capacity / crit, 0.0)
    f_crit = np.where(fits | crit_fits, 1.0, crit_factor)
    f_non = np.where(fits, 1.0, np.where(crit_fits, nc_factor, 0.0))
    return np.where(critical, f_crit[:, None], f_non[:, None])


def compile_pair(base: NetworkState, attack: AttackAction,
                 defense: DefenseAction) -> PairPlan:
    """Resolve one attack-defense cell once, to score many load vectors.

    Raises what ``evaluate_pair`` raises on any load vector, in the same
    order: RadialityError for a loop in an energized island of the base,
    then every CatalogError of the attack and the defense, then
    RadialityError for a loop the defense left.
    """
    _check_energized_radial(base)
    defended = apply_defense(apply_attack(base, attack), defense)
    _check_energized_radial(defended)
    return _plan(base, attack, defense, defended)


def _plan(base: NetworkState, attack: AttackAction, defense: DefenseAction,
          defended: NetworkState) -> PairPlan:
    """The plan of a cell whose attack and defense already made ``defended``."""
    pos = {b.id: i for i, b in enumerate(base.buses)}

    def positions(buses) -> np.ndarray:
        return np.array([pos[b] for b in buses], dtype=np.int64)

    scalings = tuple(
        (positions(_resolve_buses(base, attack.id, e.target)),
         1.0 if e.value is None else float(e.value))
        for e in attack.effects if e.kind == "scale_load")
    shed_steps = []
    for e in defense.effects:
        if e.kind == "shed_fraction":
            shed_steps.append((e.kind, positions(_resolve_buses(base, defense.id, e.target)),
                               0.0 if e.value is None else float(e.value)))
        elif e.kind == "shed_threshold":
            shed_steps.append((e.kind, None, float(e.value)))

    der_pos = {d.id: k for k, d in enumerate(defended.ders)}
    der_fixed = np.zeros(len(defended.ders))
    dead = np.zeros(len(base.buses), dtype=bool)
    der_islands = []
    for comp in topology.islands(defended):
        if not topology.is_energized(defended, comp):
            dead[positions(comp)] = True
            continue
        island_ders = topology.online_ders_in(defended, comp)
        if defended.slack_bus in comp:
            for d in island_ders:
                der_fixed[der_pos[d.id]] = d.output_kw()
            continue
        members = sorted(comp)
        der_islands.append(_DerIsland(
            members=positions(members),
            critical=np.array([defended.buses[pos[b]].is_critical for b in members]),
            capacity=sum(d.output_kw() for d in island_ders),
            rating_total=sum(d.rating_p for d in island_ders),
            ders=tuple((der_pos[d.id], d.output_kw(), d.rating_p) for d in island_ders),
        ))

    return PairPlan(
        load_p=np.array([b.load_p for b in base.buses]),
        critical=positions(b.id for b in base.buses if b.is_critical),
        scalings=scalings,
        shed=np.array([base.shed(b.id) for b in base.buses]),
        shed_steps=tuple(shed_steps),
        dead=dead,
        der_islands=tuple(der_islands),
        der_fixed=der_fixed,
        der_available=sum(d.output_kw() for d in defended.ders),
        tss=int((~dead).sum()) / len(base.buses),
    )
