"""Attack and defense catalogs as declarative network transformations.

Ten attacks and ten defenses, each an ordered list of primitive effects over
the network state. Applying an action is pure: the input state is never
touched. The pair-evaluation pipeline runs pre-attack flow, attack, defense,
post-defense flow, then scores the outcome. ``compile_pair`` resolves one
pair once and scores it for many load vectors at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CatalogError
from .netmodel import CLOSED, OPEN, NetworkState, power_flow, serve_loads, topology
from .resilience import (
    FLAG_NON_CONVERGENCE,
    FLAG_UNDERVOLTAGE,
    ResilienceScorecard,
    clr,
    drs,
    lsr,
    tss,
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


@dataclass(frozen=True)
class AttackAction:
    id: str
    label: str
    effects: tuple[Effect, ...]

    def __post_init__(self):
        for eff in self.effects:
            if eff.kind not in ATTACK_KINDS:
                raise CatalogError(f"{self.id}: unknown attack effect kind {eff.kind!r}")


@dataclass(frozen=True)
class DefenseAction:
    id: str
    label: str
    effects: tuple[Effect, ...]

    def __post_init__(self):
        for eff in self.effects:
            if eff.kind not in DEFENSE_KINDS:
                raise CatalogError(f"{self.id}: unknown defense effect kind {eff.kind!r}")


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
    base = catalog_default()
    version = obj.get("version", CATALOG_VERSION)

    if obj.get("replace", False):
        att = tuple(_parse_action(e, AttackAction, path)
                    for e in obj.get("attacks", []))
        dfn = tuple(_parse_action(e, DefenseAction, path)
                    for e in obj.get("defenses", []))
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
    for entry in obj.get("attacks", []):
        act = _parse_action(entry, AttackAction, path)
        if act.id not in attacks:
            raise CatalogError(f"{path}: unknown attack id {act.id!r}")
        attacks[act.id] = act
    for entry in obj.get("defenses", []):
        act = _parse_action(entry, DefenseAction, path)
        if act.id not in defenses:
            raise CatalogError(f"{path}: unknown defense id {act.id!r}")
        defenses[act.id] = act
    return ScenarioCatalog(
        attacks=tuple(attacks[a.id] for a in base.attacks),
        defenses=tuple(defenses[d.id] for d in base.defenses),
        version=version,
    )


def _parse_action(entry: dict, cls, path):
    try:
        effects = tuple(Effect.from_json(e) for e in entry.get("effects", []))
        return cls(id=entry["id"], label=entry.get("label", entry["id"]), effects=effects)
    except KeyError as exc:
        raise CatalogError(f"{path}: action entry missing field {exc}") from exc


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
class PairPlan:
    """One (attack, defense) cell resolved on the unperturbed feeder.

    Topology, DER states, shed_fraction targets and TSS do not depend on the
    loads, so they are fixed here. What does depend on them is replayed per
    run by ``scores``: the attack's load scaling, the shed_threshold masks,
    the DER-island curtailment and DER utilisation shares, and the LSR and
    CLR denominators. Voltages never reach a score, so no flow is solved.
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

    def scores(self, multipliers, weights) -> np.ndarray:
        """Unified score per row of load multipliers, shape (runs, buses).

        Each score equals ``unified_score(evaluate_pair(perturbed, a, d),
        weights)`` bit for bit, where ``perturbed`` scales every bus load by
        its multiplier: sums run left to right in the scalar code's order,
        and the clamps and empty-denominator rules are the scalar ones.
        """
        perturbed = self.load_p * np.asarray(multipliers, dtype=float)
        runs = perturbed.shape[0]
        loads = perturbed.copy()
        for idx, factor in self.scalings:
            loads[:, idx] = loads[:, idx] * factor
        shed = np.repeat(self.shed[None, :], runs, axis=0)
        for kind, idx, value in self.shed_steps:
            if kind == "shed_threshold":
                shed[loads > value] = 1.0
            else:
                shed[:, idx] = value

        served = loads * (1.0 - shed)
        served[:, self.dead] = 0.0
        utilized = np.repeat(self.der_fixed[None, :], runs, axis=0)
        for isl in self.der_islands:
            demand = served[:, isl.members]
            kept = demand * _curtail_factors(demand, isl.critical, isl.capacity)
            served[:, isl.members] = kept
            total = _seq_sum(kept)
            for k, output, rating in isl.ders:
                share = total * rating / isl.rating_total if isl.rating_total else 0.0
                utilized[:, k] = np.minimum(output, share)

        lsr_v = _clamped_ratio(_seq_sum(served), _seq_sum(perturbed))
        crit = self.critical
        clr_v = _clamped_ratio(_seq_sum(served[:, crit]), _seq_sum(perturbed[:, crit]))
        if self.der_available <= 0:
            drs_v = np.zeros(runs)
        else:
            drs_v = np.minimum(1.0, np.maximum(0.0, _seq_sum(utilized) / self.der_available))
        cards = np.column_stack([lsr_v, clr_v, np.full(runs, self.tss), drs_v])
        return np.array([float(weights.w @ card) for card in cards])


def _curtail_factors(demand: np.ndarray, critical: np.ndarray, capacity: float) -> np.ndarray:
    """Per-run, per-member serving factors of ``serve._curtail_factors``."""
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
        tss=tss(defended),
    )
