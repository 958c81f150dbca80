"""Attack and defense catalogs as declarative network transformations.

An action is an ordered list of primitive effects over the network state;
the bundled catalog, ten attacks and ten defenses, is the JSON document
``data/catalog_default.json``, read as a user's ``--catalog`` is. Applying
an action is pure: the input state is never touched. ``compile_pair``
resolves one pair once into a ``PairPlan``, which serves the loads
(``serve_loads``) and scores the served state (LSR, CLR, TSS, DRS) for many
load vectors at a time; ``compile_catalog`` makes a command's plan table.
``evaluate_pair`` scores one cell through its plan and runs the power flows
that set the cell's voltage flags, which only ``payoff`` writes.  Both
walk the catalog through ``payoff_rows``: the cells of one attack share an
``AttackRow``, which applies the attack once, and every cell shares the
base feeder's ``BaseTables``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CatalogError, number, read_json
from .netmodel import CLOSED, OPEN, NetworkState, power_flow, topology
from .resilience import (
    FLAG_EMPTY_DENOMINATOR,
    FLAG_NON_CONVERGENCE,
    FLAG_UNDERVOLTAGE,
    ResilienceScorecard,
    float_sum,
    left_sum,
)

ATTACK_KINDS = frozenset(
    {"trip_line", "trip_der", "open_switch", "close_switch", "scale_load", "fdi_bias"})
DEFENSE_KINDS = frozenset(
    {"close_switch", "companion_open", "set_der_dispatch", "shed_fraction", "shed_threshold"})

CATALOG_VERSION = "default-1"

# the amount an effect of these kinds applies when its value is left out
DEFAULT_AMOUNTS = {"scale_load": 1.0, "set_der_dispatch": 1.0, "shed_fraction": 0.0}


@dataclass(frozen=True)
class Effect:
    kind: str
    # bus id, "a-b" line endpoints, switch/DER id, "*", "non-critical",
    # or a list of bus ids; None for network-wide effects
    target: object = None
    value: float | None = None

    def __post_init__(self):
        # a document's kind may be any JSON value, a list too; the action's
        # _check_effects rejects an unknown one
        if self.value is None and isinstance(self.kind, str):
            object.__setattr__(self, "value", DEFAULT_AMOUNTS.get(self.kind))

    def to_json(self) -> dict:
        tgt = list(self.target) if isinstance(self.target, tuple) else self.target
        return {"kind": self.kind, "target": tgt, "value": self.value}

    @classmethod
    def from_json(cls, obj: dict) -> "Effect":
        tgt = obj.get("target")
        if isinstance(tgt, list):
            tgt = tuple(tgt)
        return cls(kind=obj["kind"], target=tgt, value=obj.get("value"))


def _bus_id(t) -> bool:
    """A whole number: an int, or a float with no fractional part."""
    try:
        number(t, "bus id", CatalogError, whole=True)
    except CatalogError:
        return False
    return True


def _line_endpoints(target) -> tuple[int, int] | None:
    """The bus pair of a line target, ``"a-b"`` or ``[a, b]`` with integral
    ends; None for any other target."""
    if isinstance(target, tuple):
        if len(target) == 2 and all(map(_bus_id, target)):
            return int(target[0]), int(target[1])
    elif isinstance(target, str):
        a, _, b = target.partition("-")
        try:
            return int(a), int(b)
        except ValueError:
            pass
    return None


# per effect kind: a test of the target's shape, and that shape in words
_LINE = (lambda t: _line_endpoints(t) is not None,
         'a line, "a-b" or [a, b] with integer bus ids')
_SWITCH = (lambda t: isinstance(t, str), "a switch id string")
_DER = (lambda t: isinstance(t, str) or _bus_id(t), '"*", a DER id or an integer bus id')
_BUSES = (lambda t: t in ("*", "non-critical") or _bus_id(t)
          or isinstance(t, tuple) and all(map(_bus_id, t)),
          '"*", "non-critical", an integer bus id or a list of them')
_TARGET_SHAPES = {"trip_line": _LINE, "companion_open": _LINE,
                  "open_switch": _SWITCH, "close_switch": _SWITCH,
                  "trip_der": _DER, "fdi_bias": _DER, "set_der_dispatch": _DER,
                  "scale_load": _BUSES, "shed_fraction": _BUSES,
                  "shed_threshold": (lambda t: True, "anything")}


def _check_effects(action_id: str, effects, kinds, side: str) -> None:
    """Known kinds only; each target of the shape its kind takes; every
    value None or a number (``errors.number``); an fdi_bias takes no value,
    and a shed_threshold needs one."""
    for eff in effects:
        if not isinstance(eff.kind, str) or eff.kind not in kinds:
            raise CatalogError(f"{action_id}: unknown {side} effect kind {eff.kind!r}")
        fits, shape = _TARGET_SHAPES[eff.kind]
        if not fits(eff.target):
            raise CatalogError(
                f"{action_id}: {eff.kind} target {eff.to_json()['target']!r} is not {shape}")
        v = eff.value
        if v is None and eff.kind == "shed_threshold":
            raise CatalogError(f"{action_id}: shed_threshold needs a value")
        if v is not None and eff.kind == "fdi_bias":
            raise CatalogError(f"{action_id}: fdi_bias takes no value, got {v!r}")
        if v is not None:
            number(v, f"{action_id}: {eff.kind} value", CatalogError)


@dataclass(frozen=True)
class _Action:
    """An ordered list of effects; a subclass names its side and the effect
    kinds that side may use."""

    id: str
    label: str
    effects: tuple[Effect, ...]
    side = ""
    kinds = frozenset()

    def __post_init__(self):
        _check_effects(self.id, self.effects, self.kinds, self.side)

    def to_json(self) -> dict:
        return {"id": self.id, "label": self.label,
                "effects": [e.to_json() for e in self.effects]}


class AttackAction(_Action):
    side = "attack"
    kinds = ATTACK_KINDS


class DefenseAction(_Action):
    side = "defense"
    kinds = DEFENSE_KINDS


@dataclass(frozen=True)
class ScenarioCatalog:
    attacks: tuple[AttackAction, ...]
    defenses: tuple[DefenseAction, ...]
    version: str = CATALOG_VERSION

    def __post_init__(self):
        ids = [a.id for a in self.attacks] + [d.id for d in self.defenses]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise CatalogError(f"duplicate action ids in catalog: {dupes}")

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
        return {"version": self.version,
                "attacks": [a.to_json() for a in self.attacks],
                "defenses": [d.to_json() for d in self.defenses]}


def catalog_default() -> ScenarioCatalog:
    """The built-in ten-by-ten action catalog for the bundled 33-bus network,
    read from ``data/catalog_default.json`` as a user catalog is read."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog_default.json")
    return _read_catalog(read_json(path, CatalogError), "catalog_default.json")


def load_catalog(path) -> ScenarioCatalog:
    """Catalog from an override file; entries replace the defaults by id.

    With a top-level ``"replace": true`` (a JSON bool, false when left out)
    the listed arrays stand on their own instead: the catalog contains
    exactly the listed attacks/defenses (an absent array keeps the full
    default set for that side).  That is how a reduced scenario set, down
    to a single attack, is expressed.
    """
    obj = read_json(path, CatalogError)
    doc = _read_catalog(obj, path)
    base = catalog_default()
    try:  # an id clash between the document and the defaults is this file's too
        replace = obj.get("replace", False)
        if not isinstance(replace, bool):
            raise CatalogError(f"'replace' must be true or false, got {replace!r}")
        if replace:
            return ScenarioCatalog(attacks=doc.attacks or base.attacks,
                                   defenses=doc.defenses or base.defenses, version=doc.version)

        attacks = {a.id: a for a in base.attacks}
        defenses = {d.id: d for d in base.defenses}
        for acts, known, side in ((doc.attacks, attacks, "attack"),
                                  (doc.defenses, defenses, "defense")):
            for act in acts:
                if act.id not in known:
                    raise CatalogError(f"unknown {side} id {act.id!r}")
                known[act.id] = act
        return ScenarioCatalog(attacks=tuple(attacks.values()),
                               defenses=tuple(defenses.values()), version=doc.version)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from exc


def _read_catalog(obj, where) -> ScenarioCatalog:
    """The catalog that a parsed catalog document lists, taken as it stands;
    every error it raises starts with ``where``."""
    try:
        if not isinstance(obj, dict):
            raise CatalogError(f"top level must be an object, got {type(obj).__name__}")
        version = obj.get("version", CATALOG_VERSION)
        if not isinstance(version, str):
            raise CatalogError(f"'version' must be a string, got {version!r}")
        return ScenarioCatalog(attacks=_parse_actions(obj, "attacks", AttackAction),
                               defenses=_parse_actions(obj, "defenses", DefenseAction),
                               version=version)
    except CatalogError as exc:
        raise CatalogError(f"{where}: {exc}") from exc


def _parse_actions(obj: dict, key: str, cls) -> tuple:
    """The actions listed under ``key``: a list of objects, each with a list
    of effect objects."""
    entries = obj.get(key, [])
    if not isinstance(entries, list):
        raise CatalogError(f"{key!r} must be a list of action objects")
    actions = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise CatalogError(f"{key} entry {entry!r} is not an object")
        if not isinstance(entry.get("id", ""), str):
            raise CatalogError(f"{key} id {entry['id']!r} is not a string")
        if not isinstance(entry.get("label", ""), str):
            raise CatalogError(f"label of {entry.get('id')!r} is not a string")
        effects = entry.get("effects", [])
        if not isinstance(effects, list) or not all(isinstance(e, dict) for e in effects):
            raise CatalogError(f"effects of {entry.get('id')!r} must be a list of objects")
        try:
            actions.append(cls(id=entry["id"], label=entry.get("label", entry["id"]),
                               effects=tuple(Effect.from_json(e) for e in effects)))
        except KeyError as exc:
            raise CatalogError(f"action entry missing field {exc}") from exc
    return tuple(actions)


# -- effect resolution -----------------------------------------------------
# targets have their kind's shape (_check_effects); whether what they name
# exists depends on the network, so it is checked here, per cell

def _resolve_line(state: NetworkState, action_id: str, target):
    a, b = _line_endpoints(target)
    line = state.find_line(a, b)
    if line is None:
        raise CatalogError(f"{action_id}: no line between buses {a} and {b}")
    return line


def _resolve_switch(state: NetworkState, action_id: str, target):
    sw = state.find_switch(target)
    if sw is None:
        raise CatalogError(f"{action_id}: no tie switch {target!r}")
    return sw


def _resolve_ders(state: NetworkState, action_id: str, target) -> list[str]:
    if target == "*":
        return [d.id for d in state.ders]
    if not isinstance(target, str):
        der = state.der_at_bus(int(target))
        if der is None:
            raise CatalogError(f"{action_id}: no DER at bus {target}")
        return [der.id]
    for d in state.ders:
        if d.id == target:
            return [d.id]
    raise CatalogError(f"{action_id}: no DER {target!r}")


def _resolve_buses(state: NetworkState, action_id: str, target) -> list[int]:
    known = {b.id for b in state.buses}
    if target == "*":
        return sorted(known)
    if target == "non-critical":
        return sorted(b.id for b in state.buses if not b.is_critical)
    ids = [int(t) for t in target] if isinstance(target, tuple) else [int(target)]
    for i in ids:
        if i not in known:
            raise CatalogError(f"{action_id}: no bus {i}")
    return ids


# -- action application ----------------------------------------------------

def apply_action(state: NetworkState, action: AttackAction | DefenseAction) -> NetworkState:
    """Attacked or defended copy of the state; effects land in catalog order.

    A close_switch that would form a loop is skipped. Followed by a
    companion_open it means: close the tie, opening the companion
    sectionalizing line first only if the plain close would form a loop;
    when even that cannot restore radiality the close is skipped. Corrupted
    telemetry (fdi_bias) causes protective tripping of the DER.
    """
    s = state
    effects = action.effects
    i = 0
    while i < len(effects):
        eff = effects[i]
        i += 1
        if eff.kind == "trip_line":
            s = s.with_line_status(_resolve_line(s, action.id, eff.target).id, OPEN)
        elif eff.kind in ("trip_der", "fdi_bias"):
            for der_id in _resolve_ders(s, action.id, eff.target):
                s = s.with_der(der_id, online=False)
        elif eff.kind == "open_switch":
            s = s.with_line_status(_resolve_switch(s, action.id, eff.target).id, OPEN)
        elif eff.kind == "close_switch":
            sw = _resolve_switch(s, action.id, eff.target)
            companion = None
            if i < len(effects) and effects[i].kind == "companion_open":
                companion = effects[i]
                i += 1
            if not topology.closing_creates_loop(s, sw.from_bus, sw.to_bus):
                s = s.with_line_status(sw.id, CLOSED)
            elif companion is not None:
                line = _resolve_line(s, action.id, companion.target)
                trial = s.with_line_status(line.id, OPEN)
                if not topology.closing_creates_loop(trial, sw.from_bus, sw.to_bus):
                    s = trial.with_line_status(sw.id, CLOSED)
        elif eff.kind == "companion_open":
            raise CatalogError(
                f"{action.id}: companion_open must directly follow a close_switch")
        elif eff.kind == "scale_load":
            buses = _resolve_buses(s, action.id, eff.target)
            s = s.with_scaled_loads({b: float(eff.value) for b in buses})
        elif eff.kind == "set_der_dispatch":
            for der_id in _resolve_ders(s, action.id, eff.target):
                s = s.with_der(der_id, dispatch_fraction=float(eff.value))
        elif eff.kind == "shed_fraction":
            buses = _resolve_buses(s, action.id, eff.target)
            s = s.with_shed({b: float(eff.value) for b in buses})
        elif eff.kind == "shed_threshold":
            limit = float(eff.value)
            hit = {b.id: 1.0 for b in s.buses if b.load_p > limit}
            if hit:
                s = s.with_shed(hit)
        else:
            raise CatalogError(f"{action.id}: unknown effect kind {eff.kind!r}")
    return s


# two names for the one interpreter: a side's action checks its own kinds
# when it is made, and the benchmark's tracer wraps each name on its own
apply_attack = apply_defense = apply_action


def evaluate_pair(base: NetworkState, attack: AttackAction, defense: DefenseAction, *,
                  row: AttackRow | None = None) -> ResilienceScorecard:
    """Score one attack-defense interaction on the pristine network.

    Pipeline: pre-attack flow (steady-state sanity), attack, defense,
    post-defense flow, then the cell's plan serves the loads and scores
    them. The flows only set flags: voltages reach no metric, so the
    serving policy needs no voltage solution, converged or not. ``row``
    is the attack's row on ``base`` when the caller scores several cells
    of it (``payoff_rows``).
    """
    flags: set[str] = set()
    if not power_flow(base).converged:
        flags.add(FLAG_NON_CONVERGENCE)

    row = row if row is not None else AttackRow(BaseTables.of(base), attack)
    defended = apply_defense(row.attacked, defense)
    topology.check_energized_radial(defended)
    solutions = [power_flow(defended)]
    plan = _plan(row, defense, defended)
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

def _clamped_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """min(1, max(0, num/den)) where den > 0, else 1: the LSR and CLR rule."""
    ok = den > 0
    ratio = np.divide(num, den, out=np.zeros_like(num), where=ok)
    return np.where(ok, np.minimum(1.0, np.maximum(0.0, ratio)), 1.0)


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
        demand = left_sum(served.demand)
        crit_demand = left_sum(served.demand[:, crit])
        lsr_v = _clamped_ratio(left_sum(served.served), demand)
        clr_v = _clamped_ratio(left_sum(served.served[:, crit]), crit_demand)
        if self.der_available <= 0:
            drs_v = np.zeros(runs)
        else:
            utilized = left_sum(served.der_utilized)
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
        return left_sum(cards * weights.w)


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
        total = left_sum(kept)
        for k, output, rating in isl.ders:
            share = 0.0
            if isl.rating_total:  # where a rating near the float limit overflows, divide first
                with np.errstate(over="ignore", invalid="ignore"):
                    share = total * rating / isl.rating_total
                share = np.where(np.isfinite(share), share, total * (rating / isl.rating_total))
            utilized[:, k] = np.minimum(output, share)
    return ServedLoads(demand=perturbed, served=served, der_utilized=utilized,
                       curtailed=curtailed)


def _curtail_factors(demand: np.ndarray, critical: np.ndarray, capacity: float) -> np.ndarray:
    """Per-run, per-member serving factors of a DER island with ``capacity`` kW.

    Non-critical demand scales down first; critical demand is touched only
    when the capacity cannot even cover the critical total.
    """
    crit = left_sum(demand[:, critical])
    noncrit = left_sum(demand[:, ~critical])
    fits = crit + noncrit <= capacity
    crit_fits = ~fits & (crit <= capacity)
    # both branches are computed for every run; np.where keeps the valid one
    with np.errstate(all="ignore"):
        nc_factor = np.where(noncrit > 0, (capacity - crit) / noncrit, 0.0)
        crit_factor = np.where(crit > 0, capacity / crit, 0.0)
    f_crit = np.where(fits | crit_fits, 1.0, crit_factor)
    f_non = np.where(fits, 1.0, np.where(crit_fits, nc_factor, 0.0))
    return np.where(critical, f_crit[:, None], f_non[:, None])


@dataclass(frozen=True, eq=False)
class BaseTables:
    """What every cell on one base feeder shares: its per-bus tables, and
    the bus positions of each bus target, resolved the first time a cell
    asks. None of the arrays is ever written."""

    state: NetworkState
    load_p: np.ndarray       # active load per bus position, kW
    critical: np.ndarray     # per bus position
    critical_at: np.ndarray  # positions of critical buses
    shed: np.ndarray         # shed fraction per bus position
    targets: dict            # bus target -> bus positions

    @classmethod
    def of(cls, state: NetworkState) -> "BaseTables":
        critical = np.array([b.is_critical for b in state.buses], dtype=bool)
        tables = [np.array([b.load_p for b in state.buses]), critical,
                  np.flatnonzero(critical), np.array([state.shed(b.id) for b in state.buses])]
        for a in tables:
            a.flags.writeable = False
        return cls(state, *tables, targets={})

    def positions(self, action_id: str, target) -> np.ndarray:
        if target not in self.targets:
            pos = self.state._grid.pos
            at = np.array([pos[b] for b in _resolve_buses(self.state, action_id, target)],
                          dtype=np.int64)
            at.flags.writeable = False
            self.targets[target] = at
        return self.targets[target]


@dataclass(eq=False)
class AttackRow:
    """One attack on one base feeder: what every cell of the attack's row
    of the payoff matrix shares."""

    base: BaseTables
    attack: AttackAction

    @cached_property
    def attacked(self) -> NetworkState:
        """The attacked state, made when a cell first asks, after the check
        of the base's energized islands."""
        topology.check_energized_radial(self.base.state)
        return apply_attack(self.base.state, self.attack)

    @cached_property
    def scalings(self) -> tuple:
        return tuple((self.base.positions(self.attack.id, e.target), float(e.value))
                     for e in self.attack.effects if e.kind == "scale_load")


def compile_pair(base: NetworkState, attack: AttackAction,
                 defense: DefenseAction, *, row: AttackRow | None = None) -> PairPlan:
    """Resolve one attack-defense cell once, to score many load vectors.

    Raises what ``evaluate_pair`` raises on any load vector, in the same
    order: RadialityError for a loop in an energized island of the base,
    then every CatalogError of the attack and the defense, then
    RadialityError for a loop the defense left. ``row`` is the attack's row
    on ``base`` when the caller compiles several cells of it.
    """
    row = row if row is not None else AttackRow(BaseTables.of(base), attack)
    defended = apply_defense(row.attacked, defense)
    topology.check_energized_radial(defended)
    return _plan(row, defense, defended)


def compile_catalog(base: NetworkState, catalog: ScenarioCatalog) -> tuple:
    """The plan of every cell, one row of plans per attack, in catalog order."""
    return payoff_rows(compile_pair, base, catalog)


def payoff_rows(resolve, base: NetworkState, catalog: ScenarioCatalog) -> tuple:
    """``resolve(base, attack, defense, row=row)`` for every cell, one row
    per attack in catalog order. The cells of a row share its ``AttackRow``,
    so each attack is applied once, in the row's first cell; every error
    names its cell."""
    tables = BaseTables.of(base)
    rows = []
    for attack in catalog.attacks:
        row = AttackRow(tables, attack)
        rows.append(tuple(payoff_cell(resolve, base, attack, d, row=row)
                          for d in catalog.defenses))
    return tuple(rows)


def payoff_cell(resolve, base, attack, defense, **kwargs):
    """``resolve(base, attack, defense, **kwargs)``; an error it raises names the cell."""
    try:
        return resolve(base, attack, defense, **kwargs)
    except Exception as exc:
        raise type(exc)(f"payoff cell ({attack.id},{defense.id}): {exc}") from exc


def _plan(row: AttackRow, defense: DefenseAction, defended: NetworkState) -> PairPlan:
    """The plan of the cell of ``defense`` in ``row``, whose defense made
    ``defended``, every energized island of it a tree."""
    base = row.base
    shed_steps = tuple(
        (e.kind, base.positions(defense.id, e.target) if e.kind == "shed_fraction" else None,
         float(e.value))
        for e in defense.effects if e.kind in ("shed_fraction", "shed_threshold"))

    isls, labels = topology.connectivity(defended)
    dead = ~np.array([isl.energized for isl in isls])[labels]
    by_id = defended._grid.by_id
    der_at = {d.id: (k, d.output_kw(), d.rating_p) for k, d in enumerate(defended.ders)}
    der_fixed = np.zeros(len(defended.ders))
    der_islands = []
    for idx, isl in enumerate(isls):
        if not isl.energized:
            continue
        ders = tuple(der_at[der_id] for der_id in isl.ders)
        if defended.slack_bus in isl.buses:
            for k, output, _rating in ders:
                der_fixed[k] = output
            continue
        members = by_id[labels[by_id] == idx]
        der_islands.append(_DerIsland(
            members=members,
            critical=base.critical[members],
            capacity=float_sum(output for _k, output, _rating in ders),
            rating_total=float_sum(rating for _k, _output, rating in ders),
            ders=ders,
        ))

    return PairPlan(
        load_p=base.load_p,
        critical=base.critical_at,
        scalings=row.scalings,
        shed=base.shed,
        shed_steps=shed_steps,
        dead=dead,
        der_islands=tuple(der_islands),
        der_fixed=der_fixed,
        der_available=float_sum(d.output_kw() for d in defended.ders),
        tss=int((~dead).sum()) / len(base.load_p),
    )
