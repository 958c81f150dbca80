"""Attack and defense catalogs as declarative network transformations.

An action is an ordered list of primitive effects over the network state;
the bundled catalog, ten attacks and ten defenses, is the JSON document
``data/catalog_default.json``, read as a user's ``--catalog`` is. Applying
an action is pure: the input state is never touched. ``compile_pair``
resolves one pair once into a one-cell ``PlanTable``, and
``compile_catalog`` merges every cell of a catalog into a command's table,
stacked into arrays over cells: ``serve_loads`` serves any runs of any
cells in one array pass, and ``PlanTable.metrics`` scores the served
states (LSR, CLR, TSS, DRS). ``evaluate_pair`` reads a cell's scorecard
from the table's pass on unperturbed loads and runs the power flows that
set the cell's voltage flags, which only ``payoff`` writes; ``solve_row``
solves the flows of a row of cells in one sweep call beforehand, so those
flows return stored solutions. The cells of
one attack share an ``AttackRow``, which applies the attack once, and
every cell shares the base feeder's ``BaseTables``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CatalogError, number, read_json
from .netmodel import CLOSED, OPEN, NetworkState, power_flow, solve_flows, topology
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
                  table: PlanTable | None = None, cell: int = 0,
                  served_state: NetworkState | None = None) -> ResilienceScorecard:
    """Score one attack-defense interaction on the pristine network, with
    the flags of its power flows.

    The scorecard is the cell's row of its plan table's pass on unperturbed
    loads (``PlanTable.nominal``). The flows only set flags, since no
    voltage reaches a metric: the pre-attack flow (steady-state sanity), the
    post-defense flow and, where the serving policy curtails a DER island,
    a flow of the served state. ``table`` holds the pair as its cell
    ``cell`` when the caller scores several cells (``build_payoff_matrix``);
    without it the pair is compiled here. ``served_state`` is the cell's
    served state when the caller has made it (``solve_row``); without it a
    curtailed cell makes its own.
    """
    if table is None:
        table, cell = compile_pair(base, attack, defense), 0
    served, cards, empty = table.nominal
    flags: set[str] = set()
    if not power_flow(base).converged:
        flags.add(FLAG_NON_CONVERGENCE)

    solutions = [power_flow(table.cells[cell].defended)]
    if served.curtailed[cell]:
        solutions.append(power_flow(
            served_state if served_state is not None else _served_state(table, cell)))
    for solution in solutions:
        if not solution.converged:
            flags.add(FLAG_NON_CONVERGENCE)
        if solution.undervoltage_buses:
            flags.add(FLAG_UNDERVOLTAGE)

    if empty[cell].any():
        flags.add(FLAG_EMPTY_DENOMINATOR)
    return ResilienceScorecard(*cards[cell].tolist(), flags=frozenset(flags))


def _served_state(table: PlanTable, cell: int) -> NetworkState:
    """The defended state of a curtailed cell with the curtailment baked in,
    so its voltages are consistent with what was served: each bus sheds what
    the pass on unperturbed loads did not serve, and a dead bus all of it."""
    defended = table.cells[cell].defended
    load = np.array([b.load_p for b in defended.buses])
    kept = np.divide(table.nominal[0].served[cell], load, out=np.zeros_like(load),
                     where=load > 0)
    shed = np.where(table.cells[cell].dead, 1.0, np.where(load > 0, 1.0 - kept, 0.0))
    return defended.with_shed({b.id: s for b, s in zip(defended.buses, shed.tolist())})


def solve_row(table: PlanTable, cells) -> list:
    """Solve the power flows of ``evaluate_pair`` for ``cells`` (one row of
    the payoff matrix) in one ``solve_flows`` call, which stores each
    solution on its state: the base feeder, each cell's defended state, and
    the served state of each cell the serving policy curtails.

    Returns each cell's served state, or None where nothing is curtailed, to
    pass to ``evaluate_pair``. A served state is made once, from its
    defended state, whose numbering it shares.
    """
    defended = [table.cells[c].defended for c in cells]
    curtailed = table.nominal[0].curtailed
    served = [_served_state(table, c) if curtailed[c] else None for c in cells]
    solve_flows([table.base.state, *defended, *(s for s in served if s is not None)])
    return served


# -- the plan table --------------------------------------------------------

# PlanTable.scores serves its runs in passes of SERVE_ENTRIES (run, bus) entries
# or 1/SERVE_SPLIT of the runs, whichever is more: a pass's arrays stay small
# beside the (runs, buses) multipliers the runs were drawn with
SERVE_ENTRIES = 16384
SERVE_SPLIT = 32


def _clamped_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """min(1, max(0, num/den)) where den > 0, else 1: the LSR and CLR rule."""
    ok = den > 0
    ratio = np.divide(num, den, out=np.zeros_like(num), where=ok)
    return np.where(ok, np.minimum(1.0, np.maximum(0.0, ratio)), 1.0)


@dataclass(frozen=True, eq=False)
class _DerIsland:
    """An energized island without the slack bus: DERs alone serve it."""

    members: np.ndarray    # bus positions, ordered by bus id
    capacity: float        # online DER output, kW
    rating_total: float    # online DER rating, kW
    ders: tuple            # (DER position, output kW, rating kW) per online DER


@dataclass(frozen=True, eq=False)
class _Cell:
    """One (attack, defense) cell resolved on the unperturbed feeder.

    Topology, DER states, shed_fraction targets and TSS do not depend on
    the loads, so they are fixed here."""

    defended: NetworkState  # the defended state, which payoff's flows solve
    scalings: tuple         # (bus positions, factor) per scale_load, in effect order
    shed_steps: tuple       # (kind, bus positions or None, value) in effect order
    dead: np.ndarray        # bus sits in a de-energized island
    der_islands: tuple      # _DerIsland per island the slack does not feed
    der_fixed: np.ndarray   # utilised kW per DER that no DER island holds
    der_available: float
    tss: float


@dataclass(frozen=True, eq=False)
class ServedLoads:
    """What ``serve_loads`` served, per run (row) and bus or DER (column)."""

    demand: np.ndarray        # perturbed base load per bus, kW: the LSR/CLR denominators
    served: np.ndarray        # served load per bus, kW
    der_utilized: np.ndarray  # utilised output per DER, kW
    curtailed: np.ndarray     # per run: some DER island fell short of its demand


@dataclass(frozen=True, eq=False)
class PlanTable:
    """Attack-defense cells resolved on the unperturbed feeder, to serve and
    score any runs of any cells in one array pass.

    Each cell fixes what does not depend on the loads (``_Cell``). What does
    is replayed per run by ``serve_loads`` and ``metrics``: the attack's
    load scaling, the shed_threshold masks, the DER-island curtailment and
    DER utilisation shares, and the LSR and CLR denominators. Both read the
    cells stacked into arrays over cells (``stacked``), made when a pass
    first asks, so a one-cell table that ``compile_catalog`` merges into
    its own is never stacked. Voltages never reach a score, so no flow is
    solved.
    """

    base: BaseTables
    cells: tuple  # _Cell per cell

    @cached_property
    def stacked(self) -> _Stacked:
        return _Stacked.of(self)

    @cached_property
    def nominal(self) -> tuple:
        """(ServedLoads, scorecards, empty mask) of one pass over every
        cell on its unperturbed loads; row k is cell k."""
        cells = np.arange(len(self.cells))
        served = serve_loads(self, cells, np.ones((cells.size, self.base.load_p.size)))
        return (served, *self.metrics(cells, served))

    def metrics(self, cells, served: ServedLoads) -> tuple[np.ndarray, np.ndarray]:
        """LSR, CLR, TSS and DRS of each run of ``serve_loads(self, cells,
        ...)``, shape (runs, 4), and a mask of the same shape that marks
        each metric whose denominator is empty.

        LSR and CLR are the served shares of all and of critical demand, TSS
        the share of buses in energized islands, DRS utilised over available
        DER output; each is clamped to [0, 1], and an empty denominator reads
        1 for LSR and CLR and 0 for DRS. Sums run left to right, bus order.
        """
        cells = np.asarray(cells, dtype=np.int64)
        crit = self.base.critical_at
        demand = left_sum(served.demand)
        crit_demand = left_sum(served.demand[:, crit])
        lsr_v = _clamped_ratio(left_sum(served.served), demand)
        clr_v = _clamped_ratio(left_sum(served.served[:, crit]), crit_demand)
        available = self.stacked.der_available[cells]
        no_der = available <= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            used = left_sum(served.der_utilized) / available
        drs_v = np.where(no_der, 0.0, np.minimum(1.0, np.maximum(0.0, used)))
        cards = np.column_stack([lsr_v, clr_v, self.stacked.tss[cells], drs_v])
        empty = np.column_stack([demand <= 0, crit_demand <= 0,
                                 np.zeros(cells.size, dtype=bool), no_der])
        return cards, empty

    def scores(self, cells, multipliers, weights) -> np.ndarray:
        """Unified score of each run: run r scores cell ``cells[r]`` on the
        base loads times ``multipliers[r]``, shape (runs, buses).

        Each score equals ``unified_score(evaluate_pair(perturbed, a, d),
        weights)`` bit for bit, where ``perturbed`` scales every bus load by
        its multiplier. The runs are served a slice at a time
        (``SERVE_ENTRIES``, ``SERVE_SPLIT``).
        """
        cells = np.asarray(cells, dtype=np.int64)
        multipliers = np.asarray(multipliers, dtype=float)
        out = np.empty(cells.size)
        chunk = max(1, SERVE_ENTRIES // self.base.load_p.size, cells.size // SERVE_SPLIT)
        for at in range(0, cells.size, chunk):
            part = slice(at, at + chunk)
            cards, _ = self.metrics(cells[part], serve_loads(self, cells[part], multipliers[part]))
            out[part] = left_sum(cards * weights.w)
        return out


@dataclass(frozen=True, eq=False)
class _Stacked:
    """A table's cells as arrays over cells (first axis), each padded to
    the largest cell: a padded scaling multiplies by 1.0, a padded shedding
    step sheds nothing, a padded island member is bus column ``n_buses``
    (one zero column past the last bus) and a padded DER is DER column
    ``n_ders``, which ``serve_loads`` drops."""

    dead: np.ndarray           # (cells, buses)
    tss: np.ndarray            # (cells,)
    der_available: np.ndarray  # (cells,)
    der_fixed: np.ndarray      # (cells, ders + 1)
    scalings: np.ndarray       # (cells,): scale_load effects of the cell's attack
    scale: np.ndarray          # (cells, scalings, buses): factor per bus, 1.0 where none
    threshold: np.ndarray      # (cells, steps): the shedding step is a shed_threshold
    fraction: np.ndarray       # (cells, steps): the shedding step is a shed_fraction
    shed_at: np.ndarray        # (cells, steps, buses): a shed_fraction's buses
    shed_value: np.ndarray     # (cells, steps): a threshold's limit or a fraction's value
    islands: np.ndarray        # (cells,): DER islands of the cell
    sizes: np.ndarray          # (cells, islands): members of each island
    members: np.ndarray        # (cells, islands, members): bus positions in bus-id order
    critical: np.ndarray       # (cells, islands, members)
    capacity: np.ndarray       # (cells, islands): online DER output, kW
    rating_total: np.ndarray   # (cells, islands): online DER rating, kW
    der_at: np.ndarray         # (cells, islands, ders): DER positions
    der_output: np.ndarray     # (cells, islands, ders), kW
    der_rating: np.ndarray     # (cells, islands, ders), kW

    @classmethod
    def of(cls, table: PlanTable) -> "_Stacked":
        cells, base = table.cells, table.base
        n_cells, n = len(cells), base.load_p.size
        n_ders = cells[0].der_fixed.size
        isls = [isl for c in cells for isl in c.der_islands]
        n_scale = max(len(c.scalings) for c in cells)
        n_steps = max(len(c.shed_steps) for c in cells)
        n_isl = max(len(c.der_islands) for c in cells)
        width = max((isl.members.size for isl in isls), default=0)
        n_isl_ders = max((len(isl.ders) for isl in isls), default=0)

        scale = np.ones((n_cells, n_scale, n))
        threshold = np.zeros((n_cells, n_steps), dtype=bool)
        fraction = np.zeros((n_cells, n_steps), dtype=bool)
        shed_at = np.zeros((n_cells, n_steps, n), dtype=bool)
        shed_value = np.zeros((n_cells, n_steps))
        sizes = np.zeros((n_cells, n_isl), dtype=np.int64)
        members = np.full((n_cells, n_isl, width), n, dtype=np.int64)
        critical = np.zeros((n_cells, n_isl, width), dtype=bool)
        capacity = np.zeros((n_cells, n_isl))
        rating_total = np.zeros((n_cells, n_isl))
        der_at = np.full((n_cells, n_isl, n_isl_ders), n_ders, dtype=np.int64)
        der_output = np.zeros((n_cells, n_isl, n_isl_ders))
        der_rating = np.zeros((n_cells, n_isl, n_isl_ders))
        der_fixed = np.zeros((n_cells, n_ders + 1))
        for c, cell in enumerate(cells):
            for k, (at, factor) in enumerate(cell.scalings):
                scale[c, k, at] = factor
            for k, (kind, at, value) in enumerate(cell.shed_steps):
                shed_value[c, k] = value
                if kind == "shed_threshold":
                    threshold[c, k] = True
                else:
                    fraction[c, k] = True
                    shed_at[c, k, at] = True
            for k, isl in enumerate(cell.der_islands):
                sizes[c, k] = isl.members.size
                members[c, k, :isl.members.size] = isl.members
                critical[c, k, :isl.members.size] = base.critical[isl.members]
                capacity[c, k] = isl.capacity
                rating_total[c, k] = isl.rating_total
                for j, (at, output, rating) in enumerate(isl.ders):
                    der_at[c, k, j] = at
                    der_output[c, k, j] = output
                    der_rating[c, k, j] = rating
            der_fixed[c, :n_ders] = cell.der_fixed
        dead = np.array([c.dead for c in cells]).reshape(n_cells, n)
        return cls(
            dead=dead, tss=np.array([c.tss for c in cells]),
            der_available=np.array([c.der_available for c in cells]), der_fixed=der_fixed,
            scalings=np.array([len(c.scalings) for c in cells], dtype=np.int64), scale=scale,
            threshold=threshold, fraction=fraction, shed_at=shed_at, shed_value=shed_value,
            islands=np.array([len(c.der_islands) for c in cells], dtype=np.int64),
            sizes=sizes, members=members, critical=critical, capacity=capacity,
            rating_total=rating_total, der_at=der_at, der_output=der_output,
            der_rating=der_rating)


# serve_loads stays a module global: the benchmark's tracer wraps it here
def serve_loads(table: PlanTable, cells, multipliers) -> ServedLoads:
    """Serve run r on cell ``cells[r]`` of the table, with the base loads
    times the row ``multipliers[r]``, shape (runs, buses): one array pass
    over any runs of any cells.

    The policy is energy-balance based. De-energized islands serve nothing.
    Energized islands serve the post-shedding demand, except that an
    island the slack does not feed, whose online DER output falls short,
    curtails non-critical load proportionally first, then critical load,
    until demand fits the output. Each DER island slot touches only the
    runs whose cell has that island, and only its members' columns.
    """
    s = table.stacked
    cells = np.asarray(cells, dtype=np.int64)
    perturbed = table.base.load_p * np.asarray(multipliers, dtype=float)
    runs, n = perturbed.shape
    # the loads become the served loads in place; one zero column past the
    # last bus is what a padded island member reads, and its factor is 1.0
    served = np.zeros((runs, n + 1))
    loads = served[:, :n]
    loads[...] = perturbed
    for k in range(s.scale.shape[1]):
        rows = _runs(s.scalings[cells] > k)
        loads[rows] *= s.scale[cells[rows], k]
    shed = np.repeat(table.base.shed[None, :], runs, axis=0)
    for k in range(s.shed_value.shape[1]):
        rows = _runs(s.threshold[cells, k])
        shed[rows] = np.where(loads[rows] > s.shed_value[cells[rows], k, None], 1.0, shed[rows])
        rows = _runs(s.fraction[cells, k])
        shed[rows] = np.where(s.shed_at[cells[rows], k], s.shed_value[cells[rows], k, None],
                              shed[rows])
    loads *= np.subtract(1.0, shed, out=shed)
    del shed
    np.copyto(loads, 0.0, where=s.dead[cells])
    utilized = s.der_fixed[cells]
    curtailed = np.zeros(runs, dtype=bool)
    count = s.islands[cells]
    for k in range(s.members.shape[1]):
        rows = np.flatnonzero(count > k)
        at = cells[rows]
        width = s.sizes[at, k].max(initial=0)
        members = s.members[at, k, :width]
        demand = served[rows[:, None], members]
        factors = _curtail_factors(demand, s.critical[at, k, :width], members < n,
                                   s.capacity[at, k])
        curtailed[rows] |= (factors < 1.0).any(axis=1)
        kept = demand * factors
        served[rows[:, None], members] = kept
        total = left_sum(kept)[:, None]
        rating, rating_total = s.der_rating[at, k], s.rating_total[at, k, None]
        # where a rating near the float limit overflows the product, divide first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            share = total * rating / rating_total
            share = np.where(np.isfinite(share), share, total * (rating / rating_total))
        share = np.where(rating_total != 0, share, 0.0)
        utilized[rows[:, None], s.der_at[at, k]] = np.minimum(s.der_output[at, k], share)
    return ServedLoads(demand=perturbed, served=served[:, :n], der_utilized=utilized[:, :-1],
                       curtailed=curtailed)


def _runs(hit: np.ndarray):
    """The runs where ``hit`` holds: an index array, or a slice of them all,
    so that numpy works on views when every run is hit."""
    rows = np.flatnonzero(hit)
    return slice(None) if rows.size == hit.size else rows


def _curtail_factors(demand: np.ndarray, critical: np.ndarray, real: np.ndarray,
                     capacity: np.ndarray) -> np.ndarray:
    """Per-run, per-member serving factors of DER islands, one per run
    (row), with ``capacity`` kW each; a padded member (not ``real``) keeps
    1.0.

    Non-critical demand scales down first; critical demand is touched only
    when the capacity cannot even cover the critical total.
    """
    crit = left_sum(np.where(critical, demand, 0.0))
    noncrit = left_sum(np.where(critical, 0.0, demand))
    fits = crit + noncrit <= capacity
    crit_fits = ~fits & (crit <= capacity)
    # both branches are computed for every run; np.where keeps the valid one
    with np.errstate(all="ignore"):
        nc_factor = np.where(noncrit > 0, (capacity - crit) / noncrit, 0.0)
        crit_factor = np.where(crit > 0, capacity / crit, 0.0)
    f_crit = np.where(fits | crit_fits, 1.0, crit_factor)
    f_non = np.where(fits, 1.0, np.where(crit_fits, nc_factor, 0.0))
    return np.where(critical, f_crit[:, None], np.where(real, f_non[:, None], 1.0))


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
                 defense: DefenseAction, *, row: AttackRow | None = None) -> PlanTable:
    """The one-cell plan table of an attack-defense pair, to score many
    load vectors.

    Raises what ``evaluate_pair`` raises on any load vector, in the same
    order: RadialityError for a loop in an energized island of the base,
    then every CatalogError of the attack and the defense, then
    RadialityError for a loop the defense left. ``row`` is the attack's row
    on ``base`` when the caller compiles several cells of it.
    """
    row = row if row is not None else AttackRow(BaseTables.of(base), attack)
    defended = apply_defense(row.attacked, defense)
    topology.check_energized_radial(defended)
    return PlanTable(row.base, (_cell(row, defense, defended),))


def compile_catalog(base: NetworkState, catalog: ScenarioCatalog) -> PlanTable:
    """The plan table of every cell of the catalog, in (attack, defense)
    order: cell i * len(catalog.defenses) + j is (attack i, defense j).

    The cells of an attack share its ``AttackRow``, so each attack is
    applied once, in the row's first cell; every error names its cell.
    """
    tables = BaseTables.of(base)
    cells = []
    for attack in catalog.attacks:
        row = AttackRow(tables, attack)
        for defense in catalog.defenses:
            cells += payoff_cell(compile_pair, base, attack, defense, row=row).cells
    return PlanTable(tables, tuple(cells))


def payoff_cell(resolve, base, attack, defense, **kwargs):
    """``resolve(base, attack, defense, **kwargs)``; an error it raises names the cell."""
    try:
        return resolve(base, attack, defense, **kwargs)
    except Exception as exc:
        raise type(exc)(f"payoff cell ({attack.id},{defense.id}): {exc}") from exc


def _cell(row: AttackRow, defense: DefenseAction, defended: NetworkState) -> _Cell:
    """The cell of ``defense`` in ``row``, whose defense made ``defended``,
    every energized island of it a tree."""
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
        der_islands.append(_DerIsland(
            members=by_id[labels[by_id] == idx],
            capacity=float_sum(output for _k, output, _rating in ders),
            rating_total=float_sum(rating for _k, _output, rating in ders),
            ders=ders,
        ))

    return _Cell(
        defended=defended,
        scalings=row.scalings,
        shed_steps=shed_steps,
        dead=dead,
        der_islands=tuple(der_islands),
        der_fixed=der_fixed,
        der_available=float_sum(d.output_kw() for d in defended.ders),
        tss=int((~dead).sum()) / len(base.load_p),
    )
