"""Span tracing around the package's layer boundaries, applied from outside.

``Tracer.install()`` replaces public functions at the module attributes
their callers look up with wrappers that record a span (name, parent,
start, end) and a few counts taken from the arguments and results;
``restore()`` puts every original back.  No file of the package changes.
Spans live in memory; ``layer_metrics`` reduces them to the per-layer
figures the benchmark reports.

Tracing is single-threaded: the benchmark runs with ``GRIDGAME_THREADS=1``,
so spans nest strictly and a layer's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

from gridgame import cli, experiments, gamesolve, marl, scenario

CLI_COMMANDS = ("payoff", "solve", "learn", "baseline", "compare")
GAMESOLVE_FUNCS = ("nash_exact", "nash_fictitious_play", "stackelberg",
                   "regret_matching", "qre_fixed_point")
MARL_FUNCS = ("train_single_agent", "train_multi_agent", "mdp_train")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    # time inside this span spent on the tracer's own bookkeeping for
    # children; excluded from self time
    excluded: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _state_key(state):
    """Hashable identity of a network state's contents."""
    return (state.buses, state.lines, state.switches, state.ders,
            tuple(sorted(state.shed_fractions.items())))


def _record_power_flow(info, args, kwargs, sol):
    info["key"] = _state_key(args[0])
    info["iterations"] = sol.iterations
    info["converged"] = sol.converged
    info["energized_buses"] = sum(
        len(comp) for comp, on in zip(sol.islands, sol.energized) if on)


def _record_pair(info, args, kwargs, card):
    info["cell"] = (args[1].id, args[2].id)


def _record_payoff(info, args, kwargs, matrix):
    info["cells"] = matrix.entries.size
    info["flagged"] = len(matrix.cell_flags)


def _record_mc(info, args, kwargs, report):
    info["samples"] = report.samples


def _record_iterations(info, args, kwargs, result):
    info["iterations"] = result.iterations


def _record_regret(info, args, kwargs, result):
    info["steps"] = kwargs["T"] if "T" in kwargs else args[1]


def _record_episodes(info, args, kwargs, result):
    policy = getattr(result, "attacker", result)
    info["episodes"] = policy.episodes


# (module, attribute, span name, recorder); a function imported into several
# namespaces is wrapped in each one under the same span name
_SITES = [
    (scenario, "power_flow", "netmodel.power_flow", _record_power_flow),
    (scenario, "serve_loads", "netmodel.serve_loads", None),
    (scenario, "apply_attack", "scenario.apply_attack", None),
    (scenario, "apply_defense", "scenario.apply_defense", None),
    (scenario, "evaluate_pair", "scenario.evaluate_pair", _record_pair),
    (experiments, "evaluate_pair", "scenario.evaluate_pair", _record_pair),
    (experiments, "monte_carlo", "experiments.monte_carlo", _record_mc),
    (experiments, "strategy_policy", "experiments.strategy_policy", None),
    (cli, "build_payoff_matrix", "resilience.build_payoff_matrix", _record_payoff),
    (experiments, "build_payoff_matrix", "resilience.build_payoff_matrix", _record_payoff),
    (gamesolve, "nash_exact", "gamesolve.nash_exact", None),
    (experiments, "nash_exact", "gamesolve.nash_exact", None),
    (gamesolve, "nash_fictitious_play", "gamesolve.nash_fictitious_play", _record_iterations),
    (gamesolve, "stackelberg", "gamesolve.stackelberg", None),
    (experiments, "stackelberg", "gamesolve.stackelberg", None),
    (gamesolve, "regret_matching", "gamesolve.regret_matching", _record_regret),
    (experiments, "regret_matching", "gamesolve.regret_matching", _record_regret),
    (gamesolve, "qre_fixed_point", "gamesolve.qre_fixed_point", _record_iterations),
    (experiments, "qre_fixed_point", "gamesolve.qre_fixed_point", _record_iterations),
    (marl, "train_single_agent", "marl.train_single_agent", _record_episodes),
    (experiments, "train_single_agent", "marl.train_single_agent", _record_episodes),
    (marl, "train_multi_agent", "marl.train_multi_agent", _record_episodes),
    (experiments, "train_multi_agent", "marl.train_multi_agent", _record_episodes),
    (marl, "mdp_train", "marl.mdp_train", _record_episodes),
]


class Tracer:
    """In-memory span recorder; use as a context manager to install and
    restore the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, recorder):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if recorder is not None:
                t0 = time.perf_counter()
                recorder(span.info, args, kwargs, result)
                if span.parent is not None:
                    tracer.spans[span.parent].excluded += time.perf_counter() - t0
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for module, attr, name, recorder in _SITES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, recorder))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics as {name: (value, unit)} from spans whose roots are
    ``cli.<command>`` spans, one per CLI invocation."""
    children = defaultdict(list)
    roots = []
    for idx, s in enumerate(spans):
        (roots if s.parent is None else children[s.parent]).append(idx)

    def self_time(idx):
        s = spans[idx]
        return s.duration - s.excluded - sum(spans[c].duration for c in children[idx])

    def root_of(idx):
        while spans[idx].parent is not None:
            idx = spans[idx].parent
        return idx

    by_name = defaultdict(list)
    for idx, s in enumerate(spans):
        by_name[s.name].append(idx)

    def total(name):
        return sum(spans[i].duration for i in by_name[name])

    out = {}

    # netmodel
    pf = by_name["netmodel.power_flow"]
    pf_s = total("netmodel.power_flow")
    seen, repeats = set(), 0
    for i in pf:
        key = (root_of(i), spans[i].info["key"])
        repeats += key in seen
        seen.add(key)
    sweeps = sum(spans[i].info["iterations"] for i in pf)
    bus_sweeps = sum(spans[i].info["iterations"] * spans[i].info["energized_buses"] for i in pf)
    out["netmodel.power_flow.calls"] = (len(pf), "count")
    out["netmodel.power_flow.total_s"] = (pf_s, "s")
    out["netmodel.power_flow.ms_per_call"] = (1e3 * _ratio(pf_s, len(pf)), "ms")
    out["netmodel.power_flow.sweeps"] = (sweeps, "count")
    out["netmodel.power_flow.bus_sweeps_per_s"] = (_ratio(bus_sweeps, pf_s), "1/s")
    out["netmodel.power_flow.nonconverged"] = (
        sum(not spans[i].info["converged"] for i in pf), "count")
    out["netmodel.power_flow.repeat_ratio"] = (_ratio(repeats, len(pf)), "ratio")
    out["netmodel.serve_loads.calls"] = (len(by_name["netmodel.serve_loads"]), "count")
    out["netmodel.serve_loads.total_s"] = (total("netmodel.serve_loads"), "s")

    # scenario
    pairs = by_name["scenario.evaluate_pair"]
    out["scenario.evaluate_pair.calls"] = (len(pairs), "count")
    out["scenario.evaluate_pair.total_s"] = (total("scenario.evaluate_pair"), "s")
    out["scenario.evaluate_pair.self_s"] = (sum(self_time(i) for i in pairs), "s")
    pair_set = set(pairs)
    flows_in_pairs = sum(1 for i in pf if spans[i].parent in pair_set)
    out["scenario.evaluate_pair.flows_per_pair"] = (_ratio(flows_in_pairs, len(pairs)), "ratio")
    out["scenario.evaluate_pair.distinct_cells"] = (
        len({(root_of(i), spans[i].info["cell"]) for i in pairs}), "count")
    out["scenario.apply.total_s"] = (
        total("scenario.apply_attack") + total("scenario.apply_defense"), "s")

    # resilience
    builds = by_name["resilience.build_payoff_matrix"]
    build_s = total("resilience.build_payoff_matrix")
    cells = sum(spans[i].info["cells"] for i in builds)
    out["resilience.build_payoff_matrix.total_s"] = (build_s, "s")
    out["resilience.build_payoff_matrix.cells"] = (cells, "count")
    out["resilience.build_payoff_matrix.ms_per_cell"] = (1e3 * _ratio(build_s, cells), "ms")
    out["resilience.build_payoff_matrix.flagged_cells"] = (
        sum(spans[i].info["flagged"] for i in builds), "count")

    # experiments
    mcs = by_name["experiments.monte_carlo"]
    mc_s = total("experiments.monte_carlo")
    distinct, scored, triples, repeated = [], defaultdict(set), 0, 0
    for i in mcs:
        cells_run = [spans[c].info["cell"] for c in children[i]
                     if spans[c].name == "scenario.evaluate_pair"]
        distinct.append(len(set(cells_run)))
        root = root_of(i)
        mine = {(run, *cell) for run, cell in enumerate(cells_run)}
        triples += len(mine)
        repeated += len(mine & scored[root])
        scored[root] |= mine
    out["experiments.monte_carlo.calls"] = (len(mcs), "count")
    out["experiments.monte_carlo.total_s"] = (mc_s, "s")
    out["experiments.monte_carlo.self_s"] = (sum(self_time(i) for i in mcs), "s")
    out["experiments.monte_carlo.runs_per_s"] = (
        _ratio(sum(spans[i].info["samples"] for i in mcs), mc_s), "1/s")
    out["experiments.monte_carlo.distinct_cells_per_call"] = (
        _ratio(sum(distinct), len(distinct)), "count")
    out["experiments.monte_carlo.repeat_ratio"] = (_ratio(repeated, triples), "ratio")
    out["experiments.strategy_policy.total_s"] = (total("experiments.strategy_policy"), "s")

    # gamesolve
    for fn in GAMESOLVE_FUNCS:
        out[f"gamesolve.{fn}.total_s"] = (total(f"gamesolve.{fn}"), "s")
    fp = by_name["gamesolve.nash_fictitious_play"]
    fp_iters = sum(spans[i].info["iterations"] for i in fp)
    out["gamesolve.nash_fictitious_play.iterations"] = (fp_iters, "count")
    out["gamesolve.nash_fictitious_play.iters_per_s"] = (
        _ratio(fp_iters, total("gamesolve.nash_fictitious_play")), "1/s")
    out["gamesolve.regret_matching.steps_per_s"] = (
        _ratio(sum(spans[i].info["steps"] for i in by_name["gamesolve.regret_matching"]),
               total("gamesolve.regret_matching")), "1/s")
    out["gamesolve.qre_fixed_point.iterations"] = (
        sum(spans[i].info["iterations"] for i in by_name["gamesolve.qre_fixed_point"]),
        "count")

    # marl: mdp_train called from inside train_multi_agent is part of that
    # trainer's work, not a run of the stage MDP
    for fn in MARL_FUNCS:
        own = [i for i in by_name[f"marl.{fn}"]
               if spans[i].parent is None
               or spans[spans[i].parent].name != "marl.train_multi_agent"]
        secs = sum(spans[i].duration for i in own)
        out[f"marl.{fn}.total_s"] = (secs, "s")
        out[f"marl.{fn}.episodes_per_s"] = (
            _ratio(sum(spans[i].info["episodes"] for i in own), secs), "1/s")

    # cli
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.total_s"] = (total(f"cli.{cmd}"), "s")
    out["cli.self_s"] = (sum(self_time(i) for i in roots), "s")
    return out
