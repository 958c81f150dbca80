"""The three benchmark workloads: seeded inputs, CLI command lists, output checks.

Inputs are made from the seed through the package's public API and written
as the files a user would hand the CLI; the program receives only those
files.  Every command's outputs are checked here, so a command counts as
failed when it exits non-zero or when any check below rejects its outputs.

Monte Carlo outputs are checked by invariants and by rerun identity only,
never against a stored reference: their seeding is expected to change.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridgame import gamesolve
from gridgame.experiments import METHOD_TAGS, synthetic_feeder
from gridgame.netmodel import NetworkState, load_ieee33, load_network
from gridgame.resilience import PayoffMatrix
from gridgame.scenario import (AttackAction, DefenseAction, Effect,
                               ScenarioCatalog, catalog_default, load_catalog)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Monte Carlo runs per method in `compare`, and runs of the uniform baseline
COMPARE_RUNS = 200
UNIFORM_RUNS = 300
# the 118-bus feeder is drawn from seed % FEEDER_VARIANTS, so that each
# variant's payoff matrix can be pinned by a committed reference
FEEDER_VARIANTS = 8
SYNTH_BUSES = 118
GAME_SIZE = 20
# iterations of fictitious play and regret matching, and training episodes;
# a quarter of the CLI default, so that a run holds several passes
KERNEL_ITERS = 25_000
SOLVE_METHODS = ("nash", "fp", "stackelberg", "regret", "qre")
LEARN_METHODS = ("single", "multi", "mdp")
MATRIX_TOL = 1e-9
PROB_TOL = 1e-9


class CheckError(Exception):
    """An output of a CLI command failed a correctness check."""


@dataclass
class Command:
    """One CLI invocation: its name, the metric its time adds to, its
    arguments after ``python -m gridgame``, and the check of its outputs."""

    name: str
    stage: str
    args: list
    out: Path
    check: object


# ---------------------------------------------------------------------------
# input documents


def network_doc(state: NetworkState) -> dict:
    """The network JSON document that ``load_network`` reads back to ``state``."""
    return {
        "base_kv": state.base_kv,
        "base_mva": state.base_mva,
        "slack_bus": state.slack_bus,
        "critical_buses": [b.id for b in state.buses if b.is_critical],
        "buses": [{"id": b.id, "p_kw": b.load_p, "q_kvar": b.load_q}
                  for b in state.buses],
        "lines": [{"id": ln.id, "from": ln.from_bus, "to": ln.to_bus,
                   "r_ohm": ln.r, "x_ohm": ln.x} for ln in state.lines],
        "switches": [{"id": sw.id, "from": sw.from_bus, "to": sw.to_bus,
                      "r_ohm": sw.r, "x_ohm": sw.x} for sw in state.switches],
        "ders": [{"id": d.id, "bus": d.bus, "rating_kw": d.rating_p,
                  "dispatch_fraction": d.dispatch_fraction} for d in state.ders],
    }


def feeder_catalog(state: NetworkState) -> ScenarioCatalog:
    """Ten line-trip attacks and nine defenses built from the feeder's own
    switches and DERs: no action, four switch closures with a companion
    break, two DER boosts, and two kinds of load shedding."""
    n = state.n_buses
    attacks = tuple(
        AttackAction(f"A{k + 1}", f"trip feeder segment {b}-{b + 1}",
                     (Effect("trip_line", (int(b), int(b + 1))),))
        for k, b in enumerate(np.linspace(1, n - 2, 10).astype(int)))
    defenses = [DefenseAction("D1", "no action", ())]
    for sw in state.switches:
        mid = sw.from_bus + 2
        defenses.append(DefenseAction(
            f"D{len(defenses) + 1}", f"close {sw.id} with companion break",
            (Effect("close_switch", sw.id), Effect("companion_open", (mid, mid + 1)))))
    for der in state.ders[:2]:
        defenses.append(DefenseAction(
            f"D{len(defenses) + 1}", f"dispatch {der.id} fully",
            (Effect("set_der_dispatch", der.id, 1.0),)))
    defenses.append(DefenseAction(
        f"D{len(defenses) + 1}", "shed 30% of non-critical load",
        (Effect("shed_fraction", "non-critical", 0.30),)))
    defenses.append(DefenseAction(
        f"D{len(defenses) + 1}", "shed loads above 200 kW",
        (Effect("shed_threshold", None, 200.0),)))
    return ScenarioCatalog(attacks=attacks, defenses=tuple(defenses),
                           version=f"perfbench-{n}")


def write_network(state: NetworkState, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(network_doc(state), fh, indent=1)
    if load_network(path) != state:
        raise CheckError(f"{path.name}: network JSON does not load back equal")


def write_catalog(catalog: ScenarioCatalog, path: Path) -> None:
    doc = catalog.to_json()
    doc["replace"] = True
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    if load_catalog(path) != catalog:
        raise CheckError(f"{path.name}: catalog JSON does not load back equal")


def random_game(seed: int) -> PayoffMatrix:
    entries = np.random.default_rng(seed).random((GAME_SIZE, GAME_SIZE))
    return PayoffMatrix(
        entries=entries,
        attack_ids=tuple(f"A{i + 1}" for i in range(GAME_SIZE)),
        defense_ids=tuple(f"D{j + 1}" for j in range(GAME_SIZE)))


# ---------------------------------------------------------------------------
# output checks


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_distribution(probs, what: str) -> None:
    p = np.asarray(probs, dtype=float)
    _require(p.ndim == 1 and p.size > 0 and np.all(np.isfinite(p)),
             f"{what}: not a finite vector")
    _require(bool(np.all(p >= -PROB_TOL)) and abs(p.sum() - 1.0) <= PROB_TOL,
             f"{what}: does not sum to 1 (sum {p.sum()!r})")


def _check_payoff(out: Path, reference: Path, shape) -> None:
    got = PayoffMatrix.from_csv(out / "payoff.csv")
    _require(got.shape == tuple(shape), f"payoff shape {got.shape}, expected {shape}")
    e = got.entries
    _require(bool(np.all(np.isfinite(e))), "payoff has non-finite entries")
    _require(bool(np.all((e >= 0.0) & (e <= 1.0))), "payoff entries outside [0, 1]")
    ref = PayoffMatrix.from_csv(reference)
    _require(got.attack_ids == ref.attack_ids and got.defense_ids == ref.defense_ids,
             "payoff ids differ from the reference")
    worst = float(np.max(np.abs(e - ref.entries)))
    _require(worst <= MATRIX_TOL,
             f"payoff differs from {reference.name} by {worst:.3g} > {MATRIX_TOL}")


def _check_score(x, what: str) -> None:
    _require(isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0,
             f"{what}: score {x!r} not finite in [0, 1]")


def _check_runs_csv(path: Path, runs: int) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == runs, f"runs.csv has {len(rows)} rows, expected {runs}")
    for row in rows:
        _check_score(float(row["score"]), "runs.csv")


def _check_compare(out: Path, runs: int) -> None:
    stats = _json(out / "stats.json")
    methods = stats["methods"]
    _require(sorted(methods) == sorted(METHOD_TAGS),
             f"compare reported methods {sorted(methods)}")
    for tag, row in methods.items():
        _require(row["samples"] == runs, f"{tag}: {row['samples']} samples, expected {runs}")
        _check_score(row["mean"], f"{tag} mean")
        _require(row["ci95_low"] <= row["mean"] <= row["ci95_high"],
                 f"{tag}: interval does not bracket the mean")
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require([r["method"] for r in rows] == list(METHOD_TAGS),
             "comparison.csv rows are not the nine methods in order")
    for r in rows:
        for key, value in r.items():
            if key != "method":
                _require(math.isfinite(float(value)), f"comparison.csv {key} not finite")


def _check_baseline(out: Path, runs: int, shape) -> None:
    stats = _json(out / "stats.json")
    _require(stats["samples"] == runs, f"{stats['samples']} samples, expected {runs}")
    _check_score(stats["mean"], "baseline mean")
    policy = _json(out / "policy.json")
    _require(np.asarray(policy["mixes"]).shape == tuple(shape), "policy mixes shape")
    for i, row in enumerate(policy["mixes"]):
        _check_distribution(row, f"policy mix row {i}")
    _check_runs_csv(out / "runs.csv", runs)


def _check_solve(out: Path, method: str, game_path: Path) -> None:
    game = PayoffMatrix.from_csv(game_path)
    eq = _json(out / "equilibrium.json")
    if method == "stackelberg":
        levels = game.entries.min(axis=0)
        j = game.defense_ids.index(eq["defense"])
        _require(levels[j] == levels.max() and eq["security_level"] == levels[j],
                 "stackelberg column does not have the best security level")
        return
    pa, pd = eq["attacker_probs"], eq["defender_probs"]
    _check_distribution(pa, f"{method} attacker mix")
    _check_distribution(pd, f"{method} defender mix")
    if method == "qre":
        _require(eq["converged"] is True and math.isfinite(eq["residual"]),
                 "qre did not converge")
    elif method == "nash":
        eps = gamesolve.verify_epsilon_equilibrium(
            game.entries, gamesolve.MixedStrategy(np.asarray(pa)),
            gamesolve.MixedStrategy(np.asarray(pd)))
        _require(eps <= 1e-9, f"nash mixes are a {eps:.3g}-equilibrium, not 1e-9")
    else:
        _require(math.isfinite(eq["epsilon"]), f"{method}: non-finite epsilon")


def _check_learned_policy(path: Path, n_actions: int) -> None:
    """A learned policy is greedy: each context's action must optimize its
    Q row.  The only mixed strategy in it is the opponent mix it trained
    against (single-agent), which must be a distribution."""
    pol = _json(path)
    for ctx in pol["contexts"]:
        row = np.asarray(ctx["q_row"], dtype=float)
        _require(row.shape == (n_actions,) and bool(np.all(np.isfinite(row))),
                 f"{path.name}: q_row shape or finiteness")
        pick = int(np.argmax(row)) if pol["side"] == "defender" else int(np.argmin(row))
        _require(ctx["greedy"] == pick, f"{path.name}: greedy action does not optimize q_row")
    opponent = pol["config"].get("opponent")
    if opponent is not None:
        _check_distribution(opponent, f"{path.name} opponent mix")


def _check_learn(out: Path, method: str) -> None:
    with open(out / "telemetry.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    _require(len(rows) > 0, "empty telemetry")
    _require(all(math.isfinite(float(v)) for r in rows for v in r), "non-finite telemetry")
    if method == "single":
        _check_learned_policy(out / "policy.json", GAME_SIZE)
        return
    _check_learned_policy(out / "attacker_policy.json", GAME_SIZE)
    _check_learned_policy(out / "defender_policy.json", GAME_SIZE)
    result = _json(out / "result.json")
    values = [result["value"]] if method == "multi" else list(result["values"].values())
    _require(all(math.isfinite(v) for v in values), "non-finite learned value")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and NOTES.md."""

    name: str
    setup: object      # (dir, seed) -> dict of input paths
    commands: object   # (inputs, out_dir, seed) -> list[Command]


def _setup_mc_compare(root: Path, seed: int) -> dict:
    net, cat = root / "ieee33.json", root / "catalog.json"
    write_network(load_ieee33(), net)
    write_catalog(catalog_default(), cat)
    return {"network": net, "catalog": cat}


def _commands_mc_compare(inputs: dict, out: Path, seed: int) -> list:
    flags = ["--network", str(inputs["network"]), "--catalog", str(inputs["catalog"])]
    return [
        Command("payoff", "payoff_s", ["payoff", *flags, "--out", str(out / "payoff")],
                out / "payoff",
                lambda o: _check_payoff(o, REFERENCE_DIR / "payoff_ieee33.csv", (10, 10))),
        Command("compare", "compare_s",
                ["compare", "--methods", "all", "--attack-dist", "adversarial-best-response",
                 "--runs", str(COMPARE_RUNS), "--seed", str(seed), *flags,
                 "--out", str(out / "compare")],
                out / "compare", lambda o: _check_compare(o, COMPARE_RUNS)),
    ]


def feeder_variant(seed: int) -> int:
    return seed % FEEDER_VARIANTS


def _setup_scale_uniform(root: Path, seed: int) -> dict:
    state = synthetic_feeder(SYNTH_BUSES, seed=feeder_variant(seed))
    net, cat = root / f"feeder{SYNTH_BUSES}.json", root / "catalog.json"
    write_network(state, net)
    write_catalog(feeder_catalog(state), cat)
    return {"network": net, "catalog": cat,
            "reference": REFERENCE_DIR / f"payoff_synth{SYNTH_BUSES}_v{feeder_variant(seed)}.csv"}


def _commands_scale_uniform(inputs: dict, out: Path, seed: int) -> list:
    flags = ["--network", str(inputs["network"]), "--catalog", str(inputs["catalog"])]
    payoff = out / "payoff"
    return [
        Command("payoff", "payoff_s", ["payoff", *flags, "--out", str(payoff)], payoff,
                lambda o: _check_payoff(o, inputs["reference"], (10, 9))),
        Command("baseline", "baseline_s",
                ["baseline", "--method", "RDS", "--attack-dist", "uniform",
                 "--runs", str(UNIFORM_RUNS), "--seed", str(seed), *flags,
                 "--matrix", str(payoff / "payoff.csv"), "--out", str(out / "baseline")],
                out / "baseline", lambda o: _check_baseline(o, UNIFORM_RUNS, (10, 9))),
    ]


def _setup_solve_learn(root: Path, seed: int) -> dict:
    path = root / "game.csv"
    random_game(seed).to_csv(path)
    return {"matrix": path}


def _commands_solve_learn(inputs: dict, out: Path, seed: int) -> list:
    game = inputs["matrix"]
    cmds = []
    iters = ["--iters", str(KERNEL_ITERS)]
    for method in SOLVE_METHODS:
        o = out / f"solve-{method}"
        cmds.append(Command(
            f"solve-{method}", "solve_s",
            ["solve", "--method", method, "--matrix", str(game), "--seed", str(seed),
             *(iters if method in ("fp", "regret") else []), "--out", str(o)],
            o, lambda o, m=method: _check_solve(o, m, game)))
    for method in LEARN_METHODS:
        o = out / f"learn-{method}"
        cmds.append(Command(
            f"learn-{method}", "learn_s",
            ["learn", "--method", method, "--matrix", str(game), "--seed", str(seed),
             *iters, "--out", str(o)],
            o, lambda o, m=method: _check_learn(o, m)))
    return cmds


WORKLOADS = {
    w.name: w for w in (
        Workload("mc-compare", _setup_mc_compare, _commands_mc_compare),
        Workload("scale-uniform", _setup_scale_uniform, _commands_scale_uniform),
        Workload("solve-learn", _setup_solve_learn, _commands_solve_learn),
    )
}


def output_digests(cmd: Command) -> dict:
    """The data-file digests the command recorded in its manifest."""
    outputs = _json(cmd.out / "manifest.json")["outputs"]
    _require(len(outputs) > 0, f"{cmd.name}: manifest lists no outputs")
    return outputs


def output_bytes(cmd: Command) -> int:
    return sum(os.path.getsize(cmd.out / f) for f in os.listdir(cmd.out))
