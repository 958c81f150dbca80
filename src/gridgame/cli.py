"""Command-line surface tying the modules into reproducible workflows.

Subcommands: payoff, solve, learn, baseline, compare, probe.  Every run
writes its data files plus a manifest.json recording the command line, the
resolved configuration and its digest, input/output file digests, and wall
times.  Data files depend only on (inputs, seed), so re-running the same
command reproduces them byte for byte; everything volatile (timestamps,
timings) lives in the manifest.

This module writes every file.  The library layers return values, and each
data file goes through one of two writers: ``_write_json`` (indent 2, sorted
keys, final newline) or ``_write_csv`` (the ``csv`` module's default dialect:
minimal quoting, CRLF line ends; floats at 12 significant digits).  The one
exception is payoff.csv, written by ``PayoffMatrix.to_csv`` in the same
dialect, since it is also the --matrix input format.

Exit codes: 0 success (solver non-convergence is data, not failure),
2 input error, 3 internal error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from . import (ADAPTIVE_TAGS, ATTACK_DISTRIBUTIONS, BASELINE_TAGS,
               DEFAULT_BETA, METHOD_TAGS, __version__)
from .errors import (CatalogError, ConfigError, GridGameError,
                     NetworkParseError, NetworkValidationError,
                     RadialityError, SolverError)
# build_payoff_matrix stays a module global: the benchmark's tracer wraps it here
from .resilience import (DEFAULT_AHP_MATRIX, PayoffMatrix, ahp_weights,
                         build_payoff_matrix, load_ahp_matrix)

if TYPE_CHECKING:
    from . import experiments, marl

# Each subcommand imports the layers it runs (gamesolve, marl, experiments,
# and netmodel/scenario for the network inputs) inside its handler: every
# command is a process of its own, and importing the layers it never calls
# is most of a small command's start-up.

SOLVE_METHODS = ("nash", "fp", "stackelberg", "regret", "qre")
LEARN_METHODS = ("single", "multi", "mdp")

_INPUT_ERRORS = (
    NetworkParseError, NetworkValidationError, RadialityError,
    CatalogError, ConfigError,
    FileNotFoundError, IsADirectoryError, NotADirectoryError,
    PermissionError, json.JSONDecodeError, UnicodeDecodeError,
    ValueError,
)


# ---------------------------------------------------------------------------
# manifest plumbing


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _tolist(x):
    # numpy arrays and scalars: the only values outside JSON's types the CLI writes
    return x.tolist()


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_tolist)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def _input_record(path, bundled_tag):
    """Digest a user-supplied input file, or name the bundled default."""
    if path is None:
        return "bundled:" + bundled_tag
    return {"path": str(path), "sha256": _sha256(path)}


def _write_manifest(out_dir, argv, config, inputs, outputs, seed=None,
                    timings=None, policies=None) -> None:
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=_tolist).encode()).hexdigest()
    manifest = {
        "artifact_version": __version__,
        "command": list(argv),
        "config": config,
        "config_digest": "sha256:" + digest,
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "inputs": inputs,
        "outputs": {name: _sha256(os.path.join(out_dir, name))
                    for name in sorted(outputs)},
        "seed": seed,
    }
    if timings is not None:
        manifest["timings_s"] = timings
    if policies is not None:
        manifest["policies"] = policies
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))


# ---------------------------------------------------------------------------
# shared input loading


def _load_bundle(args):
    """Resolve (network, catalog, weights) from flags, bundled defaults
    filling the gaps, plus the manifest input records."""
    from .netmodel import load_ieee33, load_network
    from .scenario import catalog_default, load_catalog

    net = load_network(args.network) if args.network else load_ieee33()
    cat = load_catalog(args.catalog) if args.catalog else catalog_default()
    comparison = load_ahp_matrix(args.ahp) if args.ahp else DEFAULT_AHP_MATRIX
    weights = ahp_weights(comparison)
    inputs = {
        "network": _input_record(args.network, "ieee33"),
        "catalog": _input_record(args.catalog, "catalog-" + cat.version),
        "ahp": _input_record(args.ahp, "ahp-default"),
    }
    return net, cat, weights, inputs


def _resolve_matrix(args, need_bundle=False):
    """Payoff matrix from --matrix CSV, else built from network inputs.

    The only reader of --matrix.  Returns (matrix, inputs, bundle) where
    bundle is (net, cat, weights); it is None when the matrix was read from
    CSV and the caller did not ask for the network inputs as well.  Such a
    caller reads nothing of the network inputs, so naming one with --matrix
    is an error.
    """
    path = getattr(args, "matrix", None)
    if path and not need_bundle:
        unused = [f"--{k}" for k in ("network", "catalog", "ahp") if getattr(args, k)]
        if unused:
            raise ConfigError(f"--matrix excludes {', '.join(unused)}: "
                              f"{args.cmd} reads no network input from a matrix")
        return PayoffMatrix.from_csv(path), {"matrix": _input_record(path, "")}, None
    matrix = PayoffMatrix.from_csv(path) if path else None
    net, cat, weights, inputs = _load_bundle(args)
    if matrix is None:
        matrix = build_payoff_matrix(net, cat, weights)
    else:
        # rows and columns are scored as the catalog's actions by position
        ids = (tuple(a.id for a in cat.attacks), tuple(d.id for d in cat.defenses))
        if (matrix.attack_ids, matrix.defense_ids) != ids:
            raise ConfigError(
                f"{path}: matrix ids {list(matrix.attack_ids)} x "
                f"{list(matrix.defense_ids)} do not match the catalog's "
                f"{list(ids[0])} x {list(ids[1])} in catalog order")
        inputs["matrix"] = _input_record(path, "")
    return matrix, inputs, (net, cat, weights)


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------------------
# subcommands


def cmd_payoff(args, argv) -> None:
    matrix, inputs, (_, _, weights) = _resolve_matrix(args)
    out = _out_dir(args)
    matrix.to_csv(os.path.join(out, "payoff.csv"))
    _write_csv(os.path.join(out, "payoff_long.csv"), ["attack", "defense", "score"],
               ([aid, did, matrix.entries[i, j]]
                for i, aid in enumerate(matrix.attack_ids)
                for j, did in enumerate(matrix.defense_ids)))
    # flagged cells in catalog order, flags sorted per cell
    _write_csv(os.path.join(out, "payoff_flags.csv"), ["attack", "defense", "flag"],
               ([matrix.attack_ids[i], matrix.defense_ids[j], flag]
                for i, j in sorted(matrix.cell_flags)
                for flag in sorted(matrix.cell_flags[i, j])))
    config = {"command": "payoff",
              "ahp_weights": list(weights.w),
              "consistency_ratio": weights.consistency_ratio,
              "shape": list(matrix.shape)}
    _write_manifest(out, argv, config, inputs,
                    ["payoff.csv", "payoff_long.csv", "payoff_flags.csv"])
    print(f"payoff: {matrix.shape[0]}x{matrix.shape[1]} matrix -> {out}")


def _check_solve_args(args) -> None:
    """Reject iteration counts and rationality the chosen solver cannot use."""
    if args.method in ("fp", "regret") and args.iters < 1:
        raise ConfigError(f"--iters must be at least 1, got {args.iters}")
    if args.method == "qre" and not (math.isfinite(args.beta) and args.beta >= 0):
        raise ConfigError(f"--beta must be finite and non-negative, got {args.beta}")


def cmd_solve(args, argv) -> None:
    from . import gamesolve

    _check_solve_args(args)
    matrix, inputs, _ = _resolve_matrix(args)
    out = _out_dir(args)
    outputs = ["equilibrium.json"]
    eq_path = os.path.join(out, "equilibrium.json")

    if args.method == "stackelberg":
        j, value, i = gamesolve.stackelberg(matrix.entries)
        _write_json({
            "method": "stackelberg",
            "defense": matrix.defense_ids[j],
            "security_level": value,
            "attacker_response": matrix.attack_ids[i],
        }, eq_path)
    elif args.method == "qre":
        res = gamesolve.qre_fixed_point(matrix.entries, args.beta, args.beta)
        # non-convergence is reported, not fatal
        _write_json({
            "method": "qre",
            "beta": args.beta,
            "attacker_probs": list(res.attacker.probs),
            "defender_probs": list(res.defender.probs),
            "converged": bool(res.converged),
            "iterations": res.iterations,
            "residual": res.residual,
        }, eq_path)
    else:
        if args.method == "nash":
            report = gamesolve.nash_exact(matrix.entries)
        elif args.method == "fp":
            report = gamesolve.nash_fictitious_play(matrix.entries, max_iters=args.iters)
        else:
            report = gamesolve.regret_matching(matrix.entries, T=args.iters)
        _write_json(report.to_json(), eq_path)
        if report.trajectory:
            _write_csv(os.path.join(out, "trajectory.csv"),
                       ["iteration", "avg_regret_attacker", "avg_regret_defender", "value"],
                       ([int(it), *rest] for it, *rest in report.trajectory))
            outputs.append("trajectory.csv")

    # record only the knobs the method reads, so equal results share a digest;
    # no solve method draws random numbers, so the seed is not one of them
    config = {"command": "solve", "method": args.method}
    if args.method in ("fp", "regret"):
        config["iters"] = args.iters
    if args.method == "qre":
        config["beta"] = args.beta
    _write_manifest(out, argv, config, inputs, outputs, seed=args.seed)
    print(f"solve[{args.method}] -> {out}")


def _learning_config(args) -> marl.LearningConfig:
    """Defaults, overlaid by --config JSON, overlaid by explicit flags."""
    from . import marl

    fields = dataclasses.asdict(marl.LearningConfig())
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: learning config must be a JSON object")
        unknown = set(loaded) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        fields.update(loaded)
    for flag, key in (("iters", "episodes"), ("epsilon0", "epsilon0"),
                      ("decay", "epsilon_decay"), ("gamma", "gamma"),
                      ("seed", "seed")):
        val = getattr(args, flag)
        if val is not None:
            fields[key] = val
    return marl.LearningConfig(**fields)


def cmd_learn(args, argv) -> None:
    from . import gamesolve, marl

    matrix, inputs, bundle = _resolve_matrix(args)
    config = _learning_config(args)
    if args.config:
        inputs["config"] = _input_record(args.config, "")

    if args.method == "single":
        opponent = gamesolve.MixedStrategy.uniform(matrix.shape[0])
        policy = marl.train_single_agent(matrix.entries, opponent, config)
        data = {"policy.json": policy.to_json()}
    elif args.method == "multi":
        result = marl.train_multi_agent(matrix.entries, config)
        data = {"result.json": {"value": result.value,
                                "converged": bool(result.converged)}}
    else:  # mdp
        # defenses that take no action cannot trigger recovery; the rule only
        # applies when the matrix came from the catalog, a foreign CSV keeps
        # every column active
        active = None
        if bundle is not None:
            _, cat, _ = bundle
            active = [len(d.effects) > 0 for d in cat.defenses]
        mdp = marl.stage_mdp_default(matrix.entries, defense_active=active)
        result = marl.mdp_train(mdp, config)
        data = {"result.json": {"values": dict(zip(mdp.labels, result.values))}}
    if args.method != "single":
        policy = result.defender
        data["attacker_policy.json"] = result.attacker.to_json()
        data["defender_policy.json"] = policy.to_json()

    out = _out_dir(args)
    for name, obj in data.items():
        _write_json(obj, os.path.join(out, name))
    # the two sides of a self-play run share its telemetry rows
    _write_csv(os.path.join(out, "telemetry.csv"),
               ["episode", "epsilon", "alpha", "reward", "q_max_delta"],
               ([int(ep), *rest] for ep, *rest in policy.telemetry.tolist()))
    manifest_cfg = {"command": "learn", "method": args.method}
    manifest_cfg.update(config.provenance())
    _write_manifest(out, argv, manifest_cfg, inputs, [*data, "telemetry.csv"],
                    seed=config.seed)
    print(f"learn[{args.method}] {config.episodes} episodes -> {out}")


def _mc_config(args) -> experiments.McConfig:
    from . import experiments

    return experiments.McConfig(runs=args.runs, seed=args.seed,
                                attack_distribution=args.attack_dist)


def cmd_baseline(args, argv) -> None:
    from . import experiments

    matrix, inputs, (net, cat, weights) = _resolve_matrix(args, need_bundle=True)
    mc = _mc_config(args)
    policy = experiments.strategy_policy(args.method, matrix, catalog=cat, base=net)
    report = experiments.monte_carlo(net, cat, weights, policy, mc, matrix=matrix)

    out = _out_dir(args)
    _write_json({
        "label": policy.label,
        "attack_ids": list(matrix.attack_ids),
        "defense_ids": list(matrix.defense_ids),
        "mixes": policy.mixes,
        "provenance": policy.provenance,
    }, os.path.join(out, "policy.json"))
    _write_json(report.to_json(), os.path.join(out, "stats.json"))
    _write_csv(os.path.join(out, "runs.csv"), ["run", "attack", "defense", "score"],
               ([run, *record] for run, record in enumerate(report.records)))

    config = {"command": "baseline", "method": args.method, "runs": mc.runs,
              "attack_distribution": mc.attack_distribution,
              "perturbation": list(mc.perturbation)}
    _write_manifest(out, argv, config, inputs,
                    ["policy.json", "stats.json", "runs.csv"], seed=mc.seed)
    print(f"baseline[{args.method}] mean={report.mean:.4f} -> {out}")


def _parse_methods(spec: str):
    if spec.strip() == "all":
        return list(METHOD_TAGS)
    tags = [t.strip() for t in spec.split(",") if t.strip()]
    if not tags:
        raise ConfigError("empty --methods list")
    return tags


def cmd_compare(args, argv) -> None:
    from . import experiments

    methods = _parse_methods(args.methods)
    matrix, inputs, (net, cat, weights) = _resolve_matrix(args, need_bundle=True)
    mc = _mc_config(args)
    rows = experiments.compare_strategies(net, cat, weights, methods, mc,
                                          matrix=matrix, reference=args.reference)

    out = _out_dir(args)
    # wall times stay out of the data files, which reruns reproduce byte for byte
    _write_csv(os.path.join(out, "comparison.csv"),
               ["method", "mean", "std_dev", "ci95_low", "ci95_high", "improvement_pct"],
               ([r.method, r.report.mean, r.report.std_dev, r.report.ci95_low,
                 r.report.ci95_high, r.improvement_pct] for r in rows))
    stats = {
        "runs": mc.runs,
        "seed": mc.seed,
        "attack_distribution": mc.attack_distribution,
        "reference": args.reference if args.reference else rows[0].method,
        "methods": {
            r.method: {"mean": r.report.mean, "std_dev": r.report.std_dev,
                       "ci95_low": r.report.ci95_low, "ci95_high": r.report.ci95_high,
                       "improvement_pct": r.improvement_pct,
                       "samples": r.report.samples}
            for r in rows
        },
        "t_tests": _paired_tests({r.method: r.report for r in rows}),
    }
    _write_json(stats, os.path.join(out, "stats.json"))

    config = {"command": "compare", "methods": [r.method for r in rows],
              "reference": stats["reference"], "runs": mc.runs,
              "attack_distribution": mc.attack_distribution,
              "perturbation": list(mc.perturbation)}
    timings = {r.method: round(r.wall_time_s, 6) for r in rows}
    # what each policy reports of its own making (solver steps and epsilon,
    # training episodes); kept out of config so config_digest does not move
    policies = {r.method: r.provenance for r in rows}
    _write_manifest(out, argv, config, inputs, ["comparison.csv", "stats.json"],
                    seed=mc.seed, timings=timings, policies=policies)
    print(f"compare[{','.join(r.method for r in rows)}] -> {out}")


def _paired_tests(reports) -> dict:
    """Paired t for every (adaptive, baseline) pair that actually ran.

    Common random numbers align the per-run scores, so differences are
    paired by construction.  A zero-variance difference (identical
    policies) is reported as degenerate rather than failing the command.
    """
    from . import experiments

    tests = {}
    adaptive = [t for t in ADAPTIVE_TAGS if t in reports]
    base = [t for t in BASELINE_TAGS if t in reports]
    for a in adaptive:
        for b in base:
            scores_a = [r[2] for r in reports[a].records]
            scores_b = [r[2] for r in reports[b].records]
            key = f"{a}_vs_{b}"
            try:
                t, p = experiments.paired_t_test(scores_a, scores_b)
                tests[key] = {"t": t, "p": p}
            except SolverError:
                tests[key] = {"note": "degenerate: zero variance of differences"}
            except ConfigError as exc:
                tests[key] = {"note": str(exc)}
    return tests


def cmd_probe(args, argv) -> None:
    from . import experiments

    sizes = tuple(int(s) for s in args.sizes.split(","))
    methods = tuple(t.strip() for t in args.methods.split(",") if t.strip())
    rows = experiments.scalability_probe(sizes=sizes, methods=methods,
                                         seed=args.seed)

    out = _out_dir(args)
    # timings and memory are measurements, they go in the manifest so the
    # data files stay reproducible
    det_fields = ("buses", "ders", "switches", "state_space_log2",
                  "state_space_estimate")
    _write_csv(os.path.join(out, "probe.csv"), [*det_fields, "note"],
               ([*(row[k] for k in det_fields), row.get("note", "")] for row in rows))
    _write_json([{k: row[k] for k in det_fields + ("note",) if k in row}
                 for row in rows],
                os.path.join(out, "probe.json"))

    timings = {str(row["buses"]): {
        "wall_time_s": round(row["wall_time_s"], 6),
        "peak_memory_mb": round(row["peak_memory_mb"], 3),
        "method_times": {k: round(v, 6) for k, v in row["method_times"].items()},
    } for row in rows}
    config = {"command": "probe", "sizes": list(sizes),
              "methods": list(methods)}
    _write_manifest(out, argv, config, {}, ["probe.csv", "probe.json"],
                    seed=args.seed, timings=timings)
    print(f"probe sizes={list(sizes)} -> {out}")


# ---------------------------------------------------------------------------
# parser


def _add_network_flags(p):
    p.add_argument("--network", help="network JSON (default: bundled 33-bus)")
    p.add_argument("--catalog", help="scenario catalog JSON (default: bundled)")
    p.add_argument("--ahp", help="pairwise comparison CSV (default: bundled)")


def _add_mc_flags(p):
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attack-dist", dest="attack_dist",
                   default="adversarial-best-response",
                   choices=ATTACK_DISTRIBUTIONS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridgame",
        description="Microgrid cyber-defense planning: payoff matrices, "
                    "game solvers, learning agents, and evaluation harness.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("payoff", help="build the payoff matrix")
    _add_network_flags(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("solve", help="solve the stage game")
    _add_network_flags(p)
    p.add_argument("--matrix", help="payoff matrix CSV (skips building)")
    p.add_argument("--method", required=True, choices=SOLVE_METHODS)
    p.add_argument("--iters", type=int, default=100_000,
                   help="step cap of fp and regret (both stop early at their tolerance)")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest only: no solve method draws "
                        "random numbers")
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn", help="train Q-learning agents")
    _add_network_flags(p)
    p.add_argument("--matrix", help="payoff matrix CSV (skips building)")
    p.add_argument("--method", required=True, choices=LEARN_METHODS)
    p.add_argument("--config", help="learning config JSON")
    p.add_argument("--iters", type=int, default=None, help="training episodes")
    p.add_argument("--epsilon0", type=float, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("baseline", help="evaluate one baseline policy")
    _add_network_flags(p)
    p.add_argument("--matrix", help="payoff matrix CSV (skips building)")
    p.add_argument("--method", required=True,
                   choices=BASELINE_TAGS)
    _add_mc_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="Monte Carlo comparison table")
    _add_network_flags(p)
    p.add_argument("--matrix", help="payoff matrix CSV (skips building)")
    p.add_argument("--methods", default="all",
                   help="'all' or comma list of method tags")
    p.add_argument("--reference", default=None,
                   help="reference method for improvement column")
    _add_mc_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("probe", help="scaling measurements on growing feeders")
    p.add_argument("--sizes", default="33,69,118")
    p.add_argument("--methods", default="nash")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


_HANDLERS = {
    "payoff": cmd_payoff,
    "solve": cmd_solve,
    "learn": cmd_learn,
    "baseline": cmd_baseline,
    "compare": cmd_compare,
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _HANDLERS[args.cmd](args, argv)
        return 0
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridGameError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
