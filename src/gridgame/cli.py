"""Command-line surface tying the modules into reproducible workflows.

Subcommands: payoff, solve, learn, baseline, compare, probe.  Every run
writes its data files plus a manifest.json recording the command line, the
resolved configuration and its digest, input/output file digests, and wall
times.  Data files depend only on (inputs, seed), so re-running the same
command reproduces them byte for byte; everything volatile (timestamps,
timings) lives in the manifest.

Exit codes: 0 success (solver non-convergence is data, not failure),
2 input error, 3 internal error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy as np

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


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _input_record(path, bundled_tag):
    """Digest a user-supplied input file, or name the bundled default."""
    if path is None:
        return "bundled:" + bundled_tag
    return {"path": str(path), "sha256": _sha256(path)}


def _write_manifest(out_dir, argv, config, inputs, outputs, seed=None,
                    timings=None, policies=None) -> None:
    config = _jsonable(config)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()
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
        manifest["timings_s"] = _jsonable(timings)
    if policies is not None:
        manifest["policies"] = _jsonable(policies)
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
    CSV and the caller did not ask for the network inputs as well.
    """
    path = getattr(args, "matrix", None)
    matrix = PayoffMatrix.from_csv(path) if path else None
    if matrix is not None and not need_bundle:
        return matrix, {"matrix": _input_record(path, "")}, None
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
    out = _out_dir(args)
    matrix, inputs, (_, _, weights) = _resolve_matrix(args)
    matrix.to_csv(os.path.join(out, "payoff.csv"))
    matrix.to_long_csv(os.path.join(out, "payoff_long.csv"))
    matrix.to_flags_csv(os.path.join(out, "payoff_flags.csv"))
    config = {"command": "payoff",
              "ahp_weights": list(weights.w),
              "consistency_ratio": weights.consistency_ratio,
              "shape": list(matrix.shape)}
    _write_manifest(out, argv, config, inputs,
                    ["payoff.csv", "payoff_long.csv", "payoff_flags.csv"])
    print(f"payoff: {matrix.shape[0]}x{matrix.shape[1]} matrix -> {out}")


def _solve_report(matrix, args):
    from . import gamesolve

    m = matrix.entries
    if args.method == "nash":
        return gamesolve.nash_exact(m)
    if args.method == "fp":
        return gamesolve.nash_fictitious_play(m, max_iters=args.iters)
    return gamesolve.regret_matching(m, T=args.iters)


def _check_solve_args(args) -> None:
    """Reject iteration counts and rationality the chosen solver cannot use."""
    if args.method in ("fp", "regret") and args.iters < 1:
        raise ConfigError(f"--iters must be at least 1, got {args.iters}")
    if args.method == "qre" and not (math.isfinite(args.beta) and args.beta >= 0):
        raise ConfigError(f"--beta must be finite and non-negative, got {args.beta}")


def cmd_solve(args, argv) -> None:
    from . import gamesolve

    _check_solve_args(args)
    out = _out_dir(args)
    matrix, inputs, _ = _resolve_matrix(args)
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
        report = _solve_report(matrix, args)
        report.to_json(eq_path)
        if report.trajectory:
            report.trajectory_to_csv(os.path.join(out, "trajectory.csv"))
            outputs.append("trajectory.csv")

    config = {"command": "solve", "method": args.method, "iters": args.iters,
              "beta": args.beta, "seed": args.seed}
    _write_manifest(out, argv, config, inputs, outputs, seed=args.seed)
    print(f"solve[{args.method}] -> {out}")


def _learning_config(args) -> marl.LearningConfig:
    """Defaults, overlaid by --config JSON, overlaid by explicit flags."""
    from . import marl

    defaults = marl.LearningConfig()
    fields = {k: getattr(defaults, k) for k in defaults.__dataclass_fields__}
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

    out = _out_dir(args)
    matrix, inputs, bundle = _resolve_matrix(args)
    config = _learning_config(args)
    if args.config:
        inputs["config"] = _input_record(args.config, "")
    telemetry = os.path.join(out, "telemetry.csv")
    outputs = ["telemetry.csv"]

    if args.method == "single":
        opponent = gamesolve.MixedStrategy(
            np.full(matrix.shape[0], 1.0 / matrix.shape[0]))
        policy = marl.train_single_agent(matrix.entries, opponent, config,
                                         telemetry_path=telemetry)
        policy.to_json(os.path.join(out, "policy.json"))
        outputs.append("policy.json")
    elif args.method == "multi":
        result = marl.train_multi_agent(matrix.entries, config,
                                        telemetry_path=telemetry)
        result.attacker.to_json(os.path.join(out, "attacker_policy.json"))
        result.defender.to_json(os.path.join(out, "defender_policy.json"))
        _write_json({"value": result.value, "converged": bool(result.converged)},
                    os.path.join(out, "result.json"))
        outputs += ["attacker_policy.json", "defender_policy.json", "result.json"]
    else:  # mdp
        # defenses that take no action cannot trigger recovery; the rule only
        # applies when the matrix came from the catalog, a foreign CSV keeps
        # every column active
        active = None
        if bundle is not None:
            _, cat, _ = bundle
            active = [len(d.effects) > 0 for d in cat.defenses]
        mdp = marl.stage_mdp_default(matrix.entries, defense_active=active)
        result = marl.mdp_train(mdp, config, telemetry_path=telemetry)
        result.attacker.to_json(os.path.join(out, "attacker_policy.json"))
        result.defender.to_json(os.path.join(out, "defender_policy.json"))
        _write_json({"values": dict(zip(mdp.labels, result.values))},
                    os.path.join(out, "result.json"))
        outputs += ["attacker_policy.json", "defender_policy.json", "result.json"]

    manifest_cfg = {"command": "learn", "method": args.method}
    manifest_cfg.update(config.provenance())
    _write_manifest(out, argv, manifest_cfg, inputs, outputs, seed=config.seed)
    print(f"learn[{args.method}] {config.episodes} episodes -> {out}")


def _mc_config(args) -> experiments.McConfig:
    from . import experiments

    return experiments.McConfig(runs=args.runs, seed=args.seed,
                                attack_distribution=args.attack_dist)


def cmd_baseline(args, argv) -> None:
    from . import experiments

    out = _out_dir(args)
    matrix, inputs, (net, cat, weights) = _resolve_matrix(args, need_bundle=True)
    mc = _mc_config(args)
    policy = experiments.baseline(args.method, matrix, catalog=cat, base=net)
    report = experiments.monte_carlo(net, cat, weights, policy, mc, matrix=matrix)

    _write_json({
        "label": policy.label,
        "attack_ids": list(matrix.attack_ids),
        "defense_ids": list(matrix.defense_ids),
        "mixes": policy.mixes,
        "provenance": policy.provenance,
    }, os.path.join(out, "policy.json"))
    report.to_json(os.path.join(out, "stats.json"))
    report.runs_to_csv(os.path.join(out, "runs.csv"))

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

    out = _out_dir(args)
    methods = _parse_methods(args.methods)
    matrix, inputs, (net, cat, weights) = _resolve_matrix(args, need_bundle=True)
    mc = _mc_config(args)

    reports: dict = {}
    rows = experiments.compare_strategies(net, cat, weights, methods, mc,
                                          matrix=matrix, reference=args.reference,
                                          reports_out=reports)
    experiments.comparison_to_csv(rows, os.path.join(out, "comparison.csv"))

    stats = {
        "runs": mc.runs,
        "seed": mc.seed,
        "attack_distribution": mc.attack_distribution,
        "reference": args.reference if args.reference else rows[0].method,
        "methods": {
            r.method: {"mean": r.mean, "std_dev": r.std_dev,
                       "ci95_low": r.ci95_low, "ci95_high": r.ci95_high,
                       "improvement_pct": r.improvement_pct,
                       "samples": reports[r.method].samples}
            for r in rows
        },
        "t_tests": _paired_tests(reports),
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

    out = _out_dir(args)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    methods = tuple(t.strip() for t in args.methods.split(",") if t.strip())
    rows = experiments.scalability_probe(sizes=sizes, methods=methods,
                                         seed=args.seed)

    # timings and memory are measurements, they go in the manifest so the
    # data files stay reproducible
    det_fields = ("buses", "ders", "switches", "state_space_log2",
                  "state_space_estimate")
    with open(os.path.join(out, "probe.csv"), "w") as fh:
        fh.write(",".join(det_fields) + ",note\n")
        for row in rows:
            note = str(row.get("note", "")).replace(",", ";")
            fh.write(",".join(f"{row[k]:.12g}" if isinstance(row[k], float)
                              else str(row[k]) for k in det_fields))
            fh.write(f",{note}\n")
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
