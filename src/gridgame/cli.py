"""Command-line surface tying the modules into reproducible workflows.

Subcommands: payoff, solve, learn, baseline, compare, probe.  A handler
writes nothing: it returns an ``Output`` (data files by name, manifest
fields, summary line) to ``_write_output``, the one writer, which makes
--out (an existing file at or above it is an input error, found before any
work), removes the files an earlier manifest.json in it lists and that
still hold what it recorded (never an input of the command), writes each
file, and last a manifest.json over exactly those files: the command line,
the resolved configuration and its digest, input/output file digests, and
wall times.  Data files depend only on (inputs, seed), so
a rerun reproduces them byte for byte; everything volatile lives in the
manifest.  JSON goes through ``_write_json`` (indent 2, sorted keys, final
newline), a ``(header, rows)`` CSV through ``_write_csv`` (the ``csv``
module's default dialect: minimal quoting, CRLF line ends; floats at 12
significant digits), and payoff.csv through ``PayoffMatrix.to_csv`` in the
same dialect, since it is also the --matrix input format.

Exit codes: 0 success (solver non-convergence is data, not failure),
2 input error, 3 internal error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from . import (ADAPTIVE_TAGS, ATTACK_DISTRIBUTIONS, BASELINE_TAGS,
               DEFAULT_BETA, METHOD_TAGS, __version__)
from .errors import (CatalogError, ConfigError, GridGameError,
                     NetworkParseError, NetworkValidationError,
                     RadialityError, SolverError, read_json)
# build_payoff_matrix stays a module global: the benchmark's tracer wraps it here
from .resilience import (DEFAULT_AHP_MATRIX, PayoffMatrix, ahp_weights,
                         build_payoff_matrix, load_ahp_matrix, nominal_payoff)

if TYPE_CHECKING:
    from . import marl

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
    PermissionError, ValueError,
)


# ---------------------------------------------------------------------------
# the one writer


@dataclasses.dataclass
class Output:
    """What a subcommand made: ``files`` maps a data file's name to a JSON
    value, a ``(header, rows)`` CSV or the PayoffMatrix of payoff.csv; the
    rest are manifest fields, ``extra`` holding ``timings_s`` and ``policies``."""
    files: dict
    config: dict
    inputs: dict
    summary: str
    seed: int | None = None
    extra: dict = dataclasses.field(default_factory=dict)


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


def _check_out(out) -> None:
    """--out, or else the nearest of its parents that exists, is a directory;
    checked before any work runs."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out}: {path} exists and is not a directory")


def _remove_listed_outputs(out, inputs) -> None:
    """Remove the data files an earlier manifest in --out lists, so the
    directory holds no output the new manifest does not list.  A file goes
    only if it is a plain file name inside --out, still holds the content
    whose digest that manifest recorded, and is none of this command's
    inputs.  The old manifest goes first, so no manifest is left listing a
    removed file if a write then fails; files no manifest lists stay."""
    manifest_path = os.path.join(out, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):  # no manifest, or not one we could have written
        return
    listed = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(listed, dict):
        return
    os.remove(manifest_path)
    read = {os.path.realpath(rec["path"]) for rec in inputs.values() if isinstance(rec, dict)}
    for name, digest in listed.items():
        path = os.path.join(out, name)
        if (name == os.path.basename(name) and os.path.isfile(path)
                and os.path.realpath(path) not in read and _sha256(path) == digest):
            os.remove(path)


def _write_output(output: Output, out, argv) -> None:
    """Make --out, write every data file, then the manifest listing them."""
    os.makedirs(out, exist_ok=True)
    _remove_listed_outputs(out, output.inputs)
    digests = {}
    for name, data in output.files.items():
        path = os.path.join(out, name)
        if isinstance(data, PayoffMatrix):
            data.to_csv(path)
        elif name.endswith(".csv"):
            _write_csv(path, *data)
        else:
            _write_json(data, path)
        digests[name] = _sha256(path)
    config_digest = hashlib.sha256(
        json.dumps(output.config, sort_keys=True, default=_tolist).encode()).hexdigest()
    _write_json({
        "artifact_version": __version__,
        "command": list(argv),
        "config": output.config,
        "config_digest": "sha256:" + config_digest,
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "inputs": output.inputs,
        "outputs": digests,
        "seed": output.seed,
        **output.extra,
    }, os.path.join(out, "manifest.json"))
    print(f"{output.summary} -> {out}")


# ---------------------------------------------------------------------------
# shared input loading


def _input_record(path, bundled_tag):
    """Digest a user-supplied input file, or name the bundled default."""
    if path is None:
        return "bundled:" + bundled_tag
    return {"path": str(path), "sha256": _sha256(path)}


def _load_inputs(args):
    """((net, cat, weights), inputs) from --network, --catalog and --ahp, else bundled."""
    from .netmodel import load_ieee33, load_network
    from .scenario import catalog_default, load_catalog

    net = load_network(args.network) if args.network else load_ieee33()
    cat = load_catalog(args.catalog) if args.catalog else catalog_default()
    weights = ahp_weights(load_ahp_matrix(args.ahp) if args.ahp else DEFAULT_AHP_MATRIX)
    inputs = {
        "network": _input_record(args.network, "ieee33"),
        "catalog": _input_record(args.catalog, "catalog-" + cat.version),
        "ahp": _input_record(args.ahp, "ahp-default"),
    }
    return (net, cat, weights), inputs


def _resolve_matrix(args, need_bundle=False):
    """Payoff matrix from --matrix CSV, else scored from the plan table.

    The only reader of --matrix.  Returns (matrix, inputs, bundle) where
    bundle is (net, cat, weights, plans), ``plans`` compiled once for the
    whole command; it is None when the matrix was read from CSV and the
    caller did not ask for the network inputs as well.  Such a caller reads
    nothing of the network inputs, so naming one with --matrix is an error.
    """
    path = getattr(args, "matrix", None)
    if path and not need_bundle:
        unused = [f"--{k}" for k in ("network", "catalog", "ahp") if getattr(args, k)]
        if unused:
            raise ConfigError(f"--matrix excludes {', '.join(unused)}: "
                              f"{args.cmd} reads no network input from a matrix")
        return PayoffMatrix.from_csv(path), {"matrix": _input_record(path, "")}, None
    from .scenario import compile_catalog

    (net, cat, weights), inputs = _load_inputs(args)
    if path:
        matrix = PayoffMatrix.from_csv(path)
        # rows and columns are scored as the catalog's actions by position
        ids = (tuple(a.id for a in cat.attacks), tuple(d.id for d in cat.defenses))
        if (matrix.attack_ids, matrix.defense_ids) != ids:
            raise ConfigError(
                f"{path}: matrix ids {list(matrix.attack_ids)} x "
                f"{list(matrix.defense_ids)} do not match the catalog's "
                f"{list(ids[0])} x {list(ids[1])} in catalog order")
        inputs["matrix"] = _input_record(path, "")
    plans = compile_catalog(net, cat)
    if not path:
        matrix = nominal_payoff(plans, cat, weights)
    return matrix, inputs, (net, cat, weights, plans)


# ---------------------------------------------------------------------------
# subcommands


def cmd_payoff(args) -> Output:
    # the one command that writes the voltage flags, so the one that solves flows
    (net, cat, weights), inputs = _load_inputs(args)
    matrix = build_payoff_matrix(net, cat, weights)
    files = {
        "payoff.csv": matrix,
        "payoff_long.csv": (["attack", "defense", "score"],
                            [[aid, did, matrix.entries[i, j]]
                             for i, aid in enumerate(matrix.attack_ids)
                             for j, did in enumerate(matrix.defense_ids)]),
        # flagged cells in catalog order, flags sorted per cell
        "payoff_flags.csv": (["attack", "defense", "flag"],
                             [[matrix.attack_ids[i], matrix.defense_ids[j], flag]
                              for i, j in sorted(matrix.cell_flags)
                              for flag in sorted(matrix.cell_flags[i, j])]),
    }
    config = {"command": "payoff",
              "ahp_weights": list(weights.w),
              "consistency_ratio": weights.consistency_ratio,
              "shape": list(matrix.shape)}
    return Output(files, config, inputs,
                  f"payoff: {matrix.shape[0]}x{matrix.shape[1]} matrix")


def cmd_solve(args) -> Output:
    from . import gamesolve

    matrix, inputs, _ = _resolve_matrix(args)
    if args.method == "stackelberg":
        j, value, i = gamesolve.stackelberg(matrix.entries)
        files = {"equilibrium.json": {
            "method": "stackelberg",
            "defense": matrix.defense_ids[j],
            "security_level": value,
            "attacker_response": matrix.attack_ids[i],
        }}
    elif args.method == "qre":
        res = gamesolve.qre_fixed_point(matrix.entries, args.beta, args.beta)
        # non-convergence is reported, not fatal
        files = {"equilibrium.json": {
            "method": "qre",
            "beta": args.beta,
            "attacker_probs": list(res.attacker.probs),
            "defender_probs": list(res.defender.probs),
            "converged": bool(res.converged),
            "iterations": res.iterations,
            "residual": res.residual,
        }}
    else:
        if args.method == "nash":
            report = gamesolve.nash_exact(matrix.entries)
        elif args.method == "fp":
            report = gamesolve.nash_fictitious_play(matrix.entries, max_iters=args.iters)
        else:
            report = gamesolve.regret_matching(matrix.entries, T=args.iters)
        files = {"equilibrium.json": report.to_json()}
        if report.trajectory:
            files["trajectory.csv"] = (
                ["iteration", "avg_regret_attacker", "avg_regret_defender", "value"],
                [[int(it), *rest] for it, *rest in report.trajectory])

    # record only the knobs the method reads, so equal results share a digest;
    # no solve method draws random numbers, so the seed is not one of them
    config = {"command": "solve", "method": args.method}
    if args.method in ("fp", "regret"):
        config["iters"] = args.iters
    if args.method == "qre":
        config["beta"] = args.beta
    return Output(files, config, inputs, f"solve[{args.method}]", seed=args.seed)


def _learning_config(args) -> marl.LearningConfig:
    """Defaults, overlaid by --config JSON, overlaid by explicit flags; the
    file over the defaults is checked on its own, so its errors name it."""
    from . import marl

    fields = dataclasses.asdict(marl.LearningConfig())
    if args.config:
        loaded = read_json(args.config, ConfigError)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: learning config must be a JSON object")
        unknown = set(loaded) - set(fields)
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys: {sorted(unknown)}")
        fields.update(loaded)
        try:
            marl.LearningConfig(**fields)
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    for flag, key in (("iters", "episodes"), ("epsilon0", "epsilon0"),
                      ("decay", "epsilon_decay"), ("gamma", "gamma"),
                      ("seed", "seed")):
        val = getattr(args, flag)
        if val is not None:
            fields[key] = val
    return marl.LearningConfig(**fields)


def cmd_learn(args) -> Output:
    from . import gamesolve, marl

    config = _learning_config(args)
    matrix, inputs, bundle = _resolve_matrix(args)
    if args.config:
        inputs["config"] = _input_record(args.config, "")

    if args.method == "single":
        opponent = gamesolve.MixedStrategy.uniform(matrix.shape[0])
        policy = marl.train_single_agent(matrix.entries, opponent, config)
        files = {"policy.json": policy.to_json()}
    elif args.method == "multi":
        result = marl.train_multi_agent(matrix.entries, config)
        files = {"result.json": {"value": result.value,
                                 "converged": bool(result.converged)}}
    else:  # mdp
        # defenses that take no action cannot trigger recovery; the rule only
        # applies when the matrix came from the catalog, a foreign CSV keeps
        # every column active
        active = None
        if bundle is not None:
            cat = bundle[1]
            active = [len(d.effects) > 0 for d in cat.defenses]
        mdp = marl.stage_mdp_default(matrix.entries, defense_active=active)
        result = marl.mdp_train(mdp, config)
        files = {"result.json": {"values": dict(zip(mdp.labels, result.values))}}
    if args.method != "single":
        policy = result.defender
        files["attacker_policy.json"] = result.attacker.to_json()
        files["defender_policy.json"] = policy.to_json()
    # the two sides of a self-play run share its telemetry rows
    files["telemetry.csv"] = (["episode", "epsilon", "alpha", "reward", "q_max_delta"],
                              [[int(ep), *rest] for ep, *rest in policy.telemetry.tolist()])
    return Output(files, {"command": "learn", "method": args.method, **config.provenance()},
                  inputs, f"learn[{args.method}] {config.episodes} episodes",
                  seed=config.seed)


def cmd_baseline(args) -> Output:
    from . import experiments

    mc = experiments.McConfig(runs=args.runs, seed=args.seed,
                              attack_distribution=args.attack_dist)
    matrix, inputs, (net, cat, weights, plans) = _resolve_matrix(args, need_bundle=True)
    policy = experiments.strategy_policy(args.method, matrix, catalog=cat, base=net)
    report = experiments.monte_carlo(plans, weights, policy, mc, matrix=matrix)

    files = {
        "policy.json": {
            "label": policy.label,
            "attack_ids": list(matrix.attack_ids),
            "defense_ids": list(matrix.defense_ids),
            "mixes": policy.mixes,
            "provenance": policy.provenance,
        },
        "stats.json": report.to_json(),
        "runs.csv": (["run", "attack", "defense", "score"],
                     [[run, matrix.attack_ids[a], matrix.defense_ids[d], s] for run, a, d, s
                      in zip(range(mc.runs), report.attack.tolist(), report.defense.tolist(),
                             report.scores.tolist())]),
    }
    config = {"command": "baseline", "method": args.method, "runs": mc.runs,
              "attack_distribution": mc.attack_distribution,
              "perturbation": list(mc.perturbation)}
    return Output(files, config, inputs,
                  f"baseline[{args.method}] mean={report.mean:.4f}", seed=mc.seed)


def _parse_methods(spec: str):
    if spec.strip() == "all":
        return list(METHOD_TAGS)
    tags = [t.strip() for t in spec.split(",") if t.strip()]
    if not tags:
        raise ConfigError("empty --methods list")
    return tags


def cmd_compare(args) -> Output:
    from . import experiments

    methods = _parse_methods(args.methods)
    mc = experiments.McConfig(runs=args.runs, seed=args.seed,
                              attack_distribution=args.attack_dist)
    matrix, inputs, (net, cat, weights, plans) = _resolve_matrix(args, need_bundle=True)
    rows = experiments.compare_strategies(net, cat, plans, weights, methods, mc,
                                          matrix=matrix, reference=args.reference)

    # wall times stay out of the data files, which reruns reproduce byte for byte
    comparison = (["method", "mean", "std_dev", "ci95_low", "ci95_high", "improvement_pct"],
                  [[r.method, r.report.mean, r.report.std_dev, r.report.ci95_low,
                    r.report.ci95_high, r.improvement_pct] for r in rows])
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
    config = {"command": "compare", "methods": [r.method for r in rows],
              "reference": stats["reference"], "runs": mc.runs,
              "attack_distribution": mc.attack_distribution,
              "perturbation": list(mc.perturbation)}
    extra = {
        "timings_s": {r.method: round(r.wall_time_s, 6) for r in rows},
        # what each policy reports of its own making (solver steps and epsilon,
        # training episodes); kept out of config so config_digest does not move
        "policies": {r.method: r.provenance for r in rows},
    }
    return Output({"comparison.csv": comparison, "stats.json": stats}, config, inputs,
                  f"compare[{','.join(r.method for r in rows)}]", seed=mc.seed, extra=extra)


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
            key = f"{a}_vs_{b}"
            try:
                t, p = experiments.paired_t_test(reports[a].scores, reports[b].scores)
                tests[key] = {"t": t, "p": p}
            except SolverError:
                tests[key] = {"note": "degenerate: zero variance of differences"}
            except ConfigError as exc:
                tests[key] = {"note": str(exc)}
    return tests


def cmd_probe(args) -> Output:
    from . import experiments

    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        if min(sizes) < experiments.SYNTH_MIN_BUSES:
            raise ValueError(f"a feeder needs at least {experiments.SYNTH_MIN_BUSES} buses")
    except ValueError as exc:
        raise ConfigError(f"--sizes {args.sizes}: {exc}") from None
    methods = _parse_methods(args.methods)
    rows = experiments.scalability_probe(sizes=sizes, methods=methods,
                                         seed=args.seed)

    # timings are measurements, they go in the manifest so the data files
    # stay reproducible
    det_fields = ("buses", "ders", "switches", "state_space_log2")
    files = {
        "probe.csv": ([*det_fields, "note"],
                      [[*(row[k] for k in det_fields), row.get("note", "")]
                       for row in rows]),
        "probe.json": [{k: row[k] for k in det_fields + ("note",) if k in row}
                       for row in rows],
    }
    timings = {str(row["buses"]): {
        "wall_time_s": round(row["wall_time_s"], 6),
        "method_times": {k: round(v, 6) for k, v in row["method_times"].items()},
    } for row in rows}
    config = {"command": "probe", "sizes": list(sizes), "methods": methods}
    return Output(files, config, {}, f"probe sizes={list(sizes)}", seed=args.seed,
                  extra={"timings_s": timings})


# ---------------------------------------------------------------------------
# parser


class _AtLeastOne(argparse.Action):
    """Stores an int flag of at least 1.  The parser lets the ConfigError
    through to main, so a smaller value exits 2 naming the flag."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise ConfigError(f"{option_string} must be at least 1, got {value}")
        setattr(namespace, self.dest, value)


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
    p.set_defaults(handler=cmd_payoff)
    _add_network_flags(p)

    p = sub.add_parser("solve", help="solve the stage game")
    p.set_defaults(handler=cmd_solve)
    _add_network_flags(p)
    p.add_argument("--matrix", help="payoff matrix CSV (skips building)")
    p.add_argument("--method", required=True, choices=SOLVE_METHODS)
    p.add_argument("--iters", type=int, default=100_000, action=_AtLeastOne,
                   help="step cap of fp and regret (both stop early at their tolerance)")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest only: no solve method draws "
                        "random numbers")

    p = sub.add_parser("learn", help="train Q-learning agents")
    p.set_defaults(handler=cmd_learn)
    _add_network_flags(p)
    p.add_argument("--matrix", help="payoff matrix CSV (skips building)")
    p.add_argument("--method", required=True, choices=LEARN_METHODS)
    p.add_argument("--config", help="learning config JSON")
    p.add_argument("--iters", type=int, default=None, action=_AtLeastOne,
                   help="training episodes")
    p.add_argument("--epsilon0", type=float, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("baseline", help="evaluate one baseline policy")
    p.set_defaults(handler=cmd_baseline)
    _add_network_flags(p)
    p.add_argument("--matrix", help="payoff matrix CSV (skips building)")
    p.add_argument("--method", required=True,
                   choices=BASELINE_TAGS)
    _add_mc_flags(p)

    p = sub.add_parser("compare", help="Monte Carlo comparison table")
    p.set_defaults(handler=cmd_compare)
    _add_network_flags(p)
    p.add_argument("--matrix", help="payoff matrix CSV (skips building)")
    p.add_argument("--methods", default="all",
                   help="'all' or comma list of method tags")
    p.add_argument("--reference", default=None,
                   help="reference method for improvement column")
    _add_mc_flags(p)

    p = sub.add_parser("probe", help="scaling measurements on growing feeders")
    p.set_defaults(handler=cmd_probe)
    p.add_argument("--sizes", default="33,69,118")
    p.add_argument("--methods", default="nash", help="'all' or comma list of method tags")
    p.add_argument("--seed", type=int, default=0)

    # the one writer makes --out for every command
    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(argv)
        _check_out(args.out)
        _write_output(args.handler(args), args.out, argv)
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
