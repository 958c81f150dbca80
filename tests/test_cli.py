"""End-to-end checks of the command-line surface.

Commands are driven in-process through cli.main(argv) so exit codes and
stderr are observable without subprocess overhead; one packaging test
exercises the installed console script for real.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gridgame
from gridgame.cli import LEARN_METHODS, SOLVE_METHODS, main


def run(*argv):
    return main([str(a) for a in argv])


def nan_csv(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("attack,D1,D2\nA1,0.5,nan\nA2,0.2,0.3\n")
    return path


def small_game_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("attack,D1,D2\nA1,0.4,0.9\nA2,0.8,0.1\n")
    return path


@pytest.fixture(scope="module")
def payoff_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("payoff")
    assert run("payoff", "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def matrix_csv(payoff_dir):
    return payoff_dir / "payoff.csv"


def bundled_network_doc(**edits):
    from importlib import resources
    doc = json.loads(resources.files("gridgame.data").joinpath("ieee33.json").read_text())
    doc.update(edits)
    return doc


def scale_a4(value):
    return {"attacks": [{"id": "A4", "effects": [
        {"kind": "scale_load", "target": [20], "value": value}]}]}


def null_load_doc():
    doc = bundled_network_doc()
    doc["buses"][3]["p_kw"] = None
    return doc


MALFORMED_INPUTS = [
    pytest.param("--catalog", [1], id="catalog-top-level-list"),
    pytest.param("--network", [1], id="network-top-level-list"),
    pytest.param("--catalog", {"attacks": ["x"]}, id="catalog-entry-not-object"),
    pytest.param("--catalog", {"replace": True, "attacks": [{"id": [1]}]}, id="list-action-id"),
    pytest.param("--catalog", {"defenses": [{"id": "D9", "effects": [
        {"kind": "shed_threshold"}]}]}, id="shed-threshold-without-value"),
    pytest.param("--catalog", scale_a4("2"), id="string-value"),
    pytest.param("--catalog", scale_a4(True), id="bool-value"),
    pytest.param("--catalog", scale_a4(float("inf")), id="infinite-value"),
    pytest.param("--network", null_load_doc(), id="null-bus-load"),
    pytest.param("--network", bundled_network_doc(critical_buses=5), id="critical-buses-not-list"),
]


class TestPayoff:
    @pytest.mark.parametrize("flag, doc", MALFORMED_INPUTS)
    def test_malformed_input_exits_2(self, flag, doc, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))  # writes the Infinity literal json.load accepts
        out = tmp_path / "o"
        assert run("payoff", flag, path, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "payoff.csv").exists()

    def test_full_matrix_dimensions(self, payoff_dir):
        lines = (payoff_dir / "payoff.csv").read_text().strip().splitlines()
        assert len(lines) == 11  # header + 10 attacks
        assert len(lines[1].split(",")) == 11  # id + 10 defenses
        long_rows = (payoff_dir / "payoff_long.csv").read_text().strip().splitlines()
        assert long_rows[0] == "attack,defense,score"
        assert len(long_rows) == 101

    def test_flag_file(self, payoff_dir, tmp_path):
        blob = (payoff_dir / "payoff_flags.csv").read_bytes()
        rows = [r.split(",") for r in blob.decode().splitlines()]
        assert rows[0] == ["attack", "defense", "flag"]
        header = (payoff_dir / "payoff.csv").read_text().splitlines()
        attacks = [line.split(",")[0] for line in header[1:]]
        defenses = header[0].split(",")[1:]
        keys = [(attacks.index(a), defenses.index(d), f) for a, d, f in rows[1:]]
        assert keys == sorted(keys)  # catalog order, flags sorted per cell
        assert len({k[:2] for k in keys}) == 39
        assert run("payoff", "--out", tmp_path) == 0
        assert (tmp_path / "payoff_flags.csv").read_bytes() == blob

    def test_matrix_read_from_csv_writes_flag_header_alone(self, matrix_csv, tmp_path):
        from gridgame.resilience import PayoffMatrix
        PayoffMatrix.from_csv(matrix_csv).to_flags_csv(tmp_path / "flags.csv")
        assert (tmp_path / "flags.csv").read_text().splitlines() == ["attack,defense,flag"]

    def test_single_attack_catalog(self, tmp_path):
        cat = tmp_path / "one.json"
        cat.write_text(json.dumps({
            "replace": True,
            "attacks": [{"id": "A6",
                         "effects": [{"kind": "trip_line", "target": "3-4"}]}],
        }))
        out = tmp_path / "out"
        assert run("payoff", "--catalog", cat, "--out", out) == 0
        lines = (out / "payoff.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("A6,")

    def test_missing_network_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.json"
        code = run("payoff", "--network", missing, "--out", tmp_path / "o")
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_nan_load_rejected_with_exit_2(self, tmp_path, capsys):
        doc = bundled_network_doc()
        doc["buses"][3]["p_kw"] = float("nan")
        net = tmp_path / "nan.json"
        net.write_text(json.dumps(doc))  # writes the NaN literal json.load accepts
        code = run("payoff", "--network", net, "--out", tmp_path / "o")
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "payoff.csv").exists()

    def test_ahp_matrix_of_wrong_order_rejected(self, tmp_path, capsys):
        ahp = tmp_path / "ahp.csv"
        ahp.write_text("1,2\n0.5,1\n")  # valid reciprocal, but 2 criteria
        code = run("payoff", "--ahp", ahp, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "4x4" in err and "LSR, CLR, TSS, DRS" in err
        assert not (tmp_path / "o" / "payoff.csv").exists()

    def test_manifest_digests_verify(self, payoff_dir):
        import hashlib
        manifest = json.loads((payoff_dir / "manifest.json").read_text())
        assert manifest["artifact_version"]
        assert manifest["inputs"]["network"] == "bundled:ieee33"
        for name, digest in manifest["outputs"].items():
            blob = (payoff_dir / name).read_bytes()
            assert digest == "sha256:" + hashlib.sha256(blob).hexdigest()


class TestSolve:
    def test_nash_on_1x1(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("attack,D1\nA1,0.7323\n")
        out = tmp_path / "out"
        assert run("solve", "--method", "nash", "--matrix", m, "--out", out) == 0
        eq = json.loads((out / "equilibrium.json").read_text())
        assert eq["value"] == pytest.approx(0.7323, abs=1e-12)
        assert eq["defender_probs"] == [1.0]

    def test_stackelberg_json_shape(self, matrix_csv, tmp_path):
        out = tmp_path / "out"
        assert run("solve", "--method", "stackelberg",
                   "--matrix", matrix_csv, "--out", out) == 0
        eq = json.loads((out / "equilibrium.json").read_text())
        assert set(eq) == {"method", "defense", "security_level",
                           "attacker_response"}
        assert eq["defense"].startswith("D")
        assert eq["attacker_response"].startswith("A")
        assert 0.0 <= eq["security_level"] <= 1.0

    def test_regret_trajectory_row_count(self, matrix_csv, tmp_path):
        out = tmp_path / "out"
        assert run("solve", "--method", "regret", "--iters", 10_000,
                   "--seed", 3, "--matrix", matrix_csv, "--out", out) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        # sampling stride is max(1, T // 1000)
        assert len(lines) == 1 + 10_000 // 10
        assert lines[0] == "iteration,avg_regret_attacker,avg_regret_defender,value"

    def test_qre_nonconvergence_is_data_not_failure(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("attack,D1,D2\nA1,1,0\nA2,0,1\n")
        out = tmp_path / "out"
        assert run("solve", "--method", "qre", "--beta", 5.0,
                   "--matrix", m, "--out", out) == 0
        eq = json.loads((out / "equilibrium.json").read_text())
        assert eq["method"] == "qre"
        assert isinstance(eq["converged"], bool)

    @pytest.mark.parametrize("method", SOLVE_METHODS)
    def test_non_finite_matrix_rejected_with_exit_2(self, method, tmp_path, capsys):
        code = run("solve", "--method", method, "--matrix", nan_csv(tmp_path),
                   "--out", tmp_path / "out")
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "equilibrium.json").exists()

    @pytest.mark.parametrize("flags", [
        ("--method", "fp", "--iters", "0"),
        ("--method", "regret", "--iters", "-3"),
        ("--method", "qre", "--beta", "-1"),
        ("--method", "qre", "--beta", "nan"),
        ("--method", "qre", "--beta", "inf"),
    ])
    def test_bad_solver_input_rejected_with_exit_2(self, flags, matrix_csv, tmp_path,
                                                    capsys):
        code = run("solve", *flags, "--matrix", matrix_csv, "--out", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out" / "equilibrium.json").exists()

    def test_unknown_method_rejected_by_parser(self, matrix_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("solve", "--method", "simplex", "--matrix", matrix_csv,
                "--out", tmp_path / "out")
        assert exc.value.code == 2


class TestLearn:
    @pytest.mark.parametrize("method", LEARN_METHODS)
    def test_non_finite_matrix_rejected_with_exit_2(self, method, tmp_path, capsys):
        code = run("learn", "--method", method, "--iters", 100,
                   "--matrix", nan_csv(tmp_path), "--out", tmp_path / "out")
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "telemetry.csv").exists()

    @pytest.mark.parametrize("method", LEARN_METHODS)
    def test_unbounded_rewards_rejected_with_exit_2(self, method, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text("attack,D1,D2\nA1,5.0,0.1\nA2,0.2,0.3\n")
        code = run("learn", "--method", method, "--iters", 100,
                   "--matrix", m, "--out", tmp_path / "out")
        assert code == 2
        assert "bounded by 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "telemetry.csv").exists()

    def test_single_recovers_best_response_to_uniform(self, matrix_csv, tmp_path):
        out = tmp_path / "out"
        assert run("learn", "--method", "single", "--iters", 30_000,
                   "--matrix", matrix_csv, "--out", out) == 0
        policy = json.loads((out / "policy.json").read_text())
        rows = np.loadtxt(matrix_csv, delimiter=",", skiprows=1,
                          usecols=range(1, 11))
        assert policy["contexts"][0]["greedy"] == int(rows.mean(axis=0).argmax())
        telemetry = (out / "telemetry.csv").read_text().strip().splitlines()
        assert telemetry[0] == "episode,epsilon,alpha,reward,q_max_delta"
        assert len(telemetry) > 100

    def test_config_file_with_flag_override(self, matrix_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"episodes": 5000, "seed": 9,
                                   "epsilon_decay": 0.999}))
        out = tmp_path / "out"
        assert run("learn", "--method", "single", "--config", cfg,
                   "--iters", 2000, "--matrix", matrix_csv, "--out", out) == 0
        policy = json.loads((out / "policy.json").read_text())
        # flag wins over file, file wins over default
        assert policy["episodes"] == 2000
        assert policy["config"]["seed"] == 9

    def test_unknown_config_key_rejected(self, matrix_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"episodez": 5000}))
        code = run("learn", "--method", "single", "--config", cfg,
                   "--matrix", matrix_csv, "--out", tmp_path / "out")
        assert code == 2
        assert "episodez" in capsys.readouterr().err

    @pytest.mark.parametrize("content,field", [
        ("5", "JSON object"),
        ("[1, 2]", "JSON object"),
        ('{"episodes": "10"}', "episodes"),
        ('{"episodes": 1e3}', "episodes"),
        ('{"episodes": true}', "episodes"),
        ('{"seed": 1.5}', "seed"),
        ('{"alpha_power": "x"}', "alpha_power"),
        ('{"alpha_constant": NaN}', "alpha_constant"),
    ])
    def test_ill_typed_config_rejected(self, content, field, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        out = tmp_path / "out"
        code = run("learn", "--method", "single", "--config", cfg,
                   "--matrix", small_game_csv(tmp_path), "--out", out)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_multi_writes_both_policies(self, matrix_csv, tmp_path):
        out = tmp_path / "out"
        assert run("learn", "--method", "multi", "--iters", 20_000,
                   "--matrix", matrix_csv, "--out", out) == 0
        result = json.loads((out / "result.json").read_text())
        assert set(result) == {"value", "converged"}
        for side in ("attacker", "defender"):
            policy = json.loads((out / f"{side}_policy.json").read_text())
            assert policy["side"] == side

    def test_mdp_reports_per_state_values(self, tmp_path):
        out = tmp_path / "out"
        assert run("learn", "--method", "mdp", "--iters", 20_000,
                   "--gamma", 0.9, "--out", out) == 0
        result = json.loads((out / "result.json").read_text())
        assert set(result["values"]) == {"normal", "degraded", "critical"}
        # discounted sums of [0,1] rewards
        for v in result["values"].values():
            assert 0.0 <= v <= 1.0 / (1.0 - 0.9) + 1e-6


class TestBaseline:
    def test_sod_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run("baseline", "--method", "SOD", "--runs", 20,
                   "--seed", 1, "--out", out) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["label"] == "SOD"
        assert stats["samples"] == 20
        assert 0.0 < stats["mean"] <= 1.0
        runs = (out / "runs.csv").read_text().strip().splitlines()
        assert runs[0] == "run,attack,defense,score"
        assert len(runs) == 21
        policy = json.loads((out / "policy.json").read_text())
        assert len(policy["mixes"]) == 10
        assert "column_means" in policy["provenance"]

    def test_rbd_uses_rule_table(self, tmp_path):
        out = tmp_path / "out"
        assert run("baseline", "--method", "RBD", "--runs", 5,
                   "--attack-dist", "uniform", "--out", out) == 0
        policy = json.loads((out / "policy.json").read_text())
        assert "rules" in policy["provenance"]

    def test_rbd_on_catalog_without_bundled_defense_ids(self, tmp_path):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps({"replace": True, "defenses": [
            {"id": "N0", "effects": []},
            {"id": "S1", "effects": [{"kind": "shed_fraction",
                                      "target": "non-critical", "value": 0.3}]},
        ]}))
        out = tmp_path / "out"
        assert run("baseline", "--method", "RBD", "--runs", 5, "--catalog", catalog,
                   "--out", out) == 0
        rules = json.loads((out / "policy.json").read_text())["provenance"]["rules"]
        assert {r["defense"] for r in rules} == {"N0", "S1"}
        assert next(r for r in rules if r["attack"] == "A4")["defense"] == "S1"


def edited_csv(src, dst, edit):
    """Copy a payoff CSV, with edit(rows) applied to its split rows."""
    rows = [line.split(",") for line in src.read_text().splitlines()]
    edit(rows)
    dst.write_text("".join(",".join(r) + "\n" for r in rows))
    return dst


def swap_first_defenses(rows):
    rows[0][1], rows[0][2] = rows[0][2], rows[0][1]


def repeat_first_attack(rows):
    rows[2][0] = rows[1][0]


class TestMatrixMatchesCatalog:
    """baseline and compare score --matrix cells as the catalog's actions by
    position, so its ids must be the catalog's, in catalog order."""

    @pytest.mark.parametrize("argv,edit,written", [
        (("baseline", "--method", "RBD", "--runs", 5), None, "stats.json"),
        (("compare", "--methods", "RDS,SOD", "--runs", 2), swap_first_defenses,
         "stats.json"),
        (("compare", "--methods", "RDS,SOD", "--runs", 2), repeat_first_attack,
         "stats.json"),
        (("solve", "--method", "nash"), repeat_first_attack, "equilibrium.json"),
    ], ids=["rbd-2x2", "compare-swapped-defenses", "compare-repeated-attack",
            "solve-repeated-attack"])
    def test_mismatch_rejected_with_exit_2(self, argv, edit, written, matrix_csv,
                                           tmp_path, capsys):
        if edit is None:
            path = small_game_csv(tmp_path)
        else:
            path = edited_csv(matrix_csv, tmp_path / "edited.csv", edit)
        out = tmp_path / "out"
        assert run(*argv, "--matrix", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert "catalog" in err or "repeats attack ids" in err
        assert not (out / written).exists()

    def test_bundled_matrix_accepted(self, matrix_csv, tmp_path):
        out = tmp_path / "out"
        assert run("compare", "--methods", "RDS,SOD", "--runs", 2,
                   "--matrix", matrix_csv, "--out", out) == 0
        assert (out / "stats.json").exists()


class TestCompare:
    def test_all_methods_yfield_nine_rows(self, tmp_path):
        out = tmp_path / "out"
        assert run("compare", "--methods", "all", "--runs", 4,
                   "--seed", 0, "--out", out) == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "method,mean,std_dev,ci95_low,ci95_high,improvement_pct"
        assert len(lines) == 10
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "RDS", "RBD", "SOD", "nash", "stackelberg", "regret",
            "softmax", "qlearn", "maql"]
        stats = json.loads((out / "stats.json").read_text())
        assert stats["reference"] == "RDS"
        assert set(stats["methods"]) == set(ln.split(",")[0] for ln in lines[1:])
        # every adaptive-vs-baseline pair gets a paired test entry
        assert len(stats["t_tests"]) == 18

    def test_single_run_degenerate_ci(self, tmp_path):
        out = tmp_path / "out"
        assert run("compare", "--methods", "RDS,SOD", "--runs", 1,
                   "--out", out) == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        for ln in lines[1:]:
            _, mean, std, lo, hi, _ = ln.split(",")
            assert float(std) == 0.0
            assert float(lo) == float(mean) == float(hi)

    def test_bad_method_tag(self, tmp_path, capsys):
        code = run("compare", "--methods", "nash,bogus", "--runs", 2,
                   "--out", tmp_path / "out")
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_wall_times_live_in_manifest_only(self, tmp_path):
        out = tmp_path / "out"
        assert run("compare", "--methods", "RDS,SOD", "--runs", 3,
                   "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["timings_s"]) == {"RDS", "SOD"}
        assert "wall" not in (out / "comparison.csv").read_text()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run("compare", "--methods", "RDS,SOD,nash", "--runs", 8,
                       "--seed", 11, "--out", out) == 0
            outs.append(out)
        d1, d2 = outs
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            if name == "manifest.json":
                continue
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        # outputs hashed identically; only provenance metadata may move
        assert m1["outputs"] == m2["outputs"]
        assert m1["config_digest"] == m2["config_digest"]

    def test_solve_rerun_identical(self, matrix_csv, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run("solve", "--method", "regret", "--iters", 5000,
                       "--seed", 2, "--matrix", matrix_csv, "--out", out) == 0
            blobs.append(((out / "equilibrium.json").read_bytes(),
                          (out / "trajectory.csv").read_bytes()))
        assert blobs[0] == blobs[1]


class TestProbe:
    def test_smallest_size_row(self, tmp_path):
        out = tmp_path / "out"
        assert run("probe", "--sizes", "33", "--out", out) == 0
        lines = (out / "probe.csv").read_text().strip().splitlines()
        assert lines[0].startswith("buses,ders,switches,state_space_log2")
        assert len(lines) == 2
        assert lines[1].startswith("33,4,4,41,")
        assert "2.1e6" in lines[1]  # conflicting published estimate noted
        rows = json.loads((out / "probe.json").read_text())
        assert rows[0]["state_space_log2"] == 41
        manifest = json.loads((out / "manifest.json").read_text())
        assert "33" in manifest["timings_s"]
        assert "wall_time_s" in manifest["timings_s"]["33"]


def _child_env():
    # the child finds the package the way this process did, whether or not
    # PYTHONPATH was set
    root = os.path.dirname(os.path.dirname(os.path.abspath(gridgame.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))


_LOADED_MODULES = """
import json, sys
from gridgame.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gridgame"))]))
"""


class TestImports:
    """Each command is a process of its own, so the layers it imports are its
    start-up cost; a command imports only the layers it runs."""

    def loaded_layers(self, *argv):
        proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *map(str, argv)],
                              env=_child_env(), capture_output=True, text=True)
        code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
        assert code == 0, proc.stderr
        return {m.split(".")[1] for m in modules if "." in m}

    @pytest.mark.parametrize("method", SOLVE_METHODS)
    def test_solve_from_matrix(self, method, tmp_path):
        layers = self.loaded_layers("solve", "--method", method, "--iters", 50,
                                    "--matrix", small_game_csv(tmp_path),
                                    "--out", tmp_path / "out")
        assert "gamesolve" in layers
        assert not layers & {"scenario", "experiments", "marl", "netmodel", "backend"}

    @pytest.mark.parametrize("method", LEARN_METHODS)
    def test_learn_from_matrix(self, method, tmp_path):
        layers = self.loaded_layers("learn", "--method", method, "--iters", 50,
                                    "--matrix", small_game_csv(tmp_path),
                                    "--out", tmp_path / "out")
        assert {"gamesolve", "marl"} <= layers
        assert not layers & {"scenario", "experiments", "netmodel", "backend"}

    def test_payoff(self, tmp_path):
        layers = self.loaded_layers("payoff", "--out", tmp_path / "out")
        assert {"netmodel", "scenario"} <= layers
        assert not layers & {"gamesolve", "marl", "experiments", "backend"}

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_parser_alone(self, flag):
        assert not self.loaded_layers(flag) & {"scenario", "experiments", "marl",
                                                "netmodel", "gamesolve", "backend"}


class TestPackaging:
    @pytest.mark.skipif(shutil.which("gridgame") is None,
                        reason="no installed 'gridgame' console script on PATH")
    def test_console_script_round_trip(self, tmp_path):
        proc = subprocess.run(
            ["gridgame", "solve", "--method", "nash",
             "--matrix", str(small_game_csv(tmp_path)), "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        eq = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
        # pennies-like game, interior equilibrium
        assert 0.1 < eq["value"] < 0.9

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "gridgame", "--version"],
                              env=_child_env(), capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()
