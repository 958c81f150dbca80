"""End-to-end checks of the command-line surface.

Commands are driven in-process through cli.main(argv) so exit codes and
stderr are observable without subprocess overhead; one packaging test
exercises the installed console script for real.
"""
import ast
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridgame
from gridgame import cli
from gridgame.cli import LEARN_METHODS, SOLVE_METHODS, _sha256, main


def run(*argv):
    return main([str(a) for a in argv])


def nan_csv(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("attack,D1,D2\nA1,0.5,nan\nA2,0.2,0.3\n")
    return path


def no_defense_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("attack\nA1\nA2\n")
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


def scale_a4_target(target):
    return {"attacks": [{"id": "A4", "effects": [
        {"kind": "scale_load", "target": target, "value": 1.2}]}]}


def defense_effect(defense_id, kind, target, value):
    return {"defenses": [{"id": defense_id, "effects": [
        {"kind": kind, "target": target, "value": value}]}]}


def infinite_endpoint_doc(key, field):
    doc = bundled_network_doc()
    doc[key][0][field] = float("inf")
    return doc


def null_load_doc():
    doc = bundled_network_doc()
    doc["buses"][3]["p_kw"] = None
    return doc


MALFORMED_INPUTS = [
    pytest.param("--catalog", [1], id="catalog-top-level-list"),
    pytest.param("--network", [1], id="network-top-level-list"),
    pytest.param("--catalog", {"attacks": ["x"]}, id="catalog-entry-not-object"),
    pytest.param("--catalog", {"replace": True, "attacks": [{"id": [1]}]}, id="list-action-id"),
    pytest.param("--catalog", {"attacks": [{"id": "A1", "effects": []}, {"id": "A1", "effects": [
        {"kind": "trip_line", "target": "3-4"}]}]}, id="merge-mode-duplicate-id"),
    pytest.param("--catalog", {"defenses": [{"id": "D9", "effects": [
        {"kind": "shed_threshold"}]}]}, id="shed-threshold-without-value"),
    pytest.param("--catalog", scale_a4("2"), id="string-value"),
    pytest.param("--catalog", scale_a4(True), id="bool-value"),
    pytest.param("--catalog", scale_a4(float("inf")), id="infinite-value"),
    pytest.param("--network", null_load_doc(), id="null-bus-load"),
    pytest.param("--network", bundled_network_doc(critical_buses=5), id="critical-buses-not-list"),
    pytest.param("--network", infinite_endpoint_doc("buses", "id"), id="infinite-bus-id"),
    pytest.param("--network", infinite_endpoint_doc("lines", "from"), id="infinite-line-from"),
    pytest.param("--network", infinite_endpoint_doc("lines", "to"), id="infinite-line-to"),
    pytest.param("--catalog", {"version": 1.5}, id="number-version"),
    pytest.param("--catalog", scale_a4_target([[20]]), id="list-in-target-list"),
    pytest.param("--catalog", scale_a4_target([{}]), id="object-in-target-list"),
    pytest.param("--catalog", scale_a4_target([20, float("inf")]), id="infinite-target"),
    pytest.param("--catalog", scale_a4_target([20.7]), id="fractional-target"),
    pytest.param("--catalog", scale_a4_target(True), id="bool-target"),
    pytest.param("--catalog", {"attacks": [{"id": "A1", "label": float("nan"), "effects": []}]},
                 id="nan-label"),
    pytest.param("--catalog", {"replace": True, "attacks": [{"id": "D1", "effects": []}]},
                 id="replace-attack-id-clashes-with-default-defense"),
    pytest.param("--catalog", {"replace": "false", "attacks": [{"id": "A6", "effects": []}]},
                 id="string-replace"),
    # values each with_* derivation checks, since it skips the full validator
    pytest.param("--catalog", scale_a4(-1.0), id="negative-scale"),
    pytest.param("--catalog", defense_effect("D8", "shed_fraction", "non-critical", 1.5),
                 id="shed-fraction-above-one"),
    pytest.param("--catalog", defense_effect("D6", "set_der_dispatch", "DER1", 1.5),
                 id="dispatch-above-one"),
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

    def test_matrix_read_from_csv_writes_flag_header_alone(self, matrix_csv, tmp_path,
                                                            monkeypatch):
        # a payoff CSV carries no cell flags, so its flag file is the header
        from gridgame import cli
        from gridgame.resilience import PayoffMatrix
        matrix = PayoffMatrix.from_csv(matrix_csv)
        monkeypatch.setattr(cli, "build_payoff_matrix", lambda *args: matrix)
        assert run("payoff", "--out", tmp_path) == 0
        assert (tmp_path / "payoff_flags.csv").read_bytes() == b"attack,defense,flag\r\n"

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
        assert capsys.readouterr().err.startswith(
            f"error: {net} buses[3]: 'p_kw' nan is not a finite number")
        assert not (tmp_path / "o" / "payoff.csv").exists()

    def test_ahp_matrix_of_wrong_order_rejected(self, tmp_path, capsys):
        ahp = tmp_path / "ahp.csv"
        ahp.write_text("1,2\n0.5,1\n")  # valid reciprocal, but 2 criteria
        code = run("payoff", "--ahp", ahp, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "4x4" in err and "LSR, CLR, TSS, DRS" in err
        assert not (tmp_path / "o" / "payoff.csv").exists()

    @pytest.mark.parametrize("name, content", [
        ("ahp.json", "[[1,2],"),
        ("ahp.json", "[[1,2],[3]]"),
        ("ahp.json", "[[1,{}]]"),
        ("ahp.csv", "1,x\n"),
    ], ids=["truncated-json", "ragged-json", "object-entry", "non-numeric-csv"])
    def test_malformed_ahp_matrix_names_its_path(self, name, content, tmp_path, capsys):
        ahp = tmp_path / name
        ahp.write_text(content)
        out = tmp_path / "o"
        assert run("payoff", "--ahp", ahp, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {ahp}: AHP comparison matrix is not a table of numbers (")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["x", float("nan")], ids=["string", "nan"])
    def test_catalog_action_error_names_its_path(self, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"attacks": [{"id": "A1", "effects": [
            {"kind": "scale_load", "target": [20], "value": value}]}]}))
        out = tmp_path / "o"
        assert run("payoff", "--catalog", path, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: A1: scale_load value {value!r} is not a finite number")
        assert not out.exists()

    @pytest.mark.parametrize("kind, target, shape", [
        ("trip_line", 0, 'a line, "a-b" or [a, b] with integer bus ids'),
        ("close_switch", 5, "a switch id string"),
        ("trip_der", {}, '"*", a DER id or an integer bus id'),
        ("scale_load", "all", '"*", "non-critical", an integer bus id or a list of them'),
    ], ids=["line", "switch", "der", "buses"])
    def test_catalog_target_shape_error_names_its_path(self, kind, target, shape,
                                                       tmp_path, capsys):
        # whether a target fits its kind is the file's error, found before any cell
        path = tmp_path / "bad.json"
        side = "defenses" if kind == "close_switch" else "attacks"
        path.write_text(json.dumps({side: [{"id": "X", "effects": [
            {"kind": kind, "target": target}]}]}))
        out = tmp_path / "o"
        assert run("payoff", "--catalog", path, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: X: {kind} target {target!r} is not {shape}")
        assert not out.exists()

    @pytest.mark.parametrize("doc, reason", [
        ({"replace": True, "attacks": [{"id": "D1", "effects": []}]},
         "duplicate action ids in catalog: ['D1']"),
        ({"attacks": [{"id": "A99", "effects": []}]}, "unknown attack id 'A99'"),
    ], ids=["replace-clash", "unknown-id"])
    def test_catalog_merge_error_names_its_path(self, doc, reason, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run("payoff", "--catalog", path, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {reason}")
        assert not out.exists()

    @pytest.mark.parametrize("rows, reason", [
        ([[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, "nan"], [1, 1, 1, 1]],
         "entry at row 3, column 4 is missing or not finite"),
        ([[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, 1]], "entries must be positive"),
        ([[1, 2, 1, 1], [2, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]], "is not reciprocal"),
    ], ids=["null-entry", "negative-entry", "not-reciprocal"])
    def test_bad_ahp_matrix_names_its_path(self, rows, reason, tmp_path, capsys):
        ahp = tmp_path / "m.csv"
        ahp.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        out = tmp_path / "o"
        assert run("payoff", "--ahp", ahp, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {ahp}: comparison matrix {reason}")
        assert not out.exists()

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
        assert lines[0] == "iteration,avg_regret_attacker,avg_regret_defender,value"
        # a row every max(1, T // 1000) steps and one at the stop
        assert len(lines) <= 1 + 10_000 // 10
        eq = json.loads((out / "equilibrium.json").read_text())
        assert eq["iterations"] < 10_000
        assert int(lines[-1].split(",")[0]) == eq["iterations"]

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

    @pytest.mark.parametrize("method", SOLVE_METHODS)
    def test_matrix_without_defenses_rejected_with_exit_2(self, method, tmp_path, capsys):
        code = run("solve", "--method", method, "--matrix", no_defense_csv(tmp_path),
                   "--out", tmp_path / "out")
        assert code == 2
        assert "at least one attack and one defense" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_manifest_records_only_the_knobs_a_method_reads(self, matrix_csv, tmp_path):
        configs = {}
        for method, iters, seed in (("nash", 5, 1), ("nash", 7, 1), ("nash", 5, 2),
                                    ("fp", 5, 1), ("qre", 5, 1)):
            out = tmp_path / f"{method}-{iters}-{seed}"
            assert run("solve", "--method", method, "--iters", iters, "--seed", seed,
                       "--matrix", matrix_csv, "--out", out) == 0
            configs[method, iters, seed] = json.loads((out / "manifest.json").read_text())
        # neither --iters nor --seed moves nash, so both leave the digest alone
        nash = configs["nash", 5, 1]
        assert nash["config_digest"] == configs["nash", 7, 1]["config_digest"]
        assert nash["config_digest"] == configs["nash", 5, 2]["config_digest"]
        assert set(nash["config"]) == {"command", "method"}
        # the seed is still recorded, outside the digested config
        assert (nash["seed"], configs["nash", 5, 2]["seed"]) == (1, 2)
        assert configs["fp", 5, 1]["config"]["iters"] == 5
        assert "beta" not in configs["fp", 5, 1]["config"]
        assert configs["qre", 5, 1]["config"]["beta"] == 2.0
        assert "iters" not in configs["qre", 5, 1]["config"]

    def test_unknown_method_rejected_by_parser(self, matrix_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("solve", "--method", "simplex", "--matrix", matrix_csv,
                "--out", tmp_path / "out")
        assert exc.value.code == 2


MALFORMED_MATRICES = [
    pytest.param("attack,D1,D2\nA1,0.5\nA2,0.2,0.3\n",
                 "line 2: 2 fields, the header has 3", id="ragged-row"),
    pytest.param("attack,D1,D2\nA1,0.5,0.1\nA2,x,0.3\n",
                 "line 3: could not convert string to float: 'x'", id="non-numeric-cell"),
    pytest.param("attack,D1,D2\nA1,0.5,0.1\nA2,1e308,0.3\n",
                 "line 3: entry 1e+308 is not bounded by 1 in absolute value", id="huge-cell"),
    pytest.param("attack,D1,D2\nA1,0.5,-1.5\nA2,0.2,0.3\n",
                 "line 2: entry -1.5 is not bounded by 1 in absolute value", id="unbounded-cell"),
]


@pytest.mark.parametrize("argv", [("solve", "--method", "nash"),
                                  ("learn", "--method", "single", "--iters", 50)],
                         ids=["solve", "learn"])
@pytest.mark.parametrize("content, where", MALFORMED_MATRICES)
def test_malformed_matrix_csv_names_file_and_line(argv, content, where, tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text(content)
    out = tmp_path / "out"
    assert run(*argv, "--matrix", path, "--out", out) == 2
    assert f"error: {path}, {where}" in capsys.readouterr().err
    assert not out.exists()


def network_edit(path, value):
    """The bundled network document with the field at ``path`` set to ``value``."""
    doc = bundled_network_doc()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


SOLVE = ("solve", "--method", "nash")
AHP_401_DIGITS = "1,1,1,1\n1,1,1,1\n1,1,1," + "1" * 401 + "\n1,1,1,1\n"

# (command, flag, file content, what the message says after the file's name):
# inputs that once reached exit 3, or exited 2 without naming their file
NAMED_INPUT_ERRORS = [
    pytest.param(("payoff",), "--catalog", scale_a4(10**400),
                 f": A4: scale_load value {10**400!r} is not a finite number",
                 id="catalog-401-digit-value"),
    pytest.param(("payoff",), "--catalog", {"attacks": [{"id": "A1", "effects": [
        {"kind": "fdi_bias", "target": 5, "value": 0.15}]}]},
                 ": A1: fdi_bias takes no value, got 0.15", id="catalog-fdi-bias-value"),
    pytest.param(("learn", "--method", "single"), "--config", {"alpha_constant": 10**400},
                 f": alpha_constant {10**400!r} is not a finite number",
                 id="config-401-digit-alpha"),
    pytest.param(("learn", "--method", "single"), "--config", {"episodes": 10**400},
                 ": episodes must be in [1, 2**63)", id="config-401-digit-episodes"),
    pytest.param(("payoff",), "--ahp", AHP_401_DIGITS,
                 ": comparison matrix entry at row 3, column 4 is missing or not finite",
                 id="ahp-401-digit-cell"),
    pytest.param(("payoff",), "--network", network_edit(("buses", 1, "id"), 2.5),
                 " buses[1]: 'id' 2.5 is not a whole number", id="network-fractional-bus-id"),
    pytest.param(("payoff",), "--network", network_edit(("buses", 1, "p_kw"), "100"),
                 " buses[1]: 'p_kw' '100' is not a finite number", id="network-string-load"),
    pytest.param(("payoff",), "--network", network_edit(("buses", 1, "p_kw"), True),
                 " buses[1]: 'p_kw' True is not a finite number", id="network-bool-load"),
    pytest.param(("payoff",), "--network", network_edit(("critical_buses",), ["7"]),
                 ": 'critical_buses' entry '7' is not a whole number",
                 id="network-string-critical-bus"),
    pytest.param(("payoff",), "--network", network_edit(("critical_buses",), [99]),
                 ": 'critical_buses' names no bus of the network: [99]",
                 id="network-unknown-critical-bus"),
    pytest.param(("payoff",), "--network", network_edit(("base_kv",), 1e308),
                 ": impedance base base_kv**2 / base_mva must be finite and positive",
                 id="network-overflowing-base-kv"),
    pytest.param(("payoff",), "--network", network_edit(("base_kv",), 1e-300),
                 ": impedance base base_kv**2 / base_mva must be finite and positive",
                 id="network-vanishing-base-kv"),
    pytest.param(("payoff",), "--network", network_edit(("lines", 3, "r_ohm"), -1),
                 ": L4-5: negative impedance", id="network-negative-impedance"),
    pytest.param(("payoff",), "--network", network_edit(("switches", 0, "id"), None),
                 " switches[0]: 'id' None is not a string", id="network-null-switch-id"),
    pytest.param(("payoff",), "--network", network_edit(("lines", 5, "id"), "L5-6"),
                 ": duplicate branch ids: ['L5-6']", id="network-duplicate-line-id"),
    pytest.param(("payoff",), "--network", network_edit(("switches", 1, "id"), "SW1"),
                 ": duplicate branch ids: ['SW1']", id="network-duplicate-switch-id"),
    pytest.param(("payoff",), "--network", network_edit(("switches", 0, "id"), "L5-6"),
                 ": duplicate branch ids: ['L5-6']", id="network-switch-reuses-line-id"),
    pytest.param(SOLVE, "--matrix", "attack,D1,D2\nA1,0.5,0.1\nA1,0.2,0.3\n",
                 ": payoff matrix repeats attack ids: ['A1', 'A1']", id="matrix-duplicate-ids"),
    pytest.param(SOLVE, "--matrix", "attack\nA1\nA2\n",
                 ": payoff matrix needs at least one attack and one defense",
                 id="matrix-no-defense"),
    pytest.param(SOLVE, "--matrix", "attack,D1,D2\nA1,0.5,nan\nA2,0.2,0.3\n",
                 ": payoff matrix has non-finite entries", id="matrix-nan-cell"),
    pytest.param(("solve", "--method", "qre"), "--matrix", "attack,D1\nA1,-1e308\n",
                 ", line 2: entry -1e+308 is not bounded by 1", id="matrix-huge-cell-qre"),
    pytest.param(("compare", "--methods", "nash"), "--matrix", "attack,D1\nA1,1e200\n",
                 ", line 2: entry 1e+200 is not bounded by 1", id="matrix-huge-cell-compare"),
    pytest.param(("payoff",), "--ahp", "1,1,1,1\n1,1e308,1,1\n1,1,1,1\n1,1,1,1\n",
                 ": comparison matrix is not reciprocal", id="ahp-overflowing-cell"),
    pytest.param(("payoff",), "--network", "[" * 100_000 + "]" * 100_000,
                 ": not valid JSON (maximum recursion depth exceeded", id="network-deeply-nested"),
    pytest.param(("payoff",), "--network", b"\xff{}", ": 'utf-8' codec can't decode byte 0xff",
                 id="network-not-utf8"),
    pytest.param(SOLVE, "--matrix", b"\xff", ": 'utf-8' codec can't decode byte 0xff",
                 id="matrix-not-utf8"),
    pytest.param(("payoff",), "--catalog", b"\xff", ": 'utf-8' codec can't decode byte 0xff",
                 id="catalog-not-utf8"),
    pytest.param(("payoff",), "--ahp", b"\xff", ": 'utf-8' codec can't decode byte 0xff",
                 id="ahp-not-utf8"),
    pytest.param(("learn", "--method", "single"), "--config", b"\xff",
                 ": 'utf-8' codec can't decode byte 0xff", id="config-not-utf8"),
]


@pytest.mark.parametrize("argv, flag, content, reason", NAMED_INPUT_ERRORS)
def test_bad_input_exits_2_naming_its_file(argv, flag, content, reason, tmp_path, capsys):
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    out = tmp_path / "out"
    assert run(*argv, flag, path, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}{reason}")
    assert not out.exists()


@pytest.mark.parametrize("path", [("lines", 0, "r_ohm"), ("lines", 0, "x_ohm"),
                                  ("ders", 0, "rating_kw")])
def test_impedance_or_rating_near_the_float_limit_reads_as_non_converged(path, tmp_path):
    # the sweep overflows without a numpy warning, which the suite turns into exit 3
    net = tmp_path / "net.json"
    net.write_text(json.dumps(network_edit(path, 1e308)))
    out = tmp_path / "out"
    assert run("payoff", "--network", net, "--out", out) == 0
    entries = np.loadtxt(out / "payoff.csv", delimiter=",", skiprows=1, usecols=range(1, 11))
    assert ((0.0 <= entries) & (entries <= 1.0)).all()
    flags = (out / "payoff_flags.csv").read_text().splitlines()[1:]
    assert sum(row.endswith(",non-convergence") for row in flags) == 100


class TestLearn:
    @pytest.mark.parametrize("method", LEARN_METHODS)
    def test_non_finite_matrix_rejected_with_exit_2(self, method, tmp_path, capsys):
        code = run("learn", "--method", method, "--iters", 100,
                   "--matrix", nan_csv(tmp_path), "--out", tmp_path / "out")
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "telemetry.csv").exists()

    @pytest.mark.parametrize("method", LEARN_METHODS)
    def test_matrix_without_defenses_rejected_with_exit_2(self, method, tmp_path, capsys):
        code = run("learn", "--method", method, "--iters", 100,
                   "--matrix", no_defense_csv(tmp_path), "--out", tmp_path / "out")
        assert code == 2
        assert "at least one attack and one defense" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("content", ['{"episodes": 10,', "", "{'seed': 1}"],
                             ids=["truncated", "empty", "single-quoted"])
    def test_malformed_config_names_its_path(self, content, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        out = tmp_path / "out"
        code = run("learn", "--method", "single", "--config", cfg,
                   "--matrix", small_game_csv(tmp_path), "--out", out)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not valid JSON (")
        assert not out.exists()

    def test_multi_writes_both_policies(self, matrix_csv, tmp_path):
        out = tmp_path / "out"
        assert run("learn", "--method", "multi", "--iters", 20_000,
                   "--matrix", matrix_csv, "--out", out) == 0
        result = json.loads((out / "result.json").read_text())
        assert set(result) == {"value", "converged"}
        for side in ("attacker", "defender"):
            policy = json.loads((out / f"{side}_policy.json").read_text())
            assert policy["side"] == side

    @pytest.mark.parametrize("method", ["single", "multi"])
    def test_gamma_rejected_by_stateless_methods(self, method, tmp_path, capsys):
        # stateless learning has no next state: a gamma would be recorded
        # in the files but never used
        out = tmp_path / "out"
        code = run("learn", "--method", method, "--gamma", 0.9, "--iters", 100,
                   "--matrix", small_game_csv(tmp_path), "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gamma" in err
        assert not list(out.glob("*policy.json"))

    @pytest.mark.parametrize("method", LEARN_METHODS)
    def test_manifest_config_matches_every_policy(self, method, tmp_path):
        out = tmp_path / "out"
        gamma = ["--gamma", 0.5] if method == "mdp" else []
        assert run("learn", "--method", method, "--iters", 2000, "--decay", 0.99,
                   "--epsilon0", 0.5, *gamma, "--matrix", small_game_csv(tmp_path),
                   "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())["config"]
        assert (manifest["epsilon_decay"], manifest["epsilon0"]) == (0.99, 0.5)
        policies = sorted(out.glob("*policy.json"))
        assert len(policies) == (1 if method == "single" else 2)
        for path in policies:
            config = json.loads(path.read_text())["config"]
            shared = sorted(set(config) & set(manifest))
            assert {"epsilon0", "epsilon_decay", "gamma", "episodes", "seed"} <= set(shared)
            assert [config[k] for k in shared] == [manifest[k] for k in shared]

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


    def test_runs_csv_quotes_ids(self, tmp_path):
        import csv
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps({"replace": True, "attacks": [
            {"id": "A,1", "effects": [{"kind": "trip_line", "target": "3-4"}]},
            {"id": "A2", "effects": [{"kind": "trip_line", "target": "14-15"}]},
        ]}))
        out = tmp_path / "out"
        assert run("baseline", "--method", "RDS", "--runs", 20, "--attack-dist", "uniform",
                   "--catalog", catalog, "--out", out) == 0
        with open(out / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "attack", "defense", "score"]
        assert all(len(r) == 4 for r in rows)
        assert {r[1] for r in rows[1:]} == {"A,1", "A2"}


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


class TestMatrixExcludesNetworkFlags:
    """solve and learn read nothing of the network inputs once --matrix is
    given, so naming one with it is an input error, not a silent no-op."""

    @pytest.mark.parametrize("argv", [("solve", "--method", "nash"),
                                      ("learn", "--method", "single", "--iters", 50)],
                             ids=["solve", "learn"])
    @pytest.mark.parametrize("flag", ["--network", "--catalog", "--ahp"])
    def test_rejected_with_exit_2(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*argv, "--matrix", small_game_csv(tmp_path),
                   flag, tmp_path / "nowhere.json", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert not out.exists()


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

    def test_manifest_lists_policy_provenance(self, tmp_path):
        out = tmp_path / "out"
        assert run("compare", "--methods", "RDS,nash,regret", "--runs", 3,
                   "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        policies = manifest["policies"]
        assert set(policies) == {"RDS", "nash", "regret"}
        assert policies["RDS"] == {}
        assert set(policies["nash"]) == {"game_value"}
        # regret matching+ stops on the bundled matrix well inside its cap
        assert set(policies["regret"]) == {"steps", "epsilon"}
        assert 0 < policies["regret"]["steps"] < 100_000
        assert policies["regret"]["epsilon"] <= 1e-4
        assert "policies" not in manifest["config"]


FORMAT_COMMANDS = {
    "payoff": ("payoff",),
    **{f"solve-{m}": ("solve", "--method", m, "--iters", 2000, "--matrix")
       for m in SOLVE_METHODS},
    **{f"learn-{m}": ("learn", "--method", m, "--iters", 2000, "--matrix")
       for m in LEARN_METHODS},
    "baseline": ("baseline", "--method", "RBD", "--runs", 5),
    "compare": ("compare", "--methods", "RDS,SOD,nash", "--runs", 3),
    "probe": ("probe", "--sizes", 33),
}


class TestFileFormat:
    """Every JSON file is indent-2, sorted-key, newline-terminated; every CSV
    is the csv module's default dialect, CRLF line ends."""

    @pytest.mark.parametrize("name", FORMAT_COMMANDS)
    def test_one_json_format_and_one_csv_dialect(self, name, matrix_csv, tmp_path):
        import csv
        import io
        argv = FORMAT_COMMANDS[name]
        if argv[-1] == "--matrix":
            argv += (matrix_csv,)
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 0
        # the manifest lists exactly the data files written
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
        for path in sorted(out.iterdir()):
            text = path.read_bytes().decode()
            if path.suffix == ".json":
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", \
                    path.name
                continue
            assert path.suffix == ".csv", path.name
            assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n"), \
                path.name
            rows = list(csv.reader(io.StringIO(text, newline="")))
            again = io.StringIO(newline="")
            csv.writer(again).writerows(rows)
            assert again.getvalue() == text, path.name
        if name == "probe":
            with open(out / "probe.csv", newline="") as fh:
                notes = [row["note"] for row in csv.DictReader(fh)]
            assert notes == [row["note"] for row in
                             json.loads((out / "probe.json").read_text())]
            assert "," in notes[0]


FAILING_COMMANDS = {
    "payoff": ("payoff", "--catalog", "{tmp}/catalog.json"),
    "solve": ("solve", "--method", "fp", "--iters", 0, "--matrix", "{matrix}"),
    "learn": ("learn", "--method", "single", "--iters", 0, "--matrix", "{matrix}"),
    "baseline": ("baseline", "--method", "RDS", "--runs", 0, "--matrix", "{matrix}"),
    "compare": ("compare", "--methods", ","),
    "probe": ("probe", "--sizes", 10),
}


@pytest.mark.parametrize("name", FAILING_COMMANDS)
def test_command_failing_on_bad_input_makes_no_out(name, matrix_csv, tmp_path, capsys):
    (tmp_path / "catalog.json").write_text("[1]")
    argv = [str(a).format(tmp=tmp_path, matrix=matrix_csv) for a in FAILING_COMMANDS[name]]
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


MATRIX = object()  # stands for the bundled payoff CSV

# (command, compile_pair, evaluate_pair and power_flow calls): payoff alone
# solves flows, for the flags it writes; every other command that reads the
# network compiles each cell once, and one read from --matrix alone none
WORK_LEDGER = [
    (("payoff",), 0, 100, 263),
    (("compare", "--methods", "all", "--runs", 50), 100, 0, 0),
    (("compare", "--methods", "all", "--runs", 50, "--matrix", MATRIX), 100, 0, 0),
    (("baseline", "--method", "RDS", "--runs", 50), 100, 0, 0),
    (("baseline", "--method", "RDS", "--runs", 50, "--matrix", MATRIX), 100, 0, 0),
    (("solve", "--method", "nash"), 100, 0, 0),
    (("learn", "--method", "single", "--iters", 50), 100, 0, 0),
    (("solve", "--method", "nash", "--matrix", MATRIX), 0, 0, 0),
    (("learn", "--method", "single", "--iters", 50, "--matrix", MATRIX), 0, 0, 0),
]


@pytest.mark.parametrize("argv, plans, pairs, flows", WORK_LEDGER,
                         ids=[w[0][0] + ("-matrix" if MATRIX in w[0] else "")
                              for w in WORK_LEDGER])
def test_work_per_command(argv, plans, pairs, flows, matrix_csv, tmp_path, monkeypatch):
    from gridgame import scenario

    calls = {"compile_pair": 0, "evaluate_pair": 0, "power_flow": 0}

    def counted(name):
        inner = getattr(scenario, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scenario, name, counted(name))
    argv = [matrix_csv if a is MATRIX else a for a in argv]
    assert run(*argv, "--out", tmp_path / "out") == 0
    assert calls == {"compile_pair": plans, "evaluate_pair": pairs, "power_flow": flows}


# D10 closes a tie switch the bundled network lacks; SOD never plays D10
BAD_CELL_CATALOG = {"defenses": [{"id": "D10", "effects": [
    {"kind": "close_switch", "target": "SW9"}]}]}


@pytest.mark.parametrize("argv", [
    ("compare", "--methods", "RDS,SOD", "--runs", 5),
    ("baseline", "--method", "SOD", "--runs", 5, "--matrix", MATRIX),
], ids=["compare", "baseline-matrix"])
def test_unresolvable_cell_exits_2_naming_it(argv, matrix_csv, tmp_path, capsys):
    # every cell is resolved once per command, drawn by a run or not
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps(BAD_CELL_CATALOG))
    argv = [matrix_csv if a is MATRIX else a for a in argv]
    out = tmp_path / "out"
    assert run(*argv, "--catalog", cat, "--out", out) == 2
    assert capsys.readouterr().err.startswith(
        "error: payoff cell (A1,D10): D10: no tie switch 'SW9'")
    assert not out.exists()


NEGATIVE_SEEDS = {
    "learn": ("learn", "--method", "single", "--seed", -1),
    "compare": ("compare", "--methods", "all", "--seed", -3),
    "baseline": ("baseline", "--method", "RDS", "--seed", -2),
}


@pytest.mark.parametrize("name", NEGATIVE_SEEDS)
def test_negative_seed_rejected_before_any_work(name, tmp_path, capsys, monkeypatch):
    # the payoff build (and for compare the training) would come first
    def no_work(*args, **kwargs):
        raise AssertionError("the payoff matrix was resolved")

    monkeypatch.setattr(cli, "_resolve_matrix", no_work)
    argv = NEGATIVE_SEEDS[name]
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"seed must be a non-negative integer, got {argv[-1]}" in err
    assert not out.exists()


@pytest.mark.parametrize("methods", ["nash", "qlearn"])
def test_probe_negative_seed_rejected_before_any_build(methods, tmp_path, capsys,
                                                       monkeypatch):
    from gridgame import experiments

    def no_build(*args, **kwargs):
        raise AssertionError("a payoff matrix was built")

    monkeypatch.setattr(experiments, "build_payoff_matrix", no_build)
    out = tmp_path / "out"
    assert run("probe", "--sizes", 33, "--methods", methods, "--seed", -1,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a non-negative integer, got -1")
    assert not out.exists()


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-a-file"])
def test_out_naming_a_file_exits_2_before_any_work(below, tmp_path, capsys):
    # the matrix is missing too: the --out check runs first
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert run("solve", "--method", "nash", "--matrix", tmp_path / "missing.csv",
               "--out", taken.joinpath(*below)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and "is not a directory" in err
    assert taken.read_text() == "keep"


def test_reused_out_keeps_only_the_new_outputs(matrix_csv, tmp_path):
    out = tmp_path / "out"
    assert run("solve", "--method", "regret", "--matrix", matrix_csv, "--out", out) == 0
    assert (out / "trajectory.csv").exists()
    (out / "notes.txt").write_text("no manifest lists me")
    assert run("solve", "--method", "nash", "--matrix", matrix_csv, "--out", out) == 0
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(os.listdir(out)) == sorted([*listed, "manifest.json", "notes.txt"])


def test_reused_out_removes_nothing_outside_it(matrix_csv, tmp_path):
    # a manifest naming paths, not plain file names, removes none of them,
    # even where the digests it records are right
    out, outside = tmp_path / "out", tmp_path / "outside.csv"
    out.mkdir()
    outside.write_text("keep")
    (out / "sub").mkdir()
    (out / "sub" / "inner.csv").write_text("keep")
    keep = _sha256(outside)
    (out / "manifest.json").write_text(json.dumps({"outputs": {
        "../outside.csv": keep, str(outside): keep, "sub/inner.csv": keep,
        "sub": "", "..": ""}}))
    assert run("solve", "--method", "nash", "--matrix", matrix_csv, "--out", out) == 0
    assert outside.read_text() == "keep"
    assert (out / "sub" / "inner.csv").read_text() == "keep"


def test_reused_out_keeps_the_command_input(tmp_path):
    # solve reads d/payoff.csv, which the payoff run's manifest lists
    out = tmp_path / "d"
    assert run("payoff", "--out", out) == 0
    made = sorted(os.listdir(out))
    assert run("solve", "--method", "nash", "--matrix", out / "payoff.csv", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"]["matrix"]["sha256"] == _sha256(out / "payoff.csv")
    # the payoff outputs solve did not read are gone; what it read stays
    assert sorted(os.listdir(out)) == ["equilibrium.json", "manifest.json", "payoff.csv"]
    assert "payoff_long.csv" in made


def test_reused_out_keeps_a_listed_file_that_changed(matrix_csv, tmp_path):
    # a listed file whose content no longer has the recorded digest was not
    # left by that run, or was edited since: it stays, as does a foreign one
    out = tmp_path / "out"
    assert run("solve", "--method", "regret", "--matrix", matrix_csv, "--out", out) == 0
    (out / "trajectory.csv").write_text("edited")
    (out / "theirs.txt").write_text("another tool")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"]["theirs.txt"] = "sha256:" + "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run("solve", "--method", "nash", "--matrix", matrix_csv, "--out", out) == 0
    assert (out / "trajectory.csv").read_text() == "edited"
    assert (out / "theirs.txt").read_text() == "another tool"


def test_failed_write_leaves_no_manifest_listing_removed_files(matrix_csv, tmp_path,
                                                               monkeypatch, capsys):
    out = tmp_path / "out"
    assert run("solve", "--method", "regret", "--matrix", matrix_csv, "--out", out) == 0

    def failing(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_write_json", failing)
    assert run("solve", "--method", "nash", "--matrix", matrix_csv, "--out", out) == 3
    assert not (out / "manifest.json").exists()
    assert not (out / "trajectory.csv").exists()


class _Scoped(ast.NodeVisitor):
    """Tracks the enclosing scope of the node it visits; ``found`` collects
    what a subclass looks for."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], set()

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped


def _scan(visitor) -> set:
    """What a fresh ``visitor(module)`` finds in every module of the package."""
    root = Path(gridgame.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        v = visitor(path.relative_to(root).as_posix())
        v.visit(ast.parse(path.read_text()))
        found |= v.found
    return found


class _FileWriters(_Scoped):
    """Collects (module, enclosing scope) of every call that opens a file
    for writing: open or .open with a mode that is not a read-only literal,
    and .write_text / .write_bytes."""

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            writes = any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                         for m in modes)
        else:
            writes = name in ("write_text", "write_bytes")
        if writes:
            self.found.add((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def test_only_the_cli_writers_and_the_payoff_csv_open_files_for_writing():
    assert _scan(_FileWriters) == {("cli.py", "_write_json"), ("cli.py", "_write_csv"),
                                   ("resilience.py", "PayoffMatrix.to_csv")}


# numpy operations whose order of addition or rounding follows the CPU they run
# on: BLAS products (dot, matmul, the @ operator), einsum, and numpy's SIMD exp
_CPU_DEPENDENT = {"dot", "matmul", "einsum", "exp"}


class _CpuDependentOps(_Scoped):
    """Collects (module, enclosing scope, operation) of every ``@`` and
    ``@=``, every attribute named in _CPU_DEPENDENT but ``math.exp`` (np.exp,
    a.dot), every import of such a name from another module than math, and
    every call of the builtin ``sum``, whose float sum is compensated from
    Python 3.12 on."""

    def _found(self, what):
        self.found.add((self.module, ".".join(self.scope), what))

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            self._found("sum")
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._found("@")
        self.generic_visit(node)

    visit_AugAssign = visit_BinOp

    def visit_Attribute(self, node):
        if node.attr in _CPU_DEPENDENT and not (
                node.attr == "exp" and isinstance(node.value, ast.Name) and node.value.id == "math"):
            self._found(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.name in _CPU_DEPENDENT and node.module != "math":
                self._found(alias.name)


def test_no_product_or_exp_whose_bits_follow_the_cpu():
    # products and sums go through resilience.left_sum and exp through
    # math.exp, so a data file's bytes depend neither on the BLAS kernel or
    # SIMD unit in use nor on the Python version
    assert _scan(_CpuDependentOps) == set()


class _FileReaders(_FileWriters):
    """Collects (module, enclosing scope) of every call that opens a file
    for reading (open or .open with no mode or a read-only literal one,
    .read_text, .read_bytes) or parses JSON (.load, .loads).  A call of the
    bare name read_text or read_json is the reader itself, not counted."""

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            reads = all(isinstance(m, ast.Constant) and not set(str(m.value)) & set("wax+")
                        for m in modes)
        else:
            reads = isinstance(func, ast.Attribute) and name in (
                "read_text", "read_bytes", "load", "loads")
        if reads:
            self.found.add((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def test_only_the_one_reader_opens_input_files():
    # every input is opened and parsed in errors.py; cli reads back only what it wrote
    # (its manifest) and digests files
    assert _scan(_FileReaders) == {("errors.py", "read_text"), ("errors.py", "read_json"),
                                   ("cli.py", "_sha256"), ("cli.py", "_remove_listed_outputs")}


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

    @pytest.mark.parametrize("argv", [("payoff",), ("compare", "--methods", "all",
                                                    "--runs", 50)], ids=["payoff", "compare"])
    def test_data_files_do_not_depend_on_the_hash_seed(self, argv, tmp_path):
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            proc = subprocess.run(
                [sys.executable, "-m", "gridgame", *map(str, argv), "--out", str(out)],
                env=dict(_child_env(), PYTHONHASHSEED=hash_seed), capture_output=True,
                text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
        assert outputs[0] == outputs[1]

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

    def test_methods_all_expands_to_every_tag(self, tmp_path, monkeypatch):
        from gridgame import experiments
        seen = []
        monkeypatch.setattr(experiments, "scalability_probe",
                            lambda sizes, methods, seed: seen.append(methods) or [])
        out = tmp_path / "out"
        assert run("probe", "--sizes", "33", "--methods", "all", "--out", out) == 0
        assert seen == [list(gridgame.METHOD_TAGS)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["methods"] == list(gridgame.METHOD_TAGS)

    def test_empty_methods_rejected_with_exit_2(self, tmp_path, capsys):
        assert run("probe", "--sizes", "33", "--methods", ",", "--out", tmp_path / "out") == 2
        assert "empty --methods list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sizes", ["1e3", "5", "33,x"])
    def test_bad_sizes_named_with_exit_2(self, sizes, tmp_path, capsys):
        assert run("probe", "--sizes", sizes, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: --sizes {sizes}: ")
        assert not (tmp_path / "out").exists()

    def test_size_above_1015_buses_exits_0(self, tmp_path):
        # 2.0 ** (buses + DERs + switches) overflowed a float from 1016 buses up
        out = tmp_path / "out"
        assert run("probe", "--sizes", "1017", "--out", out) == 0
        rows = json.loads((out / "probe.json").read_text())
        assert rows == [{"buses": 1017, "ders": 4, "switches": 4, "state_space_log2": 1025}]

    def test_repeated_sizes_rejected_with_exit_2(self, tmp_path, capsys):
        # a repeated size would write two rows under one timings_s key
        assert run("probe", "--sizes", "33,33", "--out", tmp_path / "out") == 2
        assert "repeat" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def test_package_data_ships_every_data_file(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["gridgame"]
        package = root / "src" / "gridgame"
        shipped = {p for g in globs for p in package.glob(g)}
        assert shipped == set((package / "data").iterdir())

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "gridgame", "--version"],
                              env=_child_env(), capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()
