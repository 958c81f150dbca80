"""Fuzz every input file and numeric flag the commands read.

Each example takes a bundled input (``catalog_default.json``, ``ieee33.json``,
the ``payoff.csv`` that ``payoff`` writes, or the AHP comparison table),
mutates one field (deletes it, duplicates it, or sets it to an odd value),
writes it and runs a command on it in-process; the numeric flags are set to
odd values on the command line. Whatever the input holds, the command either
succeeds or fails on bad input: exit 2, an ``error:`` line that names the
file or the payoff cell (the flag, for a flag), and no output directory.
Exit 3 (an internal fault) is never an answer to input, and the suite's
warnings-as-errors turns any numpy warning into one.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgame import cli
from gridgame.resilience import DEFAULT_AHP_MATRIX

DATA = resources.files("gridgame.data")
BUNDLED = json.loads(DATA.joinpath("catalog_default.json").read_text())
NETWORK = json.loads(DATA.joinpath("ieee33.json").read_text())

ODD_VALUES = (None, True, 0, -1, 1e308, math.nan, math.inf, "x", [], {}, 10**30, 10**400, "1")


def _fields(node, path=()):
    """The path of every key and list entry under ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _fields(child, path + (key,))


def _mutations(doc):
    """Every single-field mutation of ``doc``: (path, op, value)."""
    for path in _fields(doc):
        yield path, "delete", None
        if isinstance(path[-1], int):
            yield path, "duplicate", None
        for value in ODD_VALUES:
            yield path, "set", value


MUTATIONS = list(_mutations(BUNDLED))
NETWORK_MUTATIONS = list(_mutations(NETWORK))
OPERATIONS = (("delete", None), ("duplicate", None), *(("set", value) for value in ODD_VALUES))


def _shape_mutations(doc):
    """One mutation per field shape of ``doc`` (its paths with list indices
    collapsed), at the shape's first path.  The operations of OPERATIONS
    take turns; a duplicate, which needs a list entry, trades its turn with
    the operation after it."""
    shapes = {}
    for path in _fields(doc):
        shapes.setdefault(tuple("*" if isinstance(key, int) else key for key in path), path)
    ops = list(OPERATIONS)
    for turn, path in enumerate(shapes.values()):
        k, j = turn % len(ops), (turn + 1) % len(ops)
        if ops[k][0] == "duplicate" and not isinstance(path[-1], int):
            ops[k], ops[j] = ops[j], ops[k]
        yield (path, *ops[k])


SHAPE_MUTATIONS = list(_shape_mutations(BUNDLED))
NETWORK_SHAPE_MUTATIONS = list(_shape_mutations(NETWORK))


def mutation_id(mutation):
    path, op, value = mutation
    text = ".".join(map(str, path)) + "-" + op
    if op == "set":
        value = repr(value)
        # 10**30 and 10**400 as powers, not hundreds of digits
        text += "=" + (value if len(value) < 12 else f"10**{len(value) - 1}")
    return text


def mutated(path, op, value, base=BUNDLED):
    doc = copy.deepcopy(base)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "delete":
        del parent[key]
    elif op == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(value)
    if base is BUNDLED:
        doc["replace"] = True
    return doc


def run_command(argv, out):
    """Exit code and stderr of the command ``argv`` writing to ``out``; an
    argument the parser rejects is exit 2 as well."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def run_payoff(doc, workdir: Path, flag="--catalog"):
    """Exit code, stderr, output directory and input path of ``payoff`` with
    ``doc`` as its ``flag`` input: a document, or the text of a file."""
    path = workdir / "input"
    # json.dumps writes the NaN/Infinity literals json.load accepts
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = workdir / "out"
    return (*run_command(["payoff", flag, str(path)], out), out, path)


def check_exit(code, err, out, named):
    """Success writes a manifest and no NaN or Infinity in a JSON file; an
    input error exits 2 naming one of ``named`` and writes nothing."""
    assert code in (0, 2), err
    if code == 2:
        assert "error:" in err, err
        assert any(name in err for name in named), err
        assert not out.exists()
        return
    assert (out / "manifest.json").exists()
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path.name}: {c}"))


def check_outcome(code, err, out, path):
    check_exit(code, err, out, (str(path), "payoff cell ("))
    if code == 2:
        assert err.startswith("error:"), err
        return
    with open(out / "payoff.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        for entry in map(float, row[1:]):
            assert 0.0 <= entry <= 1.0, row


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(MUTATIONS))
def test_payoff_on_a_mutated_catalog_succeeds_or_exits_2(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        check_outcome(*run_payoff(mutated(*mutation), Path(tmp)))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(NETWORK_MUTATIONS))
def test_payoff_on_a_mutated_network_succeeds_or_exits_2(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        check_outcome(*run_payoff(mutated(*mutation, base=NETWORK), Path(tmp), "--network"))


def test_every_operation_meets_a_field_shape():
    assert (len(SHAPE_MUTATIONS), len(NETWORK_SHAPE_MUTATIONS)) == (20, 30)
    every = {(op, repr(value)) for op, value in OPERATIONS}
    for cases in (SHAPE_MUTATIONS, NETWORK_SHAPE_MUTATIONS):
        assert {(op, repr(value)) for _, op, value in cases} == every


# the two properties above sample the same few of thousands of mutations;
# these mutate every field shape once
@pytest.mark.parametrize("mutation", SHAPE_MUTATIONS, ids=mutation_id)
def test_payoff_on_each_catalog_field_shape_succeeds_or_exits_2(mutation, tmp_path):
    check_outcome(*run_payoff(mutated(*mutation), tmp_path))


@pytest.mark.parametrize("mutation", NETWORK_SHAPE_MUTATIONS, ids=mutation_id)
def test_payoff_on_each_network_field_shape_succeeds_or_exits_2(mutation, tmp_path):
    check_outcome(*run_payoff(mutated(*mutation, base=NETWORK), tmp_path, "--network"))


# odd text for one field of a CSV: bad numbers, numbers out of range, ids
ODD_FIELDS = ("", "x", "nan", "inf", "-inf", "1e308", "-1e308", "1e200", "1.5", "-1.000001",
              "-1", "0", "1e-308", "A1", "D1", "1" * 401, "0x1p-2", " 0.5")


def _csv_mutations(lines, fields):
    """Every single-field mutation of the first ``lines`` lines of a CSV
    with ``fields`` fields per line: (line, field, op, value)."""
    for line in range(lines):
        yield line, None, "delete", None
        yield line, None, "duplicate", None
        for field in range(fields):
            yield line, field, "delete", None
            yield line, field, "duplicate", None
            for value in ODD_FIELDS:
                yield line, field, "set", value


def csv_mutated(text, line, field, op, value):
    rows = list(csv.reader(io.StringIO(text)))
    if field is None:
        if op == "delete":
            del rows[line]
        else:
            rows.insert(line, list(rows[line]))
    elif op == "delete":
        del rows[line][field]
    elif op == "duplicate":
        rows[line].insert(field, rows[line][field])
    else:
        rows[line][field] = value
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def bundled_payoff_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("payoff") / "out"
    assert cli.main(["payoff", "--out", str(out)]) == 0
    return (out / "payoff.csv").read_text()


# the header and the first two rows of the bundled 10x10 payoff.csv
PAYOFF_CSV_MUTATIONS = list(_csv_mutations(3, 11))
MATRIX_COMMANDS = (("solve", "--method", "nash"), ("solve", "--method", "qre"),
                   ("learn", "--method", "mdp", "--iters", "500"),
                   ("baseline", "--method", "RBD", "--runs", "20"))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(PAYOFF_CSV_MUTATIONS))
def test_commands_on_a_mutated_payoff_csv_succeed_or_exit_2(bundled_payoff_csv, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payoff.csv"
        path.write_text(csv_mutated(bundled_payoff_csv, *mutation))
        for k, argv in enumerate(MATRIX_COMMANDS):
            out = Path(tmp) / f"out{k}"
            code, err = run_command([*argv, "--matrix", str(path)], out)
            check_exit(code, err, out, (str(path), "payoff cell ("))
            if code == 2:
                assert err.startswith("error:"), err


AHP_CSV = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in DEFAULT_AHP_MATRIX)
AHP_MUTATIONS = list(_csv_mutations(4, 4))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(AHP_MUTATIONS))
def test_payoff_on_a_mutated_ahp_table_succeeds_or_exits_2(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        check_outcome(*run_payoff(csv_mutated(AHP_CSV, *mutation), Path(tmp), "--ahp"))


# odd values of a numeric flag; no huge --runs or --iters, which would
# allocate or run for long
ODD_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "0.5", "1.5",
               "-0", "x", "", "1e400")
# (command with small work, the flag, its names in a message)
NUMERIC_FLAGS = (
    (("solve", "--method", "qre"), "--beta", ("beta",)),
    (("solve", "--method", "fp"), "--iters", ("iters",)),
    (("solve", "--method", "regret"), "--iters", ("iters",)),
    (("learn", "--method", "single", "--iters", "200"), "--iters", ("iters",)),
    (("learn", "--method", "mdp", "--iters", "200"), "--epsilon0", ("epsilon0",)),
    (("learn", "--method", "multi", "--iters", "200"), "--decay", ("decay",)),
    (("learn", "--method", "mdp", "--iters", "200"), "--gamma", ("gamma",)),
    (("learn", "--method", "single", "--iters", "200"), "--seed", ("seed",)),
    (("baseline", "--method", "RDS", "--runs", "20"), "--seed", ("seed",)),
    (("baseline", "--method", "RDS"), "--runs", ("runs",)),
    (("compare", "--methods", "nash,RDS", "--runs", "20"), "--seed", ("seed",)),
)
# (command, flag, value, names, the --matrix CSV or None for the bundled inputs)
FLAG_CASES = [(argv, flag, value, names, None) for argv, flag, names in NUMERIC_FLAGS
              for value in ODD_NUMBERS]
# the largest float --beta on 2x2 games at the reward bound, where beta times
# a payoff leaves the float range: in the first step, or (the second game)
# only once the mixes have moved
HUGE_BETA_CASES = [(("solve", "--method", "qre"), "--beta", "1.7976931348623157e308", ("beta",),
                    game)
                   for game in ("attack,D1,D2\nA1,1.000000000001,1.000000000001\n"
                                "A2,1.000000000001,1.000000000001\n",
                                "attack,D1,D2\nA1,1.000000000001,-1\nA2,-1,1\n")]


def flag_case_id(case):
    argv, flag, value, _, matrix = case
    game = "" if matrix is None else f"-game{HUGE_BETA_CASES.index(case)}"
    return f"{argv[0]}-{argv[2]}{flag}={value}{game}"


# every case runs: each is one small command
@pytest.mark.parametrize("case", FLAG_CASES + HUGE_BETA_CASES, ids=flag_case_id)
def test_an_odd_numeric_flag_succeeds_or_exits_2(case):
    argv, flag, value, names, matrix = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if matrix is not None:
            path = Path(tmp) / "payoff.csv"
            path.write_text(matrix)
            argv = (*argv, "--matrix", str(path))
        code, err = run_command([*argv, f"{flag}={value}"], out)
        check_exit(code, err, out, names)
