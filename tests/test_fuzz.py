"""Fuzz the catalog and network documents that ``payoff`` reads.

Each example takes the bundled ``catalog_default.json`` or ``ieee33.json``,
mutates one field (deletes a key, duplicates a list entry, or sets the field
to an odd JSON value), writes it (a catalog as a ``"replace": true`` one) and
runs ``payoff --catalog`` or ``payoff --network`` on it in-process. Whatever
the document holds, the command either succeeds with a payoff matrix in
[0, 1] or fails on bad input: exit 2, an ``error:`` line that names the file
or the payoff cell, and no output directory. Exit 3 (an internal fault) is
never an answer to input, and the suite's warnings-as-errors turns any numpy
warning into one.
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

from hypothesis import given, settings
from hypothesis import strategies as st

from gridgame import cli

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


def run_payoff(doc, workdir: Path, flag="--catalog"):
    """Exit code, stderr, output directory and input path of ``payoff`` with
    ``doc`` as its ``flag`` input."""
    path = workdir / "input.json"
    path.write_text(json.dumps(doc))  # writes the NaN/Infinity literals json.load accepts
    out = workdir / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["payoff", flag, str(path), "--out", str(out)])
    return code, err.getvalue(), out, path


def check_outcome(code, err, out, path):
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error:"), err
        assert str(path) in err or "payoff cell (" in err, err
        assert not out.exists()
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
