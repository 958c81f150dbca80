"""Byte identity of the data files of the bundled inputs.

The bundled ``payoff`` (``payoff.csv``, ``payoff_long.csv``,
``payoff_flags.csv``), the five ``solve`` methods on that matrix,
``probe --sizes 33,40`` and the three learners on that matrix
(``learn --method single|multi|mdp --iters 20000 --seed 1``) write files
whose bytes follow from the bundled inputs and the seed alone.  Their
sha256 digests are pinned in ``golden_digests.json``, so a change that
claims to keep every data file byte-identical is checked here; a failure
names every file whose bytes moved.

On a deliberate product change, regenerate the digests with

    PYTHONPATH=src python tests/test_golden.py

and record in CHANGES.md which files moved and why.  The digests hold for
the numpy the suite runs on; a numpy upgrade that moves the last digit of a
JSON float is such a change too.  Monte Carlo outputs are left out, because
their seeding is expected to change (ROADMAP item 4), and minimax-Q will move
the ``multi`` and ``mdp`` learner files when it lands (the same item).
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from gridgame.cli import SOLVE_METHODS, main

GOLDEN = Path(__file__).with_name("golden_digests.json")


def produce(root: Path) -> dict:
    """Run the pinned commands under root; {relative path: sha256} of every
    data file they write (manifests, which hold timestamps, excluded)."""
    commands = [["payoff", "--out", root / "payoff"]]
    commands += [["solve", "--method", method, "--matrix", root / "payoff" / "payoff.csv",
                  "--out", root / f"solve-{method}"] for method in SOLVE_METHODS]
    commands.append(["probe", "--sizes", "33,40", "--out", root / "probe"])
    commands += [["learn", "--method", method, "--matrix", root / "payoff" / "payoff.csv",
                  "--iters", "20000", "--seed", "1", "--out", root / f"learn-{method}"]
                 for method in ("single", "multi", "mdp")]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def test_pinned_outputs_are_byte_identical(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = produce(tmp_path)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"data files whose bytes moved (see {GOLDEN.name}): {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(produce(Path(tmp)), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
