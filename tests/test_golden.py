"""Byte identity of the data files of the bundled inputs.

The bundled ``payoff`` (``payoff.csv``, ``payoff_long.csv``,
``payoff_flags.csv``), the five ``solve`` methods on that matrix,
``probe --sizes 33,40``, the three learners on that matrix
(``learn --method single|multi|mdp --iters 20000 --seed 1``) and two Monte
Carlo commands (``compare --methods all --runs 200 --seed 42``, and
``baseline --method RBD --runs 200 --seed 7 --attack-dist uniform``, whose
``runs.csv`` lists every run and whose ``per_attack`` covers all ten
attacks) write files whose bytes follow from the bundled inputs and the
seed alone.  Their sha256 digests are pinned in ``golden_digests.json``, so
a change that claims to keep every data file byte-identical is checked
here; a failure names every file whose bytes moved.

On a deliberate product change, regenerate the digests with

    PYTHONPATH=src python tests/test_golden.py

which prints the files whose digests moved against the committed ones, and
record in CHANGES.md which files moved and why.  The digests hold on any BLAS
kernel and any set of SIMD loops numpy picks for the CPU, since every product
on the data path adds left to right (``resilience.left_sum``) and takes exp
per entry with ``math.exp``; ``test_data_files_do_not_depend_on_the_cpu_kernel``
forces other kernels in child processes.  A numpy upgrade that moves the last
digit of a JSON float is a product change too.  The Monte Carlo seeding
(ROADMAP item 4, part 2) and minimax-Q (item 6) are expected to move the
Monte Carlo files and the ``multi`` and ``mdp`` learner files; they
regenerate these pins with the command above.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import gridgame
from gridgame.cli import SOLVE_METHODS, main

GOLDEN = Path(__file__).with_name("golden_digests.json")

# forced kernels: OpenBLAS's SSE3 (Prescott) and AVX2 (Haswell) ones, and
# numpy's loops without AVX-512; a numpy that does not pick its kernels by CPU
# at run time ignores them
CPU_KERNELS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}
MONTE_CARLO = (["compare", "--methods", "all", "--runs", "200", "--seed", "42"],
               ["baseline", "--method", "RBD", "--runs", "200", "--seed", "7",
                "--attack-dist", "uniform"])


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
    commands += [argv + ["--out", root / argv[0]] for argv in MONTE_CARLO]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def moved(want: dict, got: dict) -> list:
    """The files whose digests differ between two produce() results, or that
    only one of them holds."""
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def test_pinned_outputs_are_byte_identical(tmp_path):
    files = moved(json.loads(GOLDEN.read_text()), produce(tmp_path))
    assert not files, f"data files whose bytes moved (see {GOLDEN.name}): {files}"


def _produce_in_child(root: Path, kernel: dict) -> dict:
    """produce(root) in a child process whose environment forces ``kernel``
    and no other."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(gridgame.__file__).parents[1]), str(Path(__file__).parent),
                    env.get("PYTHONPATH")) if p)
    script = ("import sys, json; from pathlib import Path; from test_golden import produce; "
              "print(json.dumps(produce(Path(sys.argv[1]))))")
    proc = subprocess.run([sys.executable, "-c", script, str(root)], env=dict(env, **kernel),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def default_kernel_digests(tmp_path_factory):
    return _produce_in_child(tmp_path_factory.mktemp("default"), {})


@pytest.mark.parametrize("kernel", CPU_KERNELS.values(), ids=CPU_KERNELS.keys())
def test_data_files_do_not_depend_on_the_cpu_kernel(kernel, default_kernel_digests, tmp_path):
    if subprocess.run([sys.executable, "-c", "import numpy"], env=dict(os.environ, **kernel),
                      capture_output=True).returncode:
        pytest.skip(f"numpy does not start under {kernel}")
    files = moved(default_kernel_digests, _produce_in_child(tmp_path, kernel))
    assert not files, f"data files whose bytes moved under {kernel}: {files}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = produce(Path(tmp))
    for name in moved(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}, got):
        print(f"moved: {name}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
