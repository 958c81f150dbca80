"""Self-tests of the benchmark: the tracer's pinned counts on the bundled
payoff build, restoration of every wrapped function, and the refusal to run
without the package sources.

    python3 -m pytest perfbench
"""
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
from gridgame import cli  # noqa: E402


@pytest.fixture(autouse=True)
def one_thread(monkeypatch):
    # spans nest only when the payoff cells run on one thread
    monkeypatch.setenv("GRIDGAME_THREADS", "1")


def traced_payoff(out_dir):
    rec = tracer.Tracer()
    with rec:
        span = rec.open("cli.payoff")
        code = cli.main(["payoff", "--out", str(out_dir)])
        rec.close(span)
    assert code == 0
    return tracer.layer_metrics(rec.spans)


def test_bundled_payoff_counts_are_pinned(tmp_path):
    metrics = traced_payoff(tmp_path)
    assert run.pinned_counts_error(metrics) is None
    assert metrics["scenario.evaluate_pair.calls"][0] == 100
    assert metrics["netmodel.power_flow.calls"][0] == 263
    assert metrics["resilience.build_payoff_matrix.flagged_cells"][0] == 39
    assert metrics["resilience.build_payoff_matrix.cells"][0] == 100
    # one pre-attack flow per cell, all on the same unperturbed feeder
    assert metrics["netmodel.power_flow.repeat_ratio"][0] >= 99 / 263
    assert metrics["cli.payoff.total_s"][0] > metrics["resilience.build_payoff_matrix.total_s"][0]


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = [getattr(module, attr) for module, attr, _, _ in tracer._SITES]
    original = cli.build_payoff_matrix
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert cli.build_payoff_matrix is not original
            raise RuntimeError("leave the block early")
    after = [getattr(module, attr) for module, attr, _, _ in tracer._SITES]
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-learn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
