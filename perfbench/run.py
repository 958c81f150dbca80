"""Layered benchmark of the gridgame CLI on the numpy backend.

    python3 perfbench/run.py --workload mc-compare --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The benchmark makes the workload's
inputs from the seed, then runs the workload's CLI commands one after
another, each as its own ``python -m gridgame`` process (a closed loop with
one client), in passes until ``--seconds`` are used.  Every command's
outputs are checked, and the data files of each pass must be byte-identical
to those of the first.  Times are taken from outside the program and
reported in reference seconds (see ``calibrated``); peak memory comes from
``os.wait4``.

With ``--trace 1`` the commands run once in this process through
``gridgame.cli.main`` untraced and once traced (see ``tracer.py``), and the
per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every child process
gets ``GRIDGAME_BACKEND=numpy`` and ``GRIDGAME_THREADS=1``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
ENV = {"GRIDGAME_BACKEND": "numpy", "GRIDGAME_THREADS": "1"}

SETUP_BLOCKS = 9
SETUP_BLOCK_S = 0.1
STARTUP_PROBES = 3
MIN_PASSES = 2
# a pass is not started after this many seconds, whatever --seconds says,
# so that a run ends well inside three minutes
MAX_ELAPSED_S = 120.0
CALIBRATION_STEPS = 400
CALIBRATION_PERIOD_S = 0.1
# the calibration task's usual CPU time on the machine the benchmark was tuned
# on (2 vCPUs, Python 3.11, numpy 2.4); reported times are scaled to it
CALIBRATION_REFERENCE_S = 0.0025


def calibrate() -> float:
    """CPU time of a fixed task that mixes interpreter work and small numpy
    calls, like the package's numpy-backend kernels.  It uses nothing of the
    package, so no change to the package moves it.
    """
    m = np.arange(400.0).reshape(20, 20)
    start = time.thread_time()
    acc = 0.0
    for i in range(CALIBRATION_STEPS):
        acc += float(m[i % 20].max()) + sum(k * k for k in range(40))
    return time.thread_time() - start


def calibrated(step):
    """Run ``step()`` and return its result with the median calibration time
    taken just before, every CALIBRATION_PERIOD_S during, and just after it.

    The speed of a shared host drifts by a third within minutes, and every
    timed step slows or speeds with it.  A step's wall time times
    CALIBRATION_REFERENCE_S over this median is the time it would take at
    the host's reference speed.  The task runs on this process's CPU, which
    the children share, and is timed in CPU time, so waiting for the CPU
    does not count; it takes about 2% of the CPU while a step runs.
    """
    samples = [calibrate()]
    done = threading.Event()

    def sample():
        while not done.wait(CALIBRATION_PERIOD_S):
            samples.append(calibrate())

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        result = step()
    finally:
        done.set()
        sampler.join()
    samples.append(calibrate())
    return result, statistics.median(samples)


def child_env() -> dict:
    env = dict(os.environ, **ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(args: list, log: Path) -> tuple[int, float, int]:
    """Run ``python -m gridgame <args>``; return (exit code, wall s, peak RSS kB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gridgame", *args], cwd=ROOT,
                                env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    from gridgame import backend
    return {"backend": backend.active_backend(), "numba": backend.HAS_NUMBA,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_revision": git_revision(),
            "seed": seed}


class Tally:
    """Attempted and failed commands, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {error}")


def check_outputs(wl, cmd, exit_code: int, first_digests: dict) -> str | None:
    """None when the command succeeded and its outputs pass every check,
    else the reason it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        cmd.check(cmd.out)
        digests = wl.output_digests(cmd)
    except Exception as exc:  # any unreadable or wrong output fails the command
        return f"{type(exc).__name__}: {exc}"
    first = first_digests.setdefault(cmd.name, digests)
    if digests != first:
        return "data files differ from the first pass"
    return None


def measure_setup(workload, seed: int) -> tuple[float, float, dict]:
    """Make the inputs repeatedly, in SETUP_BLOCKS blocks of at least
    SETUP_BLOCK_S each.  Return the median of the block medians in wall and
    in reference seconds, and the inputs."""
    d = WORK / "inputs"
    d.mkdir(parents=True)
    inputs = None

    def block():
        nonlocal inputs
        times = []
        while sum(times) < SETUP_BLOCK_S:
            start = time.perf_counter()
            inputs = workload.setup(d, seed)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    walls, scaled = [], []
    for _ in range(SETUP_BLOCKS):
        wall, cal = calibrated(block)
        walls.append(wall)
        scaled.append(wall * CALIBRATION_REFERENCE_S / cal)
    return statistics.median(walls), statistics.median(scaled), inputs


def timed_run(wl, workload, inputs: dict, seed: int, seconds: float, tally: Tally) -> dict:
    """Run passes of the workload's commands as child processes and return
    the end-to-end metrics other than set-up, times in reference seconds."""
    logs = WORK / "logs"
    logs.mkdir()
    # untimed: the first start-up writes bytecode caches
    run_process(["--version"], logs / "warmup.log")
    startups, rss, cals = [], [], []
    walls: dict = {}
    stage_of: dict = {}
    first_digests: dict = {}

    def launch(args, log):
        (code, wall, peak), cal = calibrated(lambda: run_process(args, log))
        rss.append(peak)
        cals.append(cal)
        return code, (wall, wall * CALIBRATION_REFERENCE_S / cal)

    start = time.perf_counter()
    passes = 0
    while True:
        out = WORK / f"pass{passes}"
        pass_start = time.perf_counter()
        for p in range(STARTUP_PROBES):
            code, times = launch(["--version"], logs / f"version{passes}-{p}.log")
            tally.record("--version", None if code == 0 else f"exit code {code}")
            startups.append(times)
        for cmd in workload.commands(inputs, out, seed):
            code, times = launch(cmd.args, logs / f"{cmd.name}{passes}.log")
            tally.record(f"pass {passes} {cmd.name}", check_outputs(wl, cmd, code, first_digests))
            walls.setdefault(cmd.name, []).append(times)
            stage_of[cmd.name] = cmd.stage
        shutil.rmtree(out)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and (now - start + (now - pass_start) > seconds
                                     or now - start > MAX_ELAPSED_S):
            break

    def median(pairs, k):
        return statistics.median(pair[k] for pair in pairs)

    # each command's median over the passes; the workload time is their sum
    print(f"passes: {passes}")
    for stage in dict.fromkeys(stage_of.values()):
        secs = [sum(median(w, k) for name, w in walls.items() if stage_of[name] == stage)
                for k in (0, 1)]
        print(f"{stage}: {secs[1]:.4f} s ({secs[0]:.4f} s wall)")
    print(f"workload wall: {sum(median(w, 0) for w in walls.values()):.4f} s")
    print(f"startup wall: {median(startups, 0):.4f} s")
    print(f"calibration: {statistics.median(cals):.6f} s "
          f"(median over {len(cals)} processes; reference {CALIBRATION_REFERENCE_S} s)")
    return {
        "workload_s": (sum(median(w, 1) for w in walls.values()), "s"),
        "startup_s": (median(startups, 1), "s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }


def traced_run(wl, workload, inputs: dict, seed: int, tally: Tally) -> dict:
    import tracer
    from gridgame import cli

    def invoke(cmd) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(cmd.args))

    first_digests: dict = {}
    untraced = 0.0
    for cmd in workload.commands(inputs, WORK / "untraced", seed):
        start = time.perf_counter()
        code = invoke(cmd)
        untraced += time.perf_counter() - start
        tally.record(f"untraced {cmd.name}", check_outputs(wl, cmd, code, first_digests))

    rec = tracer.Tracer()
    traced, output_bytes = 0.0, 0
    with rec:
        for cmd in workload.commands(inputs, WORK / "traced", seed):
            first_span = len(rec.spans)
            start = time.perf_counter()
            span = rec.open(f"cli.{cmd.args[0]}")
            try:
                code = invoke(cmd)
            finally:
                rec.close(span)
            traced += time.perf_counter() - start
            error = check_outputs(wl, cmd, code, first_digests)
            if error is None and workload.name == "mc-compare" and cmd.name == "payoff":
                error = pinned_counts_error(tracer.layer_metrics(rec.spans[first_span:]))
            tally.record(f"traced {cmd.name}", error)
            output_bytes += wl.output_bytes(cmd) if code == 0 else 0
    metrics = tracer.layer_metrics(rec.spans)
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


# exact counts of the traced bundled payoff build: 100 cells, each one
# pre-attack flow and one post-defense flow, 63 of them one curtailment
# re-solve; 39 cells carry a flag
PINNED_BUNDLED_PAYOFF = {
    "scenario.evaluate_pair.calls": 100,
    "netmodel.power_flow.calls": 263,
    "resilience.build_payoff_matrix.flagged_cells": 39,
}


def pinned_counts_error(metrics: dict) -> str | None:
    for name, want in PINNED_BUNDLED_PAYOFF.items():
        if metrics[name][0] != want:
            return f"{name} = {metrics[name][0]}, pinned at {want}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridgame" / "__init__.py").is_file():
        print(f"perfbench: no gridgame sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2

    # a terminated benchmark still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(ENV)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    env = environment(args.seed)
    # one CPU for this process and its children: the loop has one client,
    # and the calibration task must run where the commands run
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print("environment: " + json.dumps(dict(env, cpu=cpu), sort_keys=True))

    tally = Tally()
    try:
        setup_wall, setup_s, inputs = measure_setup(workload, args.seed)
        if args.trace:
            metrics = traced_run(wl, workload, inputs, args.seed, tally)
        else:
            print(f"setup wall: {setup_wall:.6f} s")
            metrics = timed_run(wl, workload, inputs, args.seed, args.seconds, tally)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()

    print(f"error_rate: {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}")
    for message in tally.messages:
        print(f"failed: {message}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
