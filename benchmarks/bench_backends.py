"""Timing comparison of the builds of each registered kernel.

Every kernel is timed as its array function (the numba source and the
reference the tests compare against), as its CPython build (what the numpy
backend runs) when it has one, and as its jitted build when numba imports.
The kernels are called directly with the arguments their public entry points
pass, and each build's output is checked against the array function's.
Numba's first call compiles (or loads the on-disk cache), so the jitted
build gets one untimed warmup call.

    python3 benchmarks/bench_backends.py [--repeats N] [--quick]
"""
import argparse
import statistics
import time

import numpy as np

from gridgame import gamesolve, marl


def workloads(quick: bool):
    """(label, kernel, args) for each kernel workload."""
    scale = 10 if quick else 1
    steps = 100_000 // scale
    m10 = np.random.default_rng(0).random((10, 10))
    rng = np.random.default_rng(1)
    record_every = max(1, steps // marl.TELEMETRY_ROWS)
    u2, u3, u5 = (rng.random((steps, k)) for k in (2, 3, 5))
    flat = (m10[None], np.ones((1, 10, 10, 1)))
    chain = marl.stage_mdp_default(m10)
    return [
        (f"fictitious_play 10x10, {steps} steps", gamesolve._fp_kernel,
         (m10, steps, 0.0, 100)),
        (f"regret_matching 10x10, {steps} steps", gamesolve._rm_kernel,
         (m10, u2, record_every)),
        (f"single_agent {steps} episodes", marl._single_kernel,
         (m10, np.cumsum(np.full(10, 0.1)), True, 0, 0.1, 1.0, 1.0, 0.9999,
          u3, record_every)),
        (f"multi_agent (maql) {steps} episodes", marl._mdp_kernel,
         (*flat, 0.0, 0, 0.1, 1.0, 1.0, 0.9995, u5, steps - steps // 10,
          record_every)),
        (f"mdp 3 states, gamma 0.8, power, {steps} episodes", marl._mdp_kernel,
         (chain.rewards, chain.transitions, 0.8, 2, 0.1, 0.6, 1.0, 0.9999, u5,
          steps - steps // 10, record_every)),
    ]


def median_time(fn, args, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def same_outputs(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--quick", action="store_true",
                    help="10x smaller workloads")
    args = ap.parse_args()

    rows = []
    for label, kernel, kargs in workloads(args.quick):
        ref = kernel.py_func(*kargs)
        times = {"array": median_time(kernel.py_func, kargs, args.repeats)}
        for name, build in (("cpython", kernel.cpython), ("numba", kernel.nb_func)):
            if build is None:
                continue
            out = build(*kargs)  # numba: compile or load the cache
            if name == "cpython" and not same_outputs(ref, out):
                raise SystemExit(f"{label}: {name} build differs from the array function")
            times[name] = median_time(build, kargs, args.repeats)
        rows.append((label, times))

    def cell(times, name):
        return f"{times[name]:>10.4f}" if name in times else f"{'-':>10}"

    def speedup(times, name):
        return f"{times['array'] / times[name]:>7.1f}x" if name in times else f"{'-':>8}"

    width = max(len(label) for label, _ in rows)
    print(f"{'workload':<{width}}  {'array [s]':>10}  {'cpython [s]':>11}  "
          f"{'numba [s]':>10}  {'cpython':>8}  {'numba':>8}")
    for label, times in rows:
        print(f"{label:<{width}}  {cell(times, 'array')}  {cell(times, 'cpython'):>11}  "
              f"{cell(times, 'numba')}  {speedup(times, 'cpython')}  "
              f"{speedup(times, 'numba')}")


if __name__ == "__main__":
    main()
