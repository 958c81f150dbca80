"""The two names the benchmark harness reads for its environment line.

``perfbench/run.py`` records ``active_backend()`` and ``HAS_NUMBA`` with
every run.  The game kernels have one build each, the CPython loops in
:mod:`gridgame.gamesolve` and :mod:`gridgame.marl`, so these names exist
only for that line; nothing in the package imports this module.
"""

HAS_NUMBA = False


def active_backend() -> str:
    return "numpy"
