"""Kernel backend selection: numba-jitted hot loops or their CPython builds.

Every hot kernel in this package is written once as a plain Python/numpy
array function and registered here with :func:`kernel`.  Under the "numba"
backend callers get the jitted build of that function.  Under the "numpy"
backend they get the kernel's CPython build when one is registered (the same
step loop over Python floats and lists, which the interpreter runs several
times faster than element access on numpy arrays), else the array function
itself.  The array function stays the numba source and the bit-for-bit
reference the tests compare the CPython builds against.

The backend is chosen from the ``GRIDGAME_BACKEND`` environment variable at
import time ("numba" or "numpy"; unset means numba when it imports, else
numpy) and can be switched at runtime with :func:`set_backend`, which is what
the benchmark harness and the backend-parity tests do.

Kernels consume pre-drawn uniform arrays instead of calling an RNG, so every
build produces bit-identical results for the same seed.
"""

from __future__ import annotations

import os
import warnings

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # numba is an optional extra; numpy is always available
    HAS_NUMBA = False

_VALID = ("numba", "numpy")
_DEFAULT = "numba" if HAS_NUMBA else "numpy"

_backend = os.environ.get("GRIDGAME_BACKEND", "").strip().lower() or _DEFAULT
if _backend not in _VALID:
    warnings.warn(f"GRIDGAME_BACKEND={_backend!r} not recognized, using {_DEFAULT!r}")
    _backend = _DEFAULT
if _backend == "numba" and not HAS_NUMBA:
    warnings.warn("GRIDGAME_BACKEND=numba but numba is not installed, "
                  "falling back to numpy kernels")
    _backend = "numpy"

_REGISTRY: dict[str, "Kernel"] = {}


def active_backend() -> str:
    return _backend


def set_backend(name: str) -> None:
    """Switch kernel dispatch globally. Mainly for tests and benchmarks."""
    global _backend
    if name not in _VALID:
        raise ValueError(f"backend must be one of {_VALID}, got {name!r}")
    if name == "numba" and not HAS_NUMBA:
        raise RuntimeError("numba backend requested but numba is not installed")
    _backend = name


class Kernel:
    """Dispatcher for one registered hot loop.

    ``py_func`` is the array function, ``nb_func`` its jitted build (None
    without numba; numba compiles lazily on first call and caches the machine
    code on disk) and ``cpython`` the optional CPython build, registered with
    :meth:`cpython_build`.  The builds are looked up on every call, so a test
    can replace one and see which build the backend runs.
    """

    def __init__(self, py_func):
        self.py_func = py_func
        self.nb_func = njit(cache=True)(py_func) if HAS_NUMBA else None
        self.cpython = None
        self.__name__ = py_func.__name__
        self.__doc__ = py_func.__doc__

    def cpython_build(self, func):
        """Register ``func`` as this kernel's build for the numpy backend."""
        self.cpython = func
        return func

    def __call__(self, *args):
        if _backend == "numba" and self.nb_func is not None:
            return self.nb_func(*args)
        return (self.cpython or self.py_func)(*args)


def kernel(py_func) -> Kernel:
    """Register a hot-loop array function; returns its backend dispatcher."""
    dispatch = Kernel(py_func)
    _REGISTRY[py_func.__name__] = dispatch
    return dispatch


def registered_kernels() -> list[str]:
    return sorted(_REGISTRY)


# rows converted to Python lists per chunk: a whole (100000, 5) array as
# lists adds ~27 MB of peak memory, a 512-row chunk about 0.1 MB
ROW_CHUNK = 512


def iter_rows(arr):
    """Yield the rows of a 2-d array as lists of Python floats, chunk by chunk."""
    for start in range(0, arr.shape[0], ROW_CHUNK):
        yield from arr[start:start + ROW_CHUNK].tolist()

