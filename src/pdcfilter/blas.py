"""Keep numpy's OpenBLAS on the calling thread while a command runs.

OpenBLAS threads the level-2 steps inside every LAPACK panel, so the QR of a
skeleton factor wakes its pool once per column; at a run's sizes (K x n
factors with K of 45 to 75 Mehler terms on the benchmark's states, a K x K
core, the genetic search's products) that costs more than it saves, and it
stalls whenever another process holds a core.  On a 2-vCPU machine, three
12 s benchmark pairs (seeds 51-53) with and without this read ``run_hires``
44.3-47.8 against 27.2-27.5 items/s and ``sweep_grid`` 890-952 against
653-778; ``ga_search`` read 0.61-0.82 against 0.74-0.81, inside its
run-to-run swing.  ``cli.main`` therefore runs its verb under
``calling_thread()``.  Library
calls keep the library default; nothing here changes a result, only which
thread computes it.

Only the OpenBLAS that numpy wheels bundle in ``numpy.libs`` is found; with
any other BLAS both functions do nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

# (get, set) symbol names: numpy 2 wheels bundle scipy-openblas, numpy 1
# wheels plain OpenBLAS, each as an ILP64 (suffix 64_) or an LP64 build
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _thread_calls():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # numpy has loaded it already: same handle
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


def num_threads() -> int | None:
    """OpenBLAS's current thread count, or None when it is not found."""
    calls = _thread_calls()
    return None if calls is None else int(calls[0]())


@contextmanager
def calling_thread():
    """Run the block with OpenBLAS on one thread; restore its count after."""
    calls = _thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = int(get())
    set_(1)
    try:
        yield
    finally:
        set_(before)
