"""Process set-up shared by the benchmark's entry points.

Call :func:`prepare` before anything imports numpy: it pins the BLAS thread
pool, which OpenBLAS reads once when it loads, and puts the checkout's
``src`` first on the import path so the benchmark measures the sources next
to it and nothing installed elsewhere.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One thread: a training epoch takes the same time with 1 and 2 threads on
# this problem size (1.73 s and 1.75 s on 2 cores), and the library's results
# depend on the thread count, so the stored model is only reproducible at a
# fixed count.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MODEL_PATH = BENCH_DIR / "model.fssm"
OUT_DIR = ROOT / ".bench_out"


class SetupError(Exception):
    """The checkout cannot run the benchmark (sources or stored model missing)."""


def prepare() -> None:
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the BLAS thread count was pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "flowssm" / "__init__.py").is_file():
        raise SetupError(f"no flowssm sources under {src}")
    sys.path.insert(0, str(src))


def blas_threads_in_use() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be read."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
