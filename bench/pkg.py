"""Locate the checkout's own source tree, pin BLAS to one thread, import mrtucker.

The benchmark always measures the package under ``<checkout>/src``, never an
installed copy, so a run in a directory without the source fails instead of
timing something else.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def single_blas_thread() -> None:
    """Set every BLAS thread variable to 1.

    With a second OpenBLAS thread, the worker keeps spinning after each BLAS
    call. On a 2-CPU VM that made a fixed pure-Python kernel run at half speed
    (3.5 -> 7.5 ms) right after a 300x300 matmul, so every interpreted step of
    the pipeline would be timed at a speed set by the BLAS call before it.
    Must run before numpy is first imported: BLAS reads these at load time.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_mrtucker():
    """Import mrtucker from the checkout's src/ and nowhere else."""
    init = SRC / "mrtucker" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    mod = importlib.import_module("mrtucker")
    if Path(mod.__file__).resolve() != init.resolve():
        raise SourceMissing(f"imported mrtucker from {mod.__file__}, expected {init}")
    return mod
