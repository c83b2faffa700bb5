"""The environment recorded beside every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

import pkg


def _blas_lapack() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):       # numpy older than 1.25 has no dict mode
        return {"blas": "unknown", "lapack": "unknown"}
    return {lib: f"{deps[lib].get('name', '?')} {deps[lib].get('version', '?')}"
            for lib in ("blas", "lapack") if lib in deps}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Unified and data cache sizes of cpu0 by level, e.g. {"L2": "1024K"}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_lapack(),
        "blas_threads": {var: os.environ.get(var) for var in pkg.THREAD_VARS},
        "nproc": pkg.nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "git_sha": _git_sha(pkg.ROOT),
    }
