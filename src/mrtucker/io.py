"""Binary tensor files, sample manifests, and run-directory serialization.

A run directory holds one file per array: u1.dten, u2.dten, u3.dten (the
factors), cores.dten (the (M, R1, R2, R3) core stack), trace.csv (one row per
sweep) and summary.json.

Tensor file layout (all little-endian):
    magic   4 bytes  b"DTEN"
    version u32      1
    order   u32      N
    extents u64 * N
    payload f64 * prod(extents), first index fastest
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .solver import FactorSet

MAGIC = b"DTEN"
VERSION = 1
TRACE_HEADER = "iter,L,l1_term,fit_term,manifold_term,RE,decrease_slack,sparsity,wall_ms"


def write_tensor(path, t: np.ndarray) -> None:
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 1:
        t = t.reshape(1)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, t.ndim))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
        fh.write(np.asfortranarray(t).tobytes(order="F"))


def read_tensor(path) -> np.ndarray:
    """Read a DTEN file. The file size is checked against the header before
    the payload is read, so a corrupt header cannot cause a huge allocation."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != MAGIC or len(head) < 12:
            raise ValueError(f"{path}: bad magic {head[:4]!r} or truncated header")
        version, order = struct.unpack("<II", head[4:])
        if version != VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if not 1 <= order <= (size - 12) // 8:
            raise ValueError(f"{path}: invalid order {order} for a {size}-byte file")
        shape = struct.unpack(f"<{order}Q", fh.read(8 * order))
        if any(s < 1 for s in shape):
            raise ValueError(f"{path}: invalid extents {shape}")
        count, have = math.prod(shape), size - 12 - 8 * order
        if have != 8 * count:
            raise ValueError(f"{path}: {'truncated' if have < 8 * count else 'trailing bytes in'}"
                             f" payload ({have} bytes, expected {8 * count})")
        flat = np.frombuffer(fh.read(8 * count), dtype="<f8", count=count)
        return np.reshape(flat, shape, order="F").copy()


def write_manifest(path, rows) -> None:
    """rows: iterable of (relative path, label-or-None); fields holding a comma
    or a quote are CSV-quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([rel] if label is None else [rel, label] for rel, label in rows)


def load_samples(manifest_path) -> tuple[np.ndarray, list[str] | None]:
    """Load all tensors listed in a manifest CSV (path[,label] per row).

    Paths are resolved relative to the manifest's directory. All tensors must
    share one shape.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    rows = []
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for parts in reader:
                rel, label = ([p.strip() for p in parts] + ["", ""])[:2]
                if rel or len(parts) > 1:       # not a blank line
                    rows.append((reader.line_num, rel, label or None))
        except csv.Error as exc:
            raise ValueError(f"{manifest_path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{manifest_path}: empty manifest")

    stack = None        # filled in place: no per-file list, no np.stack copy
    for n, (lineno, rel, _) in enumerate(rows):
        t = read_tensor(base / rel)
        if stack is None:
            stack = np.empty((len(rows),) + t.shape)
        elif t.shape != stack.shape[1:]:
            raise ValueError(
                f"{manifest_path}: row {lineno} ({rel}) has shape {t.shape}, "
                f"expected {stack.shape[1:]}"
            )
        stack[n] = t
    labels = [label for _, _, label in rows]
    label_list = None if all(l is None for l in labels) else [l or "" for l in labels]
    return stack, label_list


def save_run(out_dir, result, summary: dict) -> None:
    """Write factors, the core stack, the trace CSV and the JSON run summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n, u in enumerate(result.factors, start=1):
        write_tensor(out / f"u{n}.dten", u)
    write_tensor(out / "cores.dten", result.cores)
    with open(out / "trace.csv", "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in result.trace.records:
            it, *cols = dataclasses.astuple(rec)
            fh.write(f"{it}," + ",".join(repr(float(c)) for c in cols) + "\n")
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run(run_dir) -> tuple[FactorSet, np.ndarray, dict, list[dict]]:
    """Read back a decompose run directory: (factors, cores, summary, trace rows)."""
    run = Path(run_dir)
    factors = FactorSet(*[read_tensor(run / f"u{n}.dten") for n in (1, 2, 3)])
    if any(u.ndim != 2 for u in factors):
        raise ValueError(f"{run}: factors must be matrices, "
                         f"got orders {[u.ndim for u in factors]}")
    if not (run / "cores.dten").is_file():
        raise ValueError(f"{run}: no cores.dten core stack (run directories in the old "
                         f"core_<n>.dten layout are not read)")
    cores = read_tensor(run / "cores.dten")
    ranks = tuple(u.shape[1] for u in factors)
    if cores.shape[1:] != ranks:         # also rejects every order but 4
        raise ValueError(f"{run / 'cores.dten'}: core stack of shape {cores.shape}, "
                         f"expected order 4 with extents (M,) + {ranks}")
    with open(run / "summary.json") as fh:
        summary = json.load(fh)
    trace_rows = []
    with open(run / "trace.csv") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            if line.strip():
                trace_rows.append(dict(zip(header, (float(v) for v in line.split(",")))))
    return factors, cores, summary, trace_rows
