"""Binary tensor files, sample manifests, and run-directory serialization.

Tensor file layout (all little-endian):
    magic   4 bytes  b"DTEN"
    version u32      1
    order   u32      N
    extents u64 * N
    payload f64 * prod(extents), first index fastest
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np

from .solver import FactorSet

MAGIC = b"DTEN"
VERSION = 1


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
    """Write factors, cores, trace CSV and the JSON run summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n, u in enumerate(result.factors.as_list(), start=1):
        write_tensor(out / f"u{n}.dten", u)
    for i in range(result.cores.shape[0]):
        write_tensor(out / f"core_{i:04d}.dten", result.cores[i])
    result.trace.save_csv(out / "trace.csv")
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run(run_dir) -> tuple[FactorSet, np.ndarray, dict, list[dict]]:
    """Read back a decompose run directory: (factors, cores, summary, trace rows)."""
    run = Path(run_dir)
    factors = FactorSet(*[read_tensor(run / f"u{n}.dten") for n in (1, 2, 3)])
    core_paths: dict[int, Path] = {}
    for p in run.glob("core_*.dten"):
        match = re.fullmatch(r"core_(\d+)\.dten", p.name)
        if match is None or core_paths.setdefault(int(match[1]), p) is not p:
            raise ValueError(f"{p}: core file name without an index, or a duplicate index")
    if not core_paths or max(core_paths) != len(core_paths) - 1:
        raise ValueError(f"{run}: core tensors must be numbered 0..n-1 without gaps; found "
                         f"{len(core_paths)} up to index {max(core_paths, default=None)}")
    cores = np.stack([read_tensor(core_paths[i]) for i in range(len(core_paths))])
    with open(run / "summary.json") as fh:
        summary = json.load(fh)
    trace_rows = []
    with open(run / "trace.csv") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            if line.strip():
                trace_rows.append(dict(zip(header, (float(v) for v in line.split(",")))))
    return factors, cores, summary, trace_rows
