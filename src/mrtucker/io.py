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
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .solver import FactorSet
from .tensor import _frozen

MAGIC = b"DTEN"
VERSION = 1
TRACE_HEADER = ("iter,L,l1_term,fit_term,manifold_term,RE,decrease_slack,sparsity,wall_ms,"
                "t_factor_ms,t_core_ms,t_eval_ms,t_other_ms")


def write_tensor(path, t: np.ndarray) -> None:
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t.size == 0:             # read_tensor rejects zero extents
        raise ValueError(f"{path}: cannot write a tensor with a zero extent {t.shape}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, t.ndim))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
        fh.write(np.asfortranarray(t).T)    # C-contiguous, so its buffer is written as is


def read_tensor(path) -> np.ndarray:
    """Read a DTEN file into an owned, writable, C-contiguous array, unbuffered. The file
    size is checked against the header before the payload is read, so a corrupt header
    cannot cause a huge allocation."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        head = os.read(fd, 12)
        if head[:4] != MAGIC or len(head) < 12:
            raise ValueError(f"{path}: bad magic {head[:4]!r} or truncated header")
        version, order = struct.unpack("<II", head[4:])
        if version != VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if not 1 <= order <= (size - 12) // 8:
            raise ValueError(f"{path}: invalid order {order} for a {size}-byte file")
        shape = struct.unpack(f"<{order}Q", os.read(fd, 8 * order))
        if any(s < 1 for s in shape):
            raise ValueError(f"{path}: invalid extents {shape}")
        count, have = math.prod(shape), size - 12 - 8 * order
        if have != 8 * count:
            raise ValueError(f"{path}: {'truncated' if have < 8 * count else 'trailing bytes in'}"
                             f" payload ({have} bytes, expected {8 * count})")
        parts, left = [], 8 * count
        while left and (part := os.read(fd, left)):     # one read stops short of 2 GiB
            parts.append(part)
            left -= len(part)
    finally:
        os.close(fd)
    if left:
        raise ValueError(f"{path}: truncated payload ({8 * count - left} bytes read, "
                         f"expected {8 * count})")
    return np.frombuffer(b"".join(parts), dtype="<f8").reshape(shape, order="F").copy()


def write_manifest(path, rows) -> None:
    """rows: iterable of (relative path, label-or-None); fields holding a comma
    or a quote are CSV-quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([rel] if label is None else [rel, label] for rel, label in rows)


def load_samples(manifest_path) -> tuple[np.ndarray, list[str] | None]:
    """Load all tensors listed in a manifest CSV (path[,label] per row).

    Paths are resolved relative to the manifest's directory. All tensors must
    share one shape. The stack is read-only (copy it to change it), so the
    pipeline forms its checked norm and raw mode Grams once.
    """
    base = os.path.dirname(manifest_path)
    rows = []
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh, strict=True)    # an unclosed quote is an error, not a label
        try:
            for parts in reader:
                rel, label = ([p.strip() for p in parts] + ["", ""])[:2]
                if rel:
                    rows.append((reader.line_num, rel, label or None))
                elif len(parts) > 1:            # a label without a path, not a blank line
                    raise csv.Error("empty sample path")
        except csv.Error as exc:
            raise ValueError(f"{manifest_path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{manifest_path}: empty manifest")

    # the first file by the checked reader; each later one by one readv into fixed-size buffers,
    # kept if the first file's header and one payload came back, else by read_tensor's checks
    first = read_tensor(os.path.join(base, rows[0][1]))
    stack = np.empty((len(rows),) + first.shape)    # filled in place: no per-file list
    stack[0], shape = first, first.shape
    del first
    header = MAGIC + struct.pack(f"<II{len(shape)}Q", VERSION, len(shape), *shape)
    head, stage, spare = bytearray(len(header)), np.empty(shape[::-1], "<f8"), bytearray(1)
    for n, (lineno, rel, _) in enumerate(rows[1:], start=1):
        path = os.path.join(base, rel)
        fd = os.open(path, os.O_RDONLY)
        try:
            got = os.readv(fd, [head, stage, spare])
        finally:
            os.close(fd)
        if got == len(header) + stage.nbytes and head == header:
            stack[n] = stage.T      # the file's one copy: its F-order payload into C order
        elif (t := read_tensor(path)).shape == shape:
            stack[n] = t            # a well-formed file that one readv did not take whole
        else:
            raise ValueError(f"{manifest_path}: row {lineno} ({rel}) has shape {t.shape}, "
                             f"expected {shape}")
    labels = [label for _, _, label in rows]
    label_list = None if all(l is None for l in labels) else [l or "" for l in labels]
    return _frozen(stack), label_list


def save_decomposition(out_dir, factors, cores) -> Path:
    """Write u1..u3.dten and cores.dten into out_dir, made if missing."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n, u in enumerate(factors, start=1):
        write_tensor(out / f"u{n}.dten", u)
    write_tensor(out / "cores.dten", cores)
    return out


def save_run(out_dir, result, summary: dict) -> None:
    """Write factors, the core stack, the trace CSV and the JSON run summary."""
    out = save_decomposition(out_dir, result.factors, result.cores)
    with open(out / "trace.csv", "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in result.trace.records:
            it, *cols = vars(rec).values()      # the record's fields, in declaration order
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
    cores = read_tensor(run / "cores.dten")
    ranks = tuple(u.shape[1] for u in factors)
    if cores.shape[1:] != ranks:         # also rejects every order but 4
        raise ValueError(f"{run / 'cores.dten'}: core stack of shape {cores.shape}, "
                         f"expected order 4 with extents (M,) + {ranks}")
    names = ("u1.dten", "u2.dten", "u3.dten", "cores.dten")
    if bad := [name for name, t in zip(names, (*factors, cores)) if not np.isfinite(t).all()]:
        raise ValueError(f"{run}: non-finite entries (NaN or inf) in {', '.join(bad)}")
    where, trace_rows = run / "summary.json", []
    try:        # a malformed summary names its file; a malformed trace row, its line too
        summary = json.loads(where.read_text())
        with open(run / "trace.csv") as fh:
            header = fh.readline().strip().split(",")
            for n, line in enumerate(fh, start=2):
                if line.strip():
                    where, fields = f"{run / 'trace.csv'}: line {n}", line.split(",")
                    if len(fields) != len(header):
                        raise ValueError(f"{len(fields)} fields, the header has {len(header)}")
                    trace_rows.append(dict(zip(header, map(float, fields))))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return factors, cores, summary, trace_rows
