"""Binary tensor files, sample manifests, and run-directory serialization.

A run directory holds one file per array: u1.dten, u2.dten, u3.dten (the
factors), cores.dten (the (M, R1, R2, R3) core stack), trace.csv (one row per
sweep) and summary.json. Tensors, trace.csv and summary.json are rewritten in
place (_write): if the process stops or raises partway, the file being written
starts with a zero byte, and so does the summary.json of an interrupted save_run.
Nothing is fsynced, so a system crash or power loss can leave an older mix.

Tensor file layout (all little-endian):
    magic   4 bytes  b"DTEN"
    version u32      1
    order   u32      N
    extents u64 * N
    payload f64 * prod(extents), first index fastest
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .solver import FactorSet
from .tensor import _float64, _frozen

MAGIC = b"DTEN"
VERSION = 1
TRACE_HEADER = ("iter,L,l1_term,fit_term,manifold_term,RE,decrease_slack,sparsity,wall_ms,"
                "t_factor_ms,t_core_ms,t_eval_ms,t_other_ms")


def _write(path, head, *rest) -> None:
    """Write the bytes of head (nonempty) and then rest (bytes-like objects) to path, made
    if missing with open(path, "wb")'s mode bits, in place: an existing file keeps its
    blocks and is cut to the new length. Truncating it to 0 first, as open(path, "wb")
    does, frees its blocks, and on ext4 mounted with discard that also trims them: ~0.1 ms
    for a 1 KB file and ~1 ms for 1.2 MB, against ~0.01 and ~0.1 ms for writing in place
    (measured on rewrites of one run directory). The first byte is
    zeroed before the rest is written and written last, so if the process stops or raises
    partway the file starts with a zero byte: no DTEN magic, and no JSON. Nothing is
    fsynced: after a system crash the disk may hold any mix of old and new blocks."""
    head, *rest = (memoryview(p).cast("B") for p in (head, *rest))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        os.write(fd, b"\0")
        for view in (head[1:], *rest):
            while view:         # one write stops short of 2 GiB
                view = view[os.write(fd, view):]
        os.ftruncate(fd, len(head) + sum(map(len, rest)))
        os.pwrite(fd, head[:1], 0)
    finally:
        os.close(fd)


def _writable(path, t) -> np.ndarray:
    """t as a float64 array that read_tensor can read back from path, checked before any
    file is opened."""
    t = np.atleast_1d(_float64(t, f"{path}: the tensor"))
    if t.size == 0:             # read_tensor rejects zero extents
        raise ValueError(f"{path}: cannot write a tensor with a zero extent {t.shape}")
    return t


def write_tensor(path, t: np.ndarray) -> None:
    t = np.asfortranarray(_writable(path, t))
    _write(path, MAGIC + struct.pack(f"<II{t.ndim}Q", VERSION, t.ndim, *t.shape),
           t.T)     # C-contiguous, so its buffer is written as is


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
    """Write factors, the core stack, the trace CSV and the JSON run summary. The arrays are
    checked and the text encoded first, so a save that rejects its input leaves an earlier
    run in out_dir as it was. Then the first byte of an existing summary.json is zeroed and
    summary.json is written last, so a save whose process stops or raises while writing
    leaves a run that load_run rejects."""
    out = Path(out_dir)
    names = ("u1.dten", "u2.dten", "u3.dten", "cores.dten")
    *factors, cores = [_writable(out / name, t)
                       for name, t in zip(names, (*result.factors, result.cores))]
    lines = [TRACE_HEADER]
    for rec in result.trace.records:
        it, *cols = vars(rec).values()      # the record's fields, in declaration order
        lines.append(f"{it}," + ",".join(repr(float(c)) for c in cols))
    trace = "".join(f"{line}\n" for line in lines).encode()
    text = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
    with contextlib.suppress(FileNotFoundError), open(out / "summary.json", "r+b") as fh:
        fh.write(b"\0")
    save_decomposition(out, factors, cores)
    _write(out / "trace.csv", trace)
    _write(out / "summary.json", text)


def load_run(run_dir) -> tuple[FactorSet, np.ndarray, dict, list[dict]]:
    """Read back a decompose run directory: (factors, cores, summary, trace rows)."""
    run = Path(run_dir)
    with contextlib.suppress(FileNotFoundError), open(run / "summary.json", "rb") as fh:
        if fh.read(1) == b"\0":      # save_run zeroes it first and writes it last
            raise ValueError(f"{run / 'summary.json'}: incomplete run: the save that wrote "
                             f"{run} did not finish")
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
