"""Dense tensor primitives: unfolding, folding, mode products and the mode Grams
of a sample stack.

Tensors are plain float64 numpy arrays. The flat-storage convention used by the
on-disk format and by all unfoldings is first-index-fastest (Fortran order):
the mode-n unfolding of a tensor of shape (I_1, ..., I_N) is the I_n x prod(I_k, k!=n)
matrix whose column index runs over the remaining modes with the earliest mode
varying fastest (Kolda-Bader convention).
"""

from __future__ import annotations

import math

import numpy as np

# |x| <= L0_TOL counts as zero; soft-thresholding produces exact zeros, this
# only guards against downstream arithmetic noise.
L0_TOL = 1e-12

# float64 entries per chunk of a chunked pass over a large array (~1 MB)
_CHUNK_FLOATS = 2 ** 17


def as_tensor(t) -> np.ndarray:
    """Coerce to a float64 ndarray of order >= 1."""
    return np.atleast_1d(np.asarray(t, dtype=np.float64))


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding (0-based mode)."""
    t = as_tensor(t)
    _check_mode(t, mode)
    rest = math.prod(t.shape[:mode] + t.shape[mode + 1:])     # no -1: size-0 tensors work
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], rest), order="F")


def fold(m: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold` for the given full tensor shape."""
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    m = np.asarray(m, dtype=np.float64)
    rest = shape[:mode] + shape[mode + 1:]
    expected = (shape[mode], int(np.prod(rest, dtype=np.int64)))
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not match unfolding {expected} of {shape}")
    return np.moveaxis(np.reshape(m, (shape[mode],) + rest, order="F"), 0, mode)


def mode_product(t: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n product t x_n u; u has shape (J, I_n). A matmul over t's C-order
    view as (lead, I_n, trail), or one GEMM on (lead, I_n) for the last mode, so
    a C-contiguous t is never copied; explicit extents keep size-0 tensors working."""
    t = as_tensor(t)
    _check_mode(t, mode)
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix of shape {u.shape} cannot multiply mode {mode} of extent {t.shape[mode]}"
        )
    lead, trail = math.prod(t.shape[:mode]), math.prod(t.shape[mode + 1:])
    if mode == t.ndim - 1:
        out = t.reshape(lead, t.shape[mode]) @ u.T
    else:
        out = np.matmul(u, t.reshape(lead, t.shape[mode], trail))
    return out.reshape(t.shape[:mode] + (u.shape[0],) + t.shape[mode + 1:])


def multi_mode_product(t: np.ndarray, mats, modes=None, transpose: bool = False) -> np.ndarray:
    """Apply several mode products in sequence.

    mats is a sequence of matrices, modes the matching mode indices (defaults
    to 0..len(mats)-1). With transpose=True each matrix is applied transposed.
    """
    if modes is None:
        modes = range(len(mats))
    out = as_tensor(t)
    for u, mode in zip(mats, modes):
        out = mode_product(out, u.T if transpose else u, mode)
    return out


def _chunks(rows: int, width: int):
    """Slices over `rows` rows of `width` doubles each, about 1 MB at a time."""
    step = max(1, _CHUNK_FLOATS // max(1, width))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _mode_gram(stack: np.ndarray, mode: int) -> np.ndarray:
    """unfold(stack, mode) @ unfold(stack, mode).T for a mode >= 1 of a sample
    stack (sample axis 0): sum_i X^(i)_(n) X^(i)_(n)^T, with no stack-sized copy
    of a C-contiguous stack. The last mode is one GEMM on the C-order (rest, I_n)
    view; other modes add up ~1 MB slabs of samples, per-sample Grams batched for
    mode 1 and the slab's axis moved to the front for the rest (the column order
    of an unfolding does not change its Gram)."""
    stack = as_tensor(stack)
    if not 1 <= mode < stack.ndim:
        raise ValueError(f"mode {mode} is not a sample mode of an order-{stack.ndim} stack")
    i_n = stack.shape[mode]
    rest = math.prod(stack.shape[1:mode] + stack.shape[mode + 1:])  # per sample
    if mode == stack.ndim - 1:
        y = stack.reshape(stack.shape[0] * rest, i_n)
        return y.T @ y
    gram = np.zeros((i_n, i_n))
    # per sample, a slab holds I_n * rest entries and its batch of Grams I_n * I_n
    for s in _chunks(stack.shape[0], i_n * max(i_n, rest)):
        slab = stack[s]
        if mode == 1:
            y = slab.reshape(slab.shape[0], i_n, rest)
            gram += (y @ y.transpose(0, 2, 1)).sum(axis=0)
        else:
            y = np.moveaxis(slab, mode, 0).reshape(i_n, slab.shape[0] * rest)
            gram += y @ y.T
    return gram


def _stack_norm(samples: np.ndarray) -> float:
    """||X||_F of a sample stack, or a ValueError naming the offending samples
    when it is not finite (NaN or inf entries, or ||X||^2 beyond float64). A
    finite ||X||^2 keeps every Gram entry of the stack finite (Cauchy-Schwarz)."""
    with np.errstate(over="ignore", invalid="ignore"):     # reported below instead
        norm = float(np.linalg.norm(samples.ravel()))
        if not np.isfinite(norm):
            bad = [i for i, x in enumerate(samples) if not np.isfinite(np.vdot(x, x))]
            raise ValueError(f"samples are not finite or overflow float64 (||X||_F = "
                             f"{norm}); non-finite ||X^(i)||^2 at samples {bad[:10]}")
    return norm
