"""Dense tensor primitives: unfolding, folding, mode products, inner products, norms.

Tensors are plain float64 numpy arrays. The flat-storage convention used by the
on-disk format and by all unfoldings is first-index-fastest (Fortran order):
the mode-n unfolding of a tensor of shape (I_1, ..., I_N) is the I_n x prod(I_k, k!=n)
matrix whose column index runs over the remaining modes with the earliest mode
varying fastest (Kolda-Bader convention).
"""

from __future__ import annotations

import numpy as np

# |x| <= L0_TOL counts as zero; soft-thresholding produces exact zeros, this
# only guards against downstream arithmetic noise.
L0_TOL = 1e-12


def as_tensor(t) -> np.ndarray:
    """Coerce to a float64 ndarray of order >= 1."""
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    return arr


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding (0-based mode)."""
    t = as_tensor(t)
    _check_mode(t, mode)
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


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
    """Mode-n product t x_n u; u has shape (J, I_n)."""
    t = as_tensor(t)
    _check_mode(t, mode)
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix of shape {u.shape} cannot multiply mode {mode} of extent {t.shape[mode]}"
        )
    out = np.tensordot(u, t, axes=(1, mode))
    return np.moveaxis(out, 0, mode)


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


def inner(a: np.ndarray, b: np.ndarray) -> float:
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


def norms(t: np.ndarray) -> tuple[float, float, int]:
    """(Frobenius norm, l1 norm, nonzero count at tolerance L0_TOL)."""
    flat = as_tensor(t).ravel()
    return (
        float(np.linalg.norm(flat)),
        float(np.abs(flat).sum()),
        int(np.count_nonzero(np.abs(flat) > L0_TOL)),
    )
