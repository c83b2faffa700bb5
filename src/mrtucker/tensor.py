"""Dense tensor primitives: unfolding, mode products and the mode Grams of a
sample stack, with the checked norm and raw mode Grams of each loaded stack formed
once.

Tensors are plain float64 numpy arrays. The flat-storage convention used by the
on-disk format and by all unfoldings is first-index-fastest (Fortran order):
the mode-n unfolding of a tensor of shape (I_1, ..., I_N) is the I_n x prod(I_k, k!=n)
matrix whose column index runs over the remaining modes with the earliest mode
varying fastest (Kolda-Bader convention).
"""

from __future__ import annotations

import math
import numbers
import weakref

import numpy as np

# |x| <= L0_TOL counts as zero; soft-thresholding produces exact zeros, this
# only guards against downstream arithmetic noise.
L0_TOL = 1e-12

_CHUNK_FLOATS = 2 ** 17    # float64 entries per chunk of a pass over a large array (~1 MB)
_CACHE_FLOATS = 2 ** 15    # and per chunk that stays in cache (~256 KB)

# id -> {"norm": ||X||_F once checked, mode: raw mode Gram} for each live stack that
# _frozen returned; an id is unique among live objects, and the entry goes with its stack
_LOADED: dict[int, dict] = {}


def _integer(v) -> bool:
    """v is an integer, and not a bool (True is an int to Python, not here)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v) -> bool:
    """v is a real number, and not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _reals(a: np.ndarray) -> bool:
    """a's entries are real numbers: integers or floats, not bools, complex numbers, objects
    or strings."""
    return a.dtype.kind in "iuf"


def _float64(a, name: str) -> np.ndarray:
    """a as a float64 array, or a ValueError naming it and its dtype unless its entries are
    real numbers (bools, complex numbers, objects and strings are refused, not cast)."""
    a = np.asarray(a)
    if a.dtype != np.float64:       # so a float64 array costs what np.asarray(a, np.float64) did
        if not _reals(a):
            raise ValueError(f"{name} must hold integers or floats, got {a.dtype}")
        a = a.astype(np.float64)
    return a


def _typed(value, cls, name: str):
    """value, or a ValueError naming it and its type unless it is a cls."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding (0-based mode)."""
    t = _float64(t, "tensor")
    _check_mode(t, mode)
    rest = math.prod(t.shape[:mode] + t.shape[mode + 1:])     # no -1: size-0 tensors work
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], rest), order="F")


def mode_product(t: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n product t x_n u; u has shape (J, I_n)."""
    t = _float64(t, "tensor")
    _check_mode(t, mode)
    u = _float64(u, "matrix")
    if u.ndim != 2 or u.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix of shape {u.shape} cannot multiply mode {mode} of extent {t.shape[mode]}"
        )
    return _mode_product(t, u, mode)


def _mode_product(t: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """mode_product of a float64 t and a float64 matrix u that fits its mode, unchecked: a
    matmul over t's C-order view as (lead, I_n, trail), or one GEMM on (lead, I_n) for the
    last mode, so a C-contiguous t is never copied; explicit extents keep size-0 tensors
    working."""
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
    out = _float64(t, "tensor")
    for u, mode in zip(mats, modes):
        out = mode_product(out, u.T if transpose else u, mode)
    return out


def _mode_products(t: np.ndarray, mats, modes) -> np.ndarray:
    """multi_mode_product of a float64 t and float64 matrices that fit, unchecked."""
    for u, mode in zip(mats, modes):
        t = _mode_product(t, u, mode)
    return t


def _chunks(rows: int, width: int, floats: int | None = None):
    """Slices over `rows` rows of `width` doubles each, `floats` (_CHUNK_FLOATS, read at
    the call) at a time."""
    step = max(1, (floats or _CHUNK_FLOATS) // max(1, width))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _frozen(stack: np.ndarray) -> np.ndarray:
    """stack (which owns its data) made read-only, as a registered view: while it lives,
    _sample_stack and _mode_gram form its checked norm and raw mode Grams at most once. A
    view, slice or copy of it is never served; code that makes view.base writable again
    and then writes to it gets the stale shared values."""
    stack.flags.writeable = False
    view = stack.view()
    _LOADED[id(view)] = {}
    weakref.finalize(view, _LOADED.pop, id(view), None)
    return view


def _once(a: np.ndarray, key, form):
    """form(); for a registered stack a, the value kept under key, formed (read-only) on
    the first call. A form that raises keeps nothing."""
    facts = _LOADED.get(id(a))
    if facts is None:
        return form()
    if key not in facts:
        value = facts[key] = form()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return facts[key]


def _mode_gram(a: np.ndarray, mode: int) -> np.ndarray:
    """unfold(a, mode) @ unfold(a, mode).T, the raw mode Gram of a float64 sample stack
    (sample axis 0) for a mode >= 1: _gram's products over ~1 MB slabs of samples added up,
    a sample being I_n * max(I_n, rest) doubles (its entries or its batch of products).
    Formed once per registered stack and then shared read-only."""
    def form():
        _check_mode(a, mode)
        out = np.zeros((a.shape[mode],) * 2)
        for s in _chunks(len(a), max(a.shape[mode] ** 2, math.prod(a.shape[1:]))):
            x = a[s]     # one object, so _gram reuses its swapped slab
            out += _gram(x, mode, x)
        return out
    return _once(a, mode, form)


def _gram(a: np.ndarray, mode: int, b: np.ndarray) -> np.ndarray:
    """sum_i A^(i)_(n) B^(i)_(n)^T for a mode n >= 1 of two float64 sample stacks (sample
    axis 0) that agree off it, in one product: batched per sample for mode 1, else one GEMM
    with the mode axis swapped with the last (a copy for the middle mode, a view of a C-order
    stack for the last; both stacks take the same row order). b is a reuses a's copy."""
    if not 1 <= mode < a.ndim:
        raise ValueError(f"mode {mode} is not a sample mode of an order-{a.ndim} stack")
    off = a.shape[:mode] + a.shape[mode + 1:]
    if b.ndim != a.ndim or b.shape[:mode] + b.shape[mode + 1:] != off:
        raise ValueError(f"stacks of shapes {a.shape} and {b.shape} differ off mode {mode}")
    m, i_n, j_n, rest = len(a), a.shape[mode], b.shape[mode], math.prod(off[1:])
    if mode == 1:
        ya = a.reshape(m, i_n, rest)
        yb = ya if b is a else b.reshape(m, j_n, rest)
        return (ya @ yb.transpose(0, 2, 1)).sum(axis=0)
    ya = a.swapaxes(mode, -1).reshape(m * rest, i_n)
    yb = ya if b is a else b.swapaxes(mode, -1).reshape(m * rest, j_n)
    return ya.T @ yb


def _sample_stack(samples) -> tuple[np.ndarray, float]:
    """(samples as a float64 stack, ||X||_F), or a ValueError: for a stack with a zero extent,
    one not of order-3 samples or one not of integers or floats (bools, complex numbers,
    objects and strings are refused, not cast), or naming the samples when ||X||_F is not
    finite (NaN or inf entries, or ||X||^2 beyond float64): a finite ||X||^2 keeps every Gram
    entry finite (Cauchy-Schwarz). A registered stack is returned as itself, and its norm is
    formed once it first passes, then shared."""
    samples = np.asarray(samples)
    if not _reals(samples) or samples.ndim != 4 or 0 in samples.shape:
        raise ValueError(f"expected a nonempty stack of order-3 samples of real numbers, got "
                         f"{samples.dtype} of shape {samples.shape}")
    samples = samples.astype(np.float64, copy=False)
    return samples, _once(samples, "norm", lambda: _stack_norm(samples))


def _stack_norm(samples: np.ndarray) -> float:
    """||X||_F of a float64 stack, or the ValueError naming the samples whose ||X^(i)||^2
    is not finite: one pass over the stack."""
    with np.errstate(over="ignore", invalid="ignore"):     # reported as a ValueError instead
        if np.isfinite(norm := float(np.linalg.norm(samples.ravel()))):
            return norm
        bad = [i for i, x in enumerate(samples) if not np.isfinite(np.vdot(x, x))]
    raise ValueError(f"samples are not finite or overflow float64 (||X||_F = "
                     f"{norm}); non-finite ||X^(i)||^2 at samples {bad[:10]}")
