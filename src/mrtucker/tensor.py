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
import weakref

import numpy as np

# |x| <= L0_TOL counts as zero; soft-thresholding produces exact zeros, this
# only guards against downstream arithmetic noise.
L0_TOL = 1e-12

# float64 entries per chunk of a chunked pass over a large array (~1 MB)
_CHUNK_FLOATS = 2 ** 17

# id -> {"norm": ||X||_F once checked, mode: raw mode Gram} for each live stack that
# _frozen returned; an id is unique among live objects, and the entry goes with its stack
_LOADED: dict[int, dict] = {}


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding (0-based mode)."""
    t = np.asarray(t, dtype=np.float64)
    _check_mode(t, mode)
    rest = math.prod(t.shape[:mode] + t.shape[mode + 1:])     # no -1: size-0 tensors work
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], rest), order="F")


def mode_product(t: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n product t x_n u; u has shape (J, I_n). A matmul over t's C-order
    view as (lead, I_n, trail), or one GEMM on (lead, I_n) for the last mode, so
    a C-contiguous t is never copied; explicit extents keep size-0 tensors working."""
    t = np.asarray(t, dtype=np.float64)
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
    out = np.asarray(t, dtype=np.float64)
    for u, mode in zip(mats, modes):
        out = mode_product(out, u.T if transpose else u, mode)
    return out


def _chunks(rows: int, width: int, floats: int = _CHUNK_FLOATS):
    """Slices over `rows` rows of `width` doubles each, `floats` (~1 MB) at a time."""
    step = max(1, floats // max(1, width))
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


def _mode_gram(a: np.ndarray, mode: int, b: np.ndarray | None = None) -> np.ndarray:
    """unfold(a, mode) @ unfold(b, mode).T for a mode >= 1 of two float64 sample stacks
    (sample axis 0) that agree off that mode: sum_i A^(i)_(n) B^(i)_(n)^T. b defaults to
    a, the raw mode Gram, formed once per registered stack and then shared read-only."""
    if b is None:
        return _once(a, mode, lambda: _gram(a, mode, a))
    return _gram(a, mode, b)


def _gram(a: np.ndarray, mode: int, b: np.ndarray) -> np.ndarray:
    """_mode_gram's product, with no stack-sized copy of C-contiguous stacks: ~1 MB slabs
    of samples added up, per-sample products batched for mode 1 and the slab's axis swapped
    with the last for the rest, a view for the last mode (both stacks take the same row
    order, so the product does not change); the Gram (b is a) reuses the swapped slab."""
    if not 1 <= mode < a.ndim:
        raise ValueError(f"mode {mode} is not a sample mode of an order-{a.ndim} stack")
    off = a.shape[:mode] + a.shape[mode + 1:]
    if b.ndim != a.ndim or b.shape[:mode] + b.shape[mode + 1:] != off:
        raise ValueError(f"stacks of shapes {a.shape} and {b.shape} differ off mode {mode}")
    i_n, j_n = a.shape[mode], b.shape[mode]
    rest = math.prod(off[1:])     # per sample
    out = np.zeros((i_n, j_n))
    # per sample, a slab holds I_n * rest entries and its batch of products I_n * J_n
    width = max(i_n, j_n)
    for s in _chunks(a.shape[0], width * max(width, rest)):
        sa, sb = a[s], b[s]
        if mode == 1:
            ya = sa.reshape(sa.shape[0], i_n, rest)
            yb = ya if b is a else sb.reshape(sb.shape[0], j_n, rest)
            out += (ya @ yb.transpose(0, 2, 1)).sum(axis=0)
        else:
            ya = sa.swapaxes(mode, -1).reshape(sa.shape[0] * rest, i_n)
            yb = ya if b is a else sb.swapaxes(mode, -1).reshape(sb.shape[0] * rest, j_n)
            out += ya.T @ yb
        del ya, yb     # a slab's views and copies go before the next slab's are made
    return out


def _sample_stack(samples) -> tuple[np.ndarray, float]:
    """(samples as a float64 stack, ||X||_F), or a ValueError: for an empty stack or one not
    of order-3 samples, or naming the samples when ||X||_F is not finite (NaN or inf entries,
    or ||X||^2 beyond float64): a finite ||X||^2 keeps every Gram entry finite (Cauchy-Schwarz).
    A registered stack's norm is formed once it first passes, then shared."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 4 or samples.shape[0] < 1:
        raise ValueError("expected a nonempty stack of order-3 samples")
    return samples, _once(samples, "norm", lambda: _stack_norm(samples))


def _stack_norm(samples: np.ndarray) -> float:
    """||X||_F of a float64 stack, checked by _check_finite: one pass over the stack."""
    with np.errstate(over="ignore", invalid="ignore"):     # reported as a ValueError instead
        return _check_finite(float(np.linalg.norm(samples.ravel())),
                             (np.vdot(x, x) for x in samples))


def _check_finite(norm: float, sq) -> float:
    """norm, unless it is not finite: then the ValueError naming the non-finite sq entries."""
    if not np.isfinite(norm):
        bad = [i for i, s in enumerate(sq) if not np.isfinite(s)]
        raise ValueError(f"samples are not finite or overflow float64 (||X||_F = "
                         f"{norm}); non-finite ||X^(i)||^2 at samples {bad[:10]}")
    return norm
