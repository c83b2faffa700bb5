"""Thin SVD, the qf (polar-orthogonal) operator, and symmetric eigendecomposition.

Backed by LAPACK via numpy. thin_svd and sym_eig layer a deterministic sign
convention on top: the largest-magnitude entry of each left singular vector (or
eigenvector) is made positive, so repeated runs and degenerate inputs give
reproducible factors. qf needs none: its product does not depend on the signs.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import _float64


def _checked(a: np.ndarray, shape: str) -> np.ndarray:
    """a as a finite float64 matrix of the given shape, "tall" (rows >= cols) or "square"."""
    a = _float64(a, "matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in matrix")
    if a.ndim != 2 or a.shape[0] < a.shape[1] or (shape == "square" and a.shape[0] > a.shape[1]):
        raise ValueError(f"expected a {shape} matrix, got shape {a.shape}")
    return a


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a finite array, taken at the power-of-two scale of its largest entry:
    np.linalg.norm(a)'s bits at ordinary scales, and no overflow while the norm fits float64."""
    e = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(a, -e)), e))


def _signs(u: np.ndarray) -> np.ndarray:
    """Column signs that make the largest-magnitude entry of each u column positive."""
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, v), a = u diag(s) v^T with s descending, of a matrix with rows >= cols."""
    u, s, vt = np.linalg.svd(_checked(a, "tall"), full_matrices=False)
    signs = _signs(u)
    return u * signs, s, vt.T * signs


def qf(a: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor Y V^T of the thin SVD; maximizes <U, a> over St(I, R).
    Y V^T is bitwise the same whatever the column signs, so none are fixed."""
    u, _, vt = np.linalg.svd(_checked(a, "tall"), full_matrices=False)
    return u @ vt


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values descending, matching orthonormal vectors as columns) of a symmetric matrix."""
    a = _checked(a, "square")
    if _norm(a - a.T) > 1e-8 * max(1.0, _norm(a)):
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    vecs = vecs[:, ::-1]
    return vals[::-1], vecs * _signs(vecs)
