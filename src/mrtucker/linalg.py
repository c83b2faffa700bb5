"""Thin SVD, the qf (polar-orthogonal) operator, and symmetric eigendecomposition.

Backed by LAPACK via numpy, with a deterministic sign convention layered on
top: the largest-magnitude entry of each left singular vector (or eigenvector)
is made positive, so repeated runs and degenerate inputs give reproducible
factors.
"""

from __future__ import annotations

import numpy as np


def _check_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in matrix")
    return a


def _fix_signs(u: np.ndarray, v: np.ndarray | None = None):
    """Flip column signs so the largest-magnitude entry of each u column is positive."""
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u = u * signs
    if v is not None:
        v = v * signs
    return u, v


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, v), a = u diag(s) v^T with s descending, of a matrix with rows >= cols."""
    a = _check_finite(a)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError(f"expected a tall matrix, got shape {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    u, v = _fix_signs(u, vt.T)
    return u, s, v


def qf(a: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor Y V^T of the thin SVD; maximizes <U, a> over St(I, R)."""
    u, _, v = thin_svd(a)
    return u @ v.T


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values descending, matching orthonormal vectors as columns) of a symmetric matrix."""
    a = _check_finite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asym = np.linalg.norm(a - a.T)
    if asym > 1e-8 * max(1.0, np.linalg.norm(a)):
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    vecs, _ = _fix_signs(vecs[:, ::-1])
    return vals[::-1], vecs
