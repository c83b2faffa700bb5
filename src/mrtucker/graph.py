"""Symmetric k-NN weight graph over a set of equally-shaped tensor samples.

Connectivity uses the mutual-OR rule: i and j are linked when either is among
the other's k nearest neighbors by Frobenius distance. Ties in the neighbor
ranking are broken by lower sample index so construction is deterministic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .tensor import _CHUNK_FLOATS, _stack_norm

STRATEGIES = ("binary", "heat_kernel", "cosine")

# best-performing heat-kernel bandwidth of the {2, 1000, 5000} trials
DEFAULT_DELTA = 5000.0


@dataclass
class WeightGraph:
    w: np.ndarray          # (M, M) symmetric, nonnegative, zero diagonal
    k: int
    strategy: str
    delta: float | None = None

    @property
    def m(self) -> int:
        return self.w.shape[0]

    def row_sums(self) -> np.ndarray:
        """s_i = sum_{j != i} w_ij (diagonal is zero by construction)."""
        return self.w.sum(axis=1)


def zero_graph(m: int) -> WeightGraph:
    """The empty graph (no manifold coupling)."""
    return WeightGraph(w=np.zeros((m, m)), k=0, strategy="none")


def build_graph(samples: np.ndarray, k: int, strategy: str = "binary",
                delta: float = DEFAULT_DELTA) -> WeightGraph:
    """Build the weight graph over samples (sample axis first).

    strategy is one of 'binary', 'heat_kernel', 'cosine'; delta is the
    heat-kernel bandwidth exp(-d^2/delta). Non-finite or overflowing samples are
    rejected, naming them.
    """
    samples = np.asarray(samples, dtype=np.float64)
    _stack_norm(samples)
    m = samples.shape[0]
    if m < 2:
        raise ValueError("need at least two samples to build a graph")
    if not 1 <= k <= m - 1:
        raise ValueError(f"k={k} out of range [1, {m - 1}]")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown weight strategy {strategy!r}")
    if strategy == "heat_kernel" and not delta > 0:
        raise ValueError("heat kernel bandwidth delta must be positive")

    flat = samples.reshape(m, -1)
    sq = np.einsum("ij,ij->i", flat, flat)
    d2 = flat @ flat.T
    d2 *= -2.0
    with np.errstate(over="ignore"):     # a finite ||X|| can still give inf distances
        d2 += np.add.outer(sq, sq)       # the bits of (sq_i + sq_j) - 2 <x_i, x_j>
    np.maximum(d2, 0.0, out=d2)
    # mirror the upper triangle so distances are exactly symmetric
    np.copyto(d2, d2.T, where=np.tri(m, k=-1, dtype=bool))

    # k nearest neighbors of each sample, self excluded, ties by lower index
    np.fill_diagonal(d2, np.inf)
    connected = _knn_mask(d2, k)
    np.fill_diagonal(d2, 0.0)
    connected |= connected.T

    if strategy == "binary":
        w = connected.astype(np.float64)
    elif strategy == "heat_kernel":
        w = np.exp(np.divide(d2, -delta, out=d2), out=d2)     # exp(-d2 / delta)
    else:
        del d2                           # not read by cosine weights: frees M x M doubles
        # exact power-of-two row scaling: tiny entries' squares do not underflow
        flat = np.ldexp(flat, -np.frexp(np.abs(flat).max(axis=1))[1][:, None])
        norms = np.linalg.norm(flat, axis=1)
        if not norms.all():
            raise ValueError("cosine weights undefined for a zero-norm sample")
        w = flat @ flat.T
        w /= np.outer(norms, norms)
        # exact symmetry; the sum with 0.0 also turns a -0.0 Gram entry into 0.0
        w = np.triu(w, 1)
        w += w.T
        np.clip(w, 0.0, 1.0, out=w)                         # drop negative similarities
    w *= connected                       # w is finite: zero off the k-NN pattern, no mask copy
    np.fill_diagonal(w, 0.0)
    return WeightGraph(w=w, k=k, strategy=strategy,
                       delta=delta if strategy == "heat_kernel" else None)


def _knn_mask(d2: np.ndarray, k: int) -> np.ndarray:
    """Each row's k smallest entries of d2 as a boolean mask, ties at the k-th
    smallest value taken in index order: the first k of a stable argsort. Rows
    are partitioned in blocks of M/8 rows, kept between ~128 KB (or all of d2)
    and ~1 MB: a block's copy stays small beside a large d2, and a small d2 is
    one block."""
    m = d2.shape[0]
    step = max(min(m, _CHUNK_FLOATS // (8 * m)), min(m // 8, _CHUNK_FLOATS // m), 1)
    mask = np.empty(d2.shape, dtype=bool)
    for r in range(0, m, step):
        block, out = d2[r:r + step], mask[r:r + step]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1:k]
        np.less_equal(block, kth, out=out)
        over = np.flatnonzero(np.count_nonzero(out, axis=1) > k)   # more ties than places
        if over.size:
            ties = block[over] == kth[over]
            spare = k - np.count_nonzero(block[over] < kth[over], axis=1)
            out[over] &= ~ties | (np.cumsum(ties, axis=1) <= spare[:, None])
    return mask


def _adjacency(w: np.ndarray):
    """Nonzero pattern of w: per-row (neighbour indices, weights), and the
    i < j edges as arrays (i, j, w_ij) in row-major order."""
    rows, cols = np.nonzero(w)
    vals = w[rows, cols]
    cuts = np.searchsorted(rows, np.arange(1, w.shape[0]))
    upper = rows < cols
    return (list(zip(np.split(cols, cuts), np.split(vals, cuts))),
            (rows[upper], cols[upper], vals[upper]))


def save_edge_list(g: WeightGraph, path) -> None:
    """Write nonzero edges as CSV rows i,j,w_ij with i < j."""
    i, j, w = _adjacency(g.w)[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "w"])
        writer.writerows(zip(i.tolist(), j.tolist(), map(repr, w.tolist())))
