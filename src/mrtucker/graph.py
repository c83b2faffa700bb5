"""Symmetric k-NN weight graph over a set of equally-shaped tensor samples.

Connectivity uses the mutual-OR rule: i and j are linked when either is among
the other's k nearest neighbors by Frobenius distance. Ties in the neighbor
ranking are broken by lower sample index so construction is deterministic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .tensor import _CACHE_FLOATS, _chunks, _integer, _real, _reals, _sample_stack

STRATEGIES = ("binary", "heat_kernel", "cosine")

# best-performing heat-kernel bandwidth of the {2, 1000, 5000} trials
DEFAULT_DELTA = 5000.0


@dataclass
class WeightGraph:
    """The symmetric, nonnegative weight matrix W by its nonzeros, row-major:
    w_ij = vals[e] at (i, j) = (rows[e], cols[e]); no diagonal entry, no stored zero.
    Construction checks all of that, the symmetry by one sort of the transposed keys."""
    m: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    k: int
    strategy: str
    delta: float | None = None

    def __post_init__(self):
        if not _integer(self.m) or self.m < 0:
            raise ValueError(f"m must be a non-negative integer, got {self.m!r}")
        for name in ("rows", "cols", "vals"):
            a, index = np.asarray(getattr(self, name)), name != "vals"
            if a.ndim != 1 or not (np.issubdtype(a.dtype, np.integer) if index else _reals(a)):
                what = "integer array" if index else "array of real numbers"
                raise ValueError(f"{name} must be a 1-D {what}, got {a.dtype} {a.shape}")
            # intp indices: a narrow or unsigned row-major key below could wrap around
            setattr(self, name, a.astype(np.intp if index else np.float64, copy=False))
        rows, cols, vals = self.rows, self.cols, self.vals
        if not len(rows) == len(cols) == len(vals):
            raise ValueError(f"edge arrays differ in length: {len(rows)}, {len(cols)}, {len(vals)}")
        if not np.all((0 <= rows) & (rows < self.m) & (0 <= cols) & (cols < self.m)):
            raise ValueError(f"edge index outside [0, {self.m})")
        if np.any(np.diff(rows * self.m + cols) <= 0):     # the sweep reads rows as sorted runs
            raise ValueError("edges not in strictly increasing row-major (row, col) order")
        if np.any(rows == cols):
            raise ValueError("diagonal entry in the edge list")
        if not np.all((vals > 0) & (vals < np.inf)):
            raise ValueError("edge weights must be finite and positive")
        t = np.argsort(cols * self.m + rows)      # W^T's entries in row-major order
        if not (np.array_equal(cols[t], rows) and np.array_equal(rows[t], cols)
                and np.array_equal(vals[t], vals)):
            raise ValueError("edge list not symmetric: some w_ji differs from w_ij or is missing")

    @property
    def w(self) -> np.ndarray:
        """W as a dense (M, M) array, formed anew on each access."""
        w = np.zeros((self.m, self.m))
        w[self.rows, self.cols] = self.vals
        return w

    def row_sums(self) -> np.ndarray:
        """s_i = sum_{j != i} w_ij, summed over row i's nonzeros."""
        return np.bincount(self.rows, self.vals, minlength=self.m)

    def edges(self):
        """The i < j edges as arrays (i, j, w_ij), in row-major order."""
        upper = self.rows < self.cols
        return self.rows[upper], self.cols[upper], self.vals[upper]


def zero_graph(m: int) -> WeightGraph:
    """The empty graph (no manifold coupling)."""
    none = np.empty(0, dtype=np.intp)
    return WeightGraph(m=m, rows=none, cols=none, vals=np.empty(0), k=0, strategy="none")


def build_graph(samples: np.ndarray, k: int, strategy: str = "binary",
                delta: float = DEFAULT_DELTA) -> WeightGraph:
    """Build the weight graph over samples (sample axis first).

    strategy is one of 'binary', 'heat_kernel', 'cosine'; delta is the
    heat-kernel bandwidth exp(-d^2/delta). The samples pass tensor._sample_stack's check,
    as in select_ranks and solve: a loaded stack's checked norm is formed once.
    """
    samples, _ = _sample_stack(samples)
    m = samples.shape[0]
    if m < 2:
        raise ValueError("need at least two samples to build a graph")
    if not _integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= m - 1:
        raise ValueError(f"k={k} out of range [1, {m - 1}]")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown weight strategy {strategy!r}")
    if strategy == "heat_kernel" and not (_real(delta) and delta > 0):
        raise ValueError(f"heat kernel bandwidth delta must be a positive number, got {delta!r}")

    flat = samples.reshape(m, -1)
    sq = np.einsum("ij,ij->i", flat, flat)
    # numpy forms X X^T exactly symmetric, so whole rows give d2_ij and d2_ji the same bits
    d2 = flat @ flat.T
    d2 *= -2.0
    connected = np.empty((m, m), dtype=bool)
    for s in _chunks(m, m, _CACHE_FLOATS):     # one pass per block, while in cache
        block = d2[s]
        with np.errstate(over="ignore"):     # a finite ||X|| can still give inf distances
            block += sq[s, None] + sq
        np.maximum(block, 0.0, out=block)
        np.fill_diagonal(block[:, s.start:], np.inf)
        _knn_rows(block, k, connected[s])
    del block                            # a view: it would keep d2 alive past the cosine del
    connected |= connected.T
    np.fill_diagonal(connected, False)   # an all-inf row can tie with itself
    rows, cols = divmod(np.flatnonzero(connected), m)
    del connected
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)   # W read from the upper triangle

    if strategy == "binary":
        vals = np.ones(rows.size)
    elif strategy == "heat_kernel":
        vals = np.exp(d2[lo, hi] / -delta)
    else:
        del d2                           # not read by cosine weights: frees M x M doubles
        # exact power-of-two row scaling: tiny entries' squares do not underflow
        flat = np.ldexp(flat, -np.frexp(np.abs(flat).max(axis=1))[1][:, None])
        norms = np.linalg.norm(flat, axis=1)
        if not norms.all():
            raise ValueError("cosine weights undefined for a zero-norm sample")
        vals = (flat @ flat.T)[lo, hi] / (norms[lo] * norms[hi])
        np.clip(vals, 0.0, 1.0, out=vals)                   # drop negative similarities
    keep = vals > 0.0                    # heat underflow, clipped cosines
    return WeightGraph(m=m, rows=rows[keep], cols=cols[keep], vals=vals[keep], k=k,
                       strategy=strategy, delta=delta if strategy == "heat_kernel" else None)


def _knn_rows(block: np.ndarray, k: int, out: np.ndarray) -> None:
    """Each row's k smallest entries of block as a boolean mask in out, ties at the k-th
    smallest value taken in index order (a stable argsort's first k)."""
    kth = np.partition(block, k - 1, axis=1)[:, k - 1:k]
    np.less_equal(block, kth, out=out)
    over = np.flatnonzero(np.count_nonzero(out, axis=1) > k)   # more ties than places
    if over.size:
        ties = block[over] == kth[over]
        spare = k - np.count_nonzero(block[over] < kth[over], axis=1)
        out[over] &= ~ties | (np.cumsum(ties, axis=1) <= spare[:, None])


def save_edge_list(g: WeightGraph, path) -> None:
    """Write nonzero edges as CSV rows i,j,w_ij with i < j."""
    i, j, w = g.edges()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "w"])
        writer.writerows(zip(i.tolist(), j.tolist(), map(repr, w.tolist())))
