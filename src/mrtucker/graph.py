"""Symmetric k-NN weight graph over a set of equally-shaped tensor samples.

Connectivity uses the mutual-OR rule: i and j are linked when either is among
the other's k nearest neighbors by Frobenius distance. Ties in the neighbor
ranking are broken by lower sample index so construction is deterministic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .tensor import _stack_norm

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


def _pairwise_sq_distances(flat: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", flat, flat)
    gram = flat @ flat.T
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.fill_diagonal(d2, 0.0)
    d2 = np.maximum(d2, 0.0)
    # mirror the upper triangle so distances are exactly symmetric
    return np.triu(d2, 1) + np.triu(d2, 1).T


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
    d2 = _pairwise_sq_distances(flat)

    # k nearest neighbors of each sample, self excluded, ties by lower index
    ranking = d2.copy()
    np.fill_diagonal(ranking, np.inf)
    order = np.argsort(ranking, axis=1, kind="stable")
    mask = np.zeros((m, m), dtype=bool)
    rows = np.repeat(np.arange(m), k)
    mask[rows, order[:, :k].ravel()] = True
    connected = mask | mask.T

    if strategy == "binary":
        sim = np.ones((m, m))
    elif strategy == "heat_kernel":
        sim = np.exp(-d2 / delta)
    else:
        norms = np.linalg.norm(flat, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("cosine weights undefined for a zero-norm sample")
        gram = flat @ flat.T
        sim = gram / np.outer(norms, norms)
        sim = np.triu(sim, 1) + np.triu(sim, 1).T       # exact symmetry
        sim = np.clip(sim, 0.0, 1.0)                    # drop negative similarities

    w = np.where(connected, sim, 0.0)
    np.fill_diagonal(w, 0.0)
    return WeightGraph(w=w, k=k, strategy=strategy,
                       delta=delta if strategy == "heat_kernel" else None)


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
