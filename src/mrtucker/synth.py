"""Synthetic data generation and the evaluation metrics used by the acceptance
tests and the CLI eval command."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import qf
from .solver import FactorSet, _check_shapes, _fit, reconstruct
from .tensor import L0_TOL


@dataclass
class SynthSpec:
    m: int = 24
    shape: tuple[int, int, int] = (16, 16, 6)
    ranks: tuple[int, int, int] = (5, 5, 6)
    sparsity: float = 0.5             # fraction of zero core entries
    n_clusters: int = 3
    separation: float = 5.0           # between-cluster scale vs unit within-cluster jitter
    noise: float = 0.01               # stddev of dense Gaussian noise on X
    seed: int = 0

    def __post_init__(self):
        if any(r > e for r, e in zip(self.ranks, self.shape)):
            raise ValueError(f"ranks {self.ranks} exceed shape {self.shape}")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in [0, 1]")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if not 1 <= self.n_clusters <= self.m:
            raise ValueError("cluster count must lie in [1, m]")


@dataclass
class SynthTruth:
    factors: FactorSet
    cores: np.ndarray
    labels: np.ndarray


def generate(spec: SynthSpec) -> tuple[np.ndarray, SynthTruth]:
    """Draw samples X^(i) = G^(i) x_1 U1 x_2 U2 x_3 U3 + noise.

    Cores are sparse with a cluster-dependent support, so same-cluster samples
    stay mutually close in Frobenius distance. Deterministic under the seed.
    """
    rng = np.random.default_rng(spec.seed)
    factors = FactorSet(*[
        qf(rng.standard_normal((i, r))) for i, r in zip(spec.shape, spec.ranks)
    ])
    p = int(np.prod(spec.ranks))
    nnz = max(1, int(round((1.0 - spec.sparsity) * p)))
    labels = np.arange(spec.m) % spec.n_clusters

    supports = []
    means = []
    for _ in range(spec.n_clusters):
        support = rng.choice(p, size=nnz, replace=False)
        mean = np.zeros(p)
        signs = rng.choice([-1.0, 1.0], size=nnz)
        mean[support] = spec.separation * signs * rng.uniform(0.5, 1.5, size=nnz)
        supports.append(support)
        means.append(mean)

    cores = np.zeros((spec.m, p))
    for i in range(spec.m):
        c = labels[i]
        jitter = np.zeros(p)
        jitter[supports[c]] = rng.standard_normal(nnz)
        cores[i] = means[c] + jitter
    cores = cores.reshape((spec.m,) + tuple(spec.ranks))

    samples = reconstruct(cores, factors)
    if spec.noise > 0:
        samples = samples + spec.noise * rng.standard_normal(samples.shape)
    return samples, SynthTruth(factors=factors, cores=cores, labels=labels)


def _knn_sets(points: np.ndarray, k: int) -> list[set[int]]:
    """Each point's k nearest others, ties by lower index. Distances come from
    direct differences, one row at a time: the Gram form |a|^2 + |b|^2 - 2<a,b>
    ranks near-identical points (as cores pulled to a consensus) by rounding noise."""
    flat = points.reshape(points.shape[0], -1)
    out = []
    for i, row in enumerate(flat):
        d2 = np.einsum("jp,jp->j", diff := flat - row, diff)
        d2[i] = np.inf
        out.append(set(np.argsort(d2, kind="stable")[:k].tolist()))
    return out


def neighbor_preservation(raw: np.ndarray, cores: np.ndarray, k: int) -> float:
    """Mean fraction of each sample's k nearest raw-space neighbors retained
    among its k nearest core-space neighbors (ties by index)."""
    raw = np.asarray(raw, dtype=np.float64)
    cores = np.asarray(cores, dtype=np.float64)
    m = raw.shape[0]
    if not 1 <= k < m:
        raise ValueError(f"k={k} out of range [1, {m - 1}]")
    raw_nn = _knn_sets(raw, k)
    core_nn = _knn_sets(cores, k)
    return float(np.mean([len(raw_nn[i] & core_nn[i]) / k for i in range(m)]))


def nearest_centroid(cores: np.ndarray, labels) -> float:
    """Stratified 50/50 split; classify test cores by nearest class centroid
    of the train cores (flattened)."""
    cores = np.asarray(cores, dtype=np.float64)
    labels = np.asarray(labels)
    flat = cores.reshape(cores.shape[0], -1)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(0)
    train_idx, test_idx = [], []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        if idx.size < 2:
            raise ValueError(f"class {c!r} has fewer than two samples")
        idx = rng.permutation(idx)
        half = idx.size // 2
        train_idx.extend(idx[:half].tolist())
        test_idx.extend(idx[half:].tolist())
    centroids = np.stack([
        flat[[i for i in train_idx if labels[i] == c]].mean(axis=0) for c in classes
    ])
    correct = 0
    for i in test_idx:
        d = np.linalg.norm(centroids - flat[i], axis=1)
        if classes[int(np.argmin(d))] == labels[i]:
            correct += 1
    return correct / len(test_idx)


@dataclass
class EvalReport:
    reconstruction_re: float
    core_sparsity: float
    neighbor_preservation: float
    nearest_centroid_accuracy: float | None
    timing_ms: dict = field(default_factory=dict)


def evaluate(samples, cores, factors: FactorSet, labels=None, k: int = 4,
             wall_ms=None) -> EvalReport:
    samples, cores = _check_shapes(samples, cores, factors)
    denom = max(np.linalg.norm(samples.ravel()), np.finfo(float).tiny)
    re = float(np.sqrt(2.0 * _fit(samples, cores, factors)) / denom)
    accuracy = None
    if labels is not None:
        accuracy = nearest_centroid(cores, labels)
    timing = {}
    if wall_ms is not None and len(wall_ms) > 0:
        wall = np.asarray(wall_ms, dtype=np.float64)
        timing = {
            "iterations": int(wall.size),
            "median_ms": float(np.median(wall)),
            "mean_ms": float(wall.mean()),
            "total_ms": float(wall.sum()),
        }
    return EvalReport(
        reconstruction_re=re,
        core_sparsity=float(np.mean(np.abs(cores) <= L0_TOL)),
        neighbor_preservation=neighbor_preservation(samples, cores, min(k, samples.shape[0] - 1)),
        nearest_centroid_accuracy=accuracy,
        timing_ms=timing,
    )
