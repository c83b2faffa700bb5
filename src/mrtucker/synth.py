"""Synthetic data generation and the evaluation metrics used by the acceptance
tests and the CLI eval command."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import qf
from .solver import FactorSet, _check_shapes, _fit, reconstruct
from .tensor import L0_TOL, _integer, _real, _reals, _sample_stack


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
        for name in ("shape", "ranks"):         # a JSON spec gives them as lists
            if not (isinstance(v := getattr(self, name), (tuple, list)) and len(v) == 3 and all(
                    _integer(e) and e > 0 for e in v)):
                raise ValueError(f"{name} must be three positive ints, got {v!r}")
            setattr(self, name, tuple(v))
        for name in ("m", "n_clusters", "seed"):
            if not _integer(v := getattr(self, name)):
                raise ValueError(f"{name} must be an int, got {v!r}")
        for name in ("sparsity", "separation", "noise"):
            if not (_real(v := getattr(self, name)) and -math.inf < v < math.inf):
                raise ValueError(f"{name} must be a finite real number, got {v!r}")
        if any(r > e for r, e in zip(self.ranks, self.shape)):
            raise ValueError(f"ranks {self.ranks} exceed shape {self.shape}")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in [0, 1]")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if not 1 <= self.n_clusters <= self.m:
            raise ValueError("cluster count must lie in [1, m]")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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

    supports = np.empty((spec.n_clusters, nnz), dtype=np.intp)
    means = np.zeros((spec.n_clusters, p))
    for c in range(spec.n_clusters):
        supports[c] = rng.choice(p, size=nnz, replace=False)
        signs = rng.choice([-1.0, 1.0], size=nnz)
        means[c, supports[c]] = spec.separation * signs * rng.uniform(0.5, 1.5, size=nnz)
    # unit jitter on each sample's cluster support, drawn sample after sample
    cores = means[labels]
    cores[np.arange(spec.m)[:, None], supports[labels]] += rng.standard_normal((spec.m, nnz))
    cores = cores.reshape((spec.m,) + spec.ranks)

    samples = reconstruct(cores, factors)
    if spec.noise > 0:
        samples = samples + spec.noise * rng.standard_normal(samples.shape)
    return samples, SynthTruth(factors=factors, cores=cores, labels=labels)


def _knn_sets(points, k: int) -> list[set[int]]:
    """Each point's k nearest others, ties by lower index. Distances come from
    direct differences, one row at a time: the Gram form |a|^2 + |b|^2 - 2<a,b>
    ranks near-identical points (as cores pulled to a consensus) by rounding noise."""
    flat = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    out = []
    for i, row in enumerate(flat):
        d2 = np.einsum("jp,jp->j", diff := flat - row, diff)
        d2[i] = np.inf
        out.append(set(np.argsort(d2, kind="stable")[:k].tolist()))
    return out


def _finite_cores(cores) -> np.ndarray:
    """cores as a float64 stack (sample axis 0), or a ValueError: for cores that are not a
    nonempty stack of real numbers, or naming the samples whose cores hold a NaN or inf."""
    cores = np.asarray(cores)
    if not _reals(cores) or cores.ndim < 1 or 0 in cores.shape:
        raise ValueError(f"expected a nonempty stack of cores of real numbers, got {cores.dtype} "
                         f"of shape {cores.shape}")
    bad = np.flatnonzero(~np.isfinite(cores.reshape(len(cores), -1)).all(axis=1))
    if bad.size:
        raise ValueError(f"cores are not finite at samples {bad[:10].tolist()}")
    return cores.astype(np.float64, copy=False)


def neighbor_preservation(raw: np.ndarray, cores: np.ndarray, k: int) -> float:
    """Mean fraction of each sample's k nearest raw-space neighbors retained
    among its k nearest core-space neighbors (ties by index). raw passes
    tensor._sample_stack's check; the cores must match its count and be finite."""
    raw, _ = _sample_stack(raw)
    cores = _finite_cores(cores)
    if len(cores) != len(raw):
        raise ValueError(f"sample and core counts differ: {len(raw)} samples, {len(cores)} cores")
    if not _integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k < len(raw):
        raise ValueError(f"k={k} out of range [1, {len(raw) - 1}]")
    pairs = zip(_knn_sets(raw, k), _knn_sets(cores, k))
    return float(np.mean([len(a & b) / k for a, b in pairs]))


def nearest_centroid(cores: np.ndarray, labels) -> float:
    """Stratified 50/50 split; classify test cores by nearest class centroid
    of the train cores (flattened), which must be finite."""
    flat = _finite_cores(cores).reshape(len(cores), -1)
    labels = np.asarray(labels)
    if labels.shape != (len(flat),):
        raise ValueError(f"{labels.size} labels for {len(flat)} cores")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(0)
    centroids, test = [], []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        if idx.size < 2:
            raise ValueError(f"class {c!r} has fewer than two samples")
        idx = rng.permutation(idx)
        centroids.append(flat[idx[:idx.size // 2]].mean(axis=0))
        test.append(idx[idx.size // 2:])
    test = np.concatenate(test)
    x = flat[test]
    dist = np.stack([np.linalg.norm(mu - x, axis=1) for mu in centroids])
    return int(np.count_nonzero(classes[dist.argmin(axis=0)] == labels[test])) / test.size


@dataclass
class EvalReport:
    reconstruction_re: float
    core_sparsity: float
    neighbor_preservation: float
    nearest_centroid_accuracy: float | None


def evaluate(samples, cores, factors: FactorSet, labels=None, k: int = 4) -> EvalReport:
    samples, norm_x = _sample_stack(samples)        # names non-finite samples
    cores, _ = _check_shapes(samples, cores, factors)
    denom = max(norm_x, np.finfo(float).tiny)
    accuracy = None if labels is None else nearest_centroid(cores, labels)  # before the k-NN
    with np.errstate(over="ignore"):    # samples too small to square: ||X||_F reads 0, RE inf
        fit_re = float(np.sqrt(2.0 * _fit(samples, cores, factors)) / denom)
    return EvalReport(
        reconstruction_re=fit_re,
        core_sparsity=float(np.mean(np.abs(cores) <= L0_TOL)),
        neighbor_preservation=neighbor_preservation(samples, cores, min(k, samples.shape[0] - 1)),
        nearest_centroid_accuracy=accuracy,
    )
