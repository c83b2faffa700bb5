"""The generator and the evaluation metrics as per-sample Python loops: one
cluster mean and one sample core per iteration, one test core classified at a
time, one point's nearest neighbours ranked at a time. The package draws,
classifies and ranks whole arrays; it must match these bit for bit."""

import numpy as np

from mrtucker.linalg import qf
from mrtucker.solver import FactorSet, reconstruct
from mrtucker.synth import SynthTruth


def generate_loops(spec):
    """generate, with each cluster's mean and each sample's jitter drawn in turn."""
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


def nearest_centroid_loops(cores, labels) -> float:
    """nearest_centroid with the centroids gathered from index lists and each
    test core's distances to them formed on their own."""
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


def knn_sets_loops(points, k: int) -> list[set[int]]:
    """Each point's k nearest others, ties by lower index, one point at a time: its
    squared distances to all points by direct differences, then a stable argsort."""
    flat = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    out = []
    for i, row in enumerate(flat):
        d2 = np.einsum("jp,jp->j", diff := flat - row, diff)
        d2[i] = np.inf
        out.append(set(np.argsort(d2, kind="stable")[:k].tolist()))
    return out


def neighbor_preservation_loops(raw, cores, k: int) -> float:
    """neighbor_preservation from the per-point sets: each sample's share of its k raw-space
    neighbours that are among its k core-space ones, averaged."""
    pairs = zip(knn_sets_loops(raw, k), knn_sets_loops(cores, k))
    return float(np.mean([len(a & b) / k for a, b in pairs]))
