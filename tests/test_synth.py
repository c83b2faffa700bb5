"""Synthetic generator, the independent HOOI oracle, and the evaluation
metrics (neighbor preservation, nearest-centroid accuracy)."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mrtucker import (
    SolverConfig,
    SynthSpec,
    evaluate,
    generate,
    nearest_centroid,
    neighbor_preservation,
    solve,
)
from mrtucker.solver import reconstruct
from mrtucker.tensor import unfold

from hooi import hooi_oracle
from synth_loops import generate_loops, nearest_centroid_loops


def test_generate_noiseless_multilinear_rank_bound():
    spec = SynthSpec(m=6, shape=(8, 7, 6), ranks=(3, 2, 4), noise=0.0, sparsity=0.0,
                     n_clusters=2)
    x, _ = generate(spec)
    for i in range(spec.m):
        for mode, r in enumerate(spec.ranks):
            m = unfold(x[i], mode)
            eig = np.linalg.eigvalsh(m @ m.T)
            assert np.sum(eig > 1e-10) <= r


def test_generate_m1_exact_reproduction():
    spec = SynthSpec(m=1, shape=(3, 2, 4), ranks=(3, 2, 4), noise=0.0, n_clusters=1)
    x, truth = generate(spec)
    assert_allclose(x, reconstruct(truth.cores, truth.factors), rtol=0, atol=0)


def test_generate_cluster_separation():
    spec = SynthSpec(m=8, n_clusters=2, separation=50.0, noise=0.0, seed=3)
    x, truth = generate(spec)
    flat = x.reshape(spec.m, -1)
    within, between = [], []
    for i in range(spec.m):
        for j in range(i + 1, spec.m):
            d = np.linalg.norm(flat[i] - flat[j])
            (within if truth.labels[i] == truth.labels[j] else between).append(d)
    assert max(within) < min(between)


def test_generate_deterministic():
    x1, t1 = generate(SynthSpec(seed=5))
    x2, t2 = generate(SynthSpec(seed=5))
    assert np.array_equal(x1, x2)
    assert np.array_equal(t1.cores, t2.cores)
    assert np.array_equal(t1.labels, t2.labels)
    x3, _ = generate(SynthSpec(seed=6))
    assert not np.array_equal(x1, x3)


def test_generate_sparsity_fraction():
    spec = SynthSpec(sparsity=0.75, noise=0.0)
    _, truth = generate(spec)
    frac = np.mean(truth.cores == 0.0)
    assert abs(frac - 0.75) < 0.02


def test_generate_validation():
    with pytest.raises(ValueError):
        SynthSpec(ranks=(20, 5, 5))
    with pytest.raises(ValueError):
        SynthSpec(sparsity=1.5)
    with pytest.raises(ValueError):
        SynthSpec(noise=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(m=4, n_clusters=5)


# the SynthSpec overrides of the benchmark's four workloads (generate draws their
# inputs), then each of the generator's edge settings
GENERATE_SPECS = {
    "desk": {},
    "many_samples": {"m": 1000},
    "large_tensor": {"m": 100, "shape": (48, 48, 8), "ranks": (10, 10, 8)},
    "dense_graph": {"m": 400},
    "dense_cores": {"sparsity": 0.0},
    "one_entry_cores": {"sparsity": 1.0},
    "one_cluster": {"n_clusters": 1},
    "one_sample_clusters": {"n_clusters": 24},
    "noiseless": {"noise": 0.0},
}


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 5, 17])
@pytest.mark.parametrize("name", GENERATE_SPECS)
def test_generate_matches_per_sample_loops(name, seed):
    spec = SynthSpec(**GENERATE_SPECS[name], seed=seed)
    x, truth = generate(spec)
    want_x, want = generate_loops(spec)
    assert _same_bits(x, want_x) and _same_bits(truth.cores, want.cores)
    assert _same_bits(truth.labels, want.labels)
    assert all(_same_bits(u, v) for u, v in zip(truth.factors, want.factors))


def test_hooi_exact_low_rank():
    spec = SynthSpec(m=4, shape=(9, 8, 5), ranks=(3, 3, 2), noise=0.0, n_clusters=2)
    x, _ = generate(spec)
    factors, cores = hooi_oracle(x, spec.ranks)
    re = np.linalg.norm(x - reconstruct(cores, factors)) / np.linalg.norm(x)
    assert re <= 1e-8


def test_hooi_full_ranks_lossless():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 5, 6))
    factors, cores = hooi_oracle(x, (4, 5, 6))
    assert np.linalg.norm(x - reconstruct(cores, factors)) <= 1e-10


def test_hooi_fit_nonincreasing():
    # instrument the oracle's own convergence by ever-tighter iteration caps
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 7, 6, 5))
    fits = []
    for iters in (1, 2, 4, 8, 16):
        _, cores = hooi_oracle(x, (3, 3, 3), max_iter=iters)
        fits.append(0.5 * (np.linalg.norm(x) ** 2 - np.linalg.norm(cores) ** 2))
    assert all(a >= b - 1e-9 for a, b in zip(fits, fits[1:]))


def test_hooi_agrees_with_solver_limit():
    spec = SynthSpec(m=4, shape=(10, 10, 5), ranks=(3, 3, 5), noise=0.1,
                     n_clusters=2, sparsity=0.3, seed=0)
    x, _ = generate(spec)
    res = solve(x, None, spec.ranks, SolverConfig(gamma=1e12, zeta=1e-10, max_iter=300))
    fit_solver = 0.5 * np.linalg.norm(x - reconstruct(res.cores, res.factors)) ** 2
    _, hooi_cores = hooi_oracle(x, spec.ranks)
    fit_hooi = 0.5 * (np.linalg.norm(x) ** 2 - np.linalg.norm(hooi_cores) ** 2)
    assert abs(fit_solver - fit_hooi) <= 1e-6 * max(1.0, abs(fit_hooi))


def test_hooi_rank_validation():
    with pytest.raises(ValueError):
        hooi_oracle(np.zeros((2, 3, 3, 3)), (4, 2, 2))


def neighbor_sets_bruteforce(points, k):
    m = points.shape[0]
    flat = points.reshape(m, -1)
    out = []
    for i in range(m):
        ranked = sorted((np.linalg.norm(flat[i] - flat[j]), j) for j in range(m) if j != i)
        out.append({j for _, j in ranked[:k]})
    return out


def test_neighbor_preservation_identity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 3, 3, 2))
    assert neighbor_preservation(x, x.copy(), 3) == 1.0


def test_neighbor_preservation_identical_cores_bruteforce():
    # all-identical cores: every distance ties at zero, neighbors fall to the
    # lowest indices; compute the expected overlap exhaustively at M=5, k=2
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((5, 2, 2, 2))
    cores = np.ones((5, 2, 2, 2))
    raw_nn = neighbor_sets_bruteforce(raw, 2)
    tied_nn = [{j for j in range(5) if j != i}.intersection(
        [j for j in range(5) if j != i][:2]) for i in range(5)]
    expected = np.mean([len(raw_nn[i] & tied_nn[i]) / 2 for i in range(5)])
    assert_allclose(neighbor_preservation(raw, cores, 2), expected, rtol=1e-12)


def test_neighbor_preservation_near_identical_cores():
    # cores spread 1e-7 apart along a line, far below the Gram form's rounding
    # (~1e-16 ||G||^2 in d^2): their ranking must still follow the line, as
    # the raw samples' does
    rng = np.random.default_rng(9)
    base = rng.standard_normal((5, 5, 6))
    base *= 77.0 / np.linalg.norm(base)
    offset = rng.standard_normal(base.shape)
    offset /= np.linalg.norm(offset)
    j = np.arange(8.0)[:, None, None, None]
    cores = base + 1e-7 * j * offset
    raw = j * np.ones((1, 2, 2, 2))
    assert neighbor_preservation(raw, cores, 2) == 1.0


def test_neighbor_preservation_permuted_low():
    rng = np.random.default_rng(4)
    x, truth = generate(SynthSpec(m=30, n_clusters=5, seed=4))
    permuted = truth.cores[rng.permutation(30)]
    assert neighbor_preservation(x, permuted, 3) < 0.5


def test_neighbor_preservation_isometry():
    # an orthogonal map of the flattened samples preserves all distances
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 2, 2, 2))
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    mapped = (x.reshape(7, -1) @ q.T).reshape(7, 2, 2, 2)
    assert neighbor_preservation(x, mapped, 3) == 1.0


def test_neighbor_preservation_k_validation():
    x = np.zeros((4, 1, 1, 1))
    with pytest.raises(ValueError):
        neighbor_preservation(x, x, 0)
    with pytest.raises(ValueError):
        neighbor_preservation(x, x, 4)


def test_nearest_centroid_one_hot():
    cores = np.zeros((6, 3, 1, 1))
    labels = np.array([0, 0, 1, 1, 2, 2])
    for i, lab in enumerate(labels):
        cores[i, lab, 0, 0] = 1.0
    assert nearest_centroid(cores, labels) == 1.0


def test_nearest_centroid_separated_clusters():
    _, truth = generate(SynthSpec(separation=20.0, seed=1))
    assert nearest_centroid(truth.cores, truth.labels) >= 0.95


def test_nearest_centroid_validation():
    with pytest.raises(ValueError):
        nearest_centroid(np.zeros((4, 2)), np.zeros(4))        # single class
    with pytest.raises(ValueError):
        nearest_centroid(np.zeros((3, 2)), np.array([0, 1, 1]))  # class of one


@pytest.mark.parametrize("count", [12, 30])
def test_evaluate_rejects_labels_of_another_count(count):
    # too few labels scored only the first cores; too many indexed past them
    x, truth = generate(SynthSpec(seed=0))
    labels = np.arange(count) % 3
    with pytest.raises(ValueError, match=f"{count} labels for 24 cores"):
        evaluate(x, truth.cores, truth.factors, labels=labels)


def _outcome(classify, cores, labels):
    try:
        return classify(cores, labels)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_nearest_centroid_matches_per_sample_loop():
    # integer, string and blank labels; equal cores and equal centroids, whose
    # distances tie; rows of P > 128 entries, which numpy sums in pairwise blocks
    rng = np.random.default_rng(11)
    names = np.array(["", "happy", "sad", "surprise"])
    shapes = [(1,), (3, 2, 1), (130,), (5, 6, 5), (16, 16, 6)]
    errors = []
    for trial in range(300):
        m = int(rng.integers(1, 30))
        labels = rng.integers(0, int(rng.integers(1, 5)), size=m)
        labels = [labels, names[labels], names[labels].tolist()][trial % 3]
        shape = (m,) + shapes[trial % len(shapes)]
        if trial % 2:
            cores = rng.integers(-1, 2, size=shape).astype(float)
        else:
            cores = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        if trial % 7 == 3:
            cores[:] = cores[0]
        want = _outcome(nearest_centroid_loops, cores, labels)
        assert _outcome(nearest_centroid, cores, labels) == want, trial
        errors.append(isinstance(want, str))
    assert 50 < sum(errors) < 250             # both values and errors were compared


def test_evaluate_report_fields():
    x, truth = generate(SynthSpec(seed=2))
    report = evaluate(x, truth.cores, truth.factors, labels=truth.labels, k=4)
    d = dataclasses.asdict(report)
    assert 0.0 <= d["reconstruction_re"] <= 0.1       # noise-level misfit only
    assert 0.0 <= d["core_sparsity"] <= 1.0
    assert 0.0 <= d["neighbor_preservation"] <= 1.0
    assert 0.0 <= d["nearest_centroid_accuracy"] <= 1.0
