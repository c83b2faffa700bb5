"""Weight-graph construction: mutual-OR k-NN connectivity, the three weight
strategies, tie handling, and the CSV edge-list export."""

import contextlib
import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from mrtucker import SynthSpec, WeightGraph, build_graph, generate, graph, zero_graph
from mrtucker.graph import DEFAULT_DELTA, save_edge_list

from graphs import WORKLOAD_SPECS, from_dense


def scalar_samples(values):
    """Each sample a 1x1x1 tensor holding one scalar."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1, 1, 1)


def test_three_scalars_k1_binary():
    # samples 0, 1, 10: 3's nearest is 2; OR-symmetrization links them
    g = build_graph(scalar_samples([0.0, 1.0, 10.0]), k=1)
    expected = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ])
    assert_array_equal(g.w, expected)


def test_bruteforce_connectivity_oracle():
    # re-derive the mutual-OR mask with explicit loops and sorted() tie-breaks
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((9, 3, 2, 2))
    k = 3
    flat = samples.reshape(9, -1)
    expected = np.zeros((9, 9))
    for i in range(9):
        dists = [(np.linalg.norm(flat[i] - flat[j]), j) for j in range(9) if j != i]
        for _, j in sorted(dists)[:k]:
            expected[i, j] = 1.0
    expected = np.maximum(expected, expected.T)
    g = build_graph(samples, k=k)
    assert_array_equal(g.w, expected)


def test_identical_samples_tie_break():
    g = build_graph(scalar_samples([2.0, 2.0, 2.0, 2.0]), k=1)
    assert_array_equal(g.w, g.w.T)
    assert np.all(np.diag(g.w) == 0.0)
    # every sample's nearest neighbor under the lowest-index rule is sample 0
    # (sample 0 itself picks sample 1), so the graph is the star at 0
    expected = np.zeros((4, 4))
    expected[0, 1:] = expected[1:, 0] = 1.0
    assert_array_equal(g.w, expected)


def test_heat_kernel_unit_exponent():
    delta = 7.0
    x = np.zeros((2, 1, 1, 1))
    x[1] = np.sqrt(delta)  # squared distance exactly delta
    g = build_graph(x, k=1, strategy="heat_kernel", delta=delta)
    assert_allclose(g.w[0, 1], np.exp(-1.0), rtol=1e-12)
    assert g.delta == delta


def test_heat_kernel_monotone_in_distance():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((8, 2, 2, 2))
    g = build_graph(samples, k=7, strategy="heat_kernel", delta=10.0)
    flat, w = samples.reshape(8, -1), g.w
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    data = [(np.linalg.norm(flat[i] - flat[j]), w[i, j]) for i, j in pairs]
    data.sort()
    weights = [w for _, w in data]
    assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))


def test_cosine_clamped_to_unit_interval():
    # opposite samples have similarity -1, clamped to 0
    x = scalar_samples([1.0, -1.0, 2.0])
    g = build_graph(x, k=2, strategy="cosine")
    assert np.all((0.0 <= g.w) & (g.w <= 1.0))
    assert g.w[0, 1] == 0.0
    assert_allclose(g.w[0, 2], 1.0, rtol=1e-12)


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError):
        build_graph(scalar_samples([0.0, 1.0]), k=1, strategy="cosine")


def test_cosine_tiny_sample_not_zero_norm():
    # sample 0 holds only 1e-170, whose square underflows: it still has a
    # direction, (1, 0), and gets cosine weights like any other sample
    x = np.zeros((3, 1, 1, 2))
    x[0, 0, 0, 0] = 1e-170
    x[1, 0, 0] = [1.0, 1.0]
    x[2, 0, 0] = [0.0, 3.0]
    g = build_graph(x, k=2, strategy="cosine")
    assert_allclose(g.w, [[0.0, np.sqrt(0.5), 0.0],
                          [np.sqrt(0.5), 0.0, np.sqrt(0.5)],
                          [0.0, np.sqrt(0.5), 0.0]], rtol=1e-15, atol=0)


def test_invariants_all_strategies():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((10, 3, 3, 2)) + 0.5
    for strategy in ("binary", "heat_kernel", "cosine"):
        for k in (1, 4, 9):
            g = build_graph(samples, k=k, strategy=strategy, delta=100.0)
            w = g.w
            assert_array_equal(w, w.T)              # exact symmetry
            assert np.all(np.diag(w) == 0.0)
            assert np.all(w >= 0.0)
            if strategy == "binary":
                assert set(np.unique(w)) <= {0.0, 1.0}
                nnz = np.count_nonzero(w, axis=1)
                assert np.all((k <= nnz) & (nnz <= 9))
            # storage: row-major nonzeros, no diagonal entry, no stored zero,
            # every (i, j) mirrored by (j, i) with a bitwise-equal weight
            assert g.m == 10 and g.rows.shape == g.cols.shape == g.vals.shape
            assert np.all(np.diff(g.rows) >= 0)
            assert np.all(np.diff(g.cols)[np.diff(g.rows) == 0] > 0)
            assert np.all(g.rows != g.cols) and np.all(g.vals != 0.0)
            mirror = np.lexsort((g.rows, g.cols))   # the (j, i) entries in row-major order
            assert_array_equal(g.rows[mirror], g.cols)
            assert_array_equal(g.cols[mirror], g.rows)
            assert g.vals[mirror].tobytes() == g.vals.tobytes()
            again = from_dense(w, g.k, g.strategy, g.delta)     # g.w round-trips
            for field in ("rows", "cols", "vals"):
                assert getattr(again, field).tobytes() == getattr(g, field).tobytes()


@given(st.data(), st.sampled_from(["binary", "heat_kernel", "cosine"]))
def test_graph_invariants_property(data, strategy):
    # any stack, k and bandwidth: w is bitwise symmetric, zero on the
    # diagonal and nonnegative, and every sample keeps at least k neighbours
    # before weighting (the binary graph's pattern holds every strategy's)
    m = data.draw(st.integers(2, 9))
    shape = (m,) + tuple(data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=3)))
    samples = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-8.0, 8.0)))
    k = data.draw(st.integers(1, m - 1))
    delta = data.draw(st.floats(1e-3, 1e4))
    if strategy == "cosine" and not samples.reshape(m, -1).any(axis=1).all():
        # a sample with no nonzero entry has no direction
        with pytest.raises(ValueError, match="zero-norm"):
            build_graph(samples, k, strategy)
        return
    w = build_graph(samples, k, strategy, delta).w
    assert_array_equal(w, w.T)
    assert np.all(np.diag(w) == 0.0) and np.all(w >= 0.0)
    pattern = build_graph(samples, k).w != 0.0
    assert np.all(pattern.sum(axis=1) >= k)
    assert not np.any((w != 0.0) & ~pattern)


def stable_argsort_graph(samples, k, strategy, delta, d2=None):
    """Oracle W: each sample links the first k of a stable argsort of its
    distances (self at distance inf, so ties at inf can pick it), then the
    mutual-OR pattern is weighted. Distances are direct differences, exact on
    the small integer-valued stacks below, unless given as d2."""
    m = samples.shape[0]
    flat = samples.reshape(m, -1)
    if d2 is None:
        with np.errstate(over="ignore"):
            d2 = ((flat[:, None] - flat[None]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    picked = np.zeros((m, m), dtype=bool)
    picked[np.arange(m)[:, None], np.argsort(d2, axis=1, kind="stable")[:, :k]] = True
    picked |= picked.T
    np.fill_diagonal(picked, False)
    if strategy == "binary":
        w = np.ones((m, m))
    elif strategy == "heat_kernel":
        w = np.exp(d2 / -delta)
    else:
        norms = np.linalg.norm(flat, axis=1)
        w = np.clip(flat @ flat.T / np.outer(norms, norms), 0.0, 1.0) + 0.0   # no -0.0
    return np.where(picked, w, 0.0)



def gram_distances(samples):
    """Squared distances as a dense (sq_i + sq_j) - 2 <x_i, x_j>, clipped at 0, the upper
    triangle mirrored below the diagonal: build_graph's rounding, in one M x M expression.
    The mirror makes it symmetric by construction, so it is the independent reference that
    build_graph's whole rows, which rest on numpy's X X^T being exactly symmetric, must equal."""
    flat = samples.reshape(samples.shape[0], -1)
    sq = np.einsum("ij,ij->i", flat, flat)
    d2 = np.maximum(-2.0 * (flat @ flat.T) + (sq[:, None] + sq), 0.0)
    return np.where(np.tri(len(d2), k=-1, dtype=bool), d2.T, d2)


@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("workload", sorted(WORKLOAD_SPECS))
def test_build_graph_on_workload_instances_is_the_oracles(workload, seed):
    # real-valued instances at their graph degree: rows, cols and vals bitwise equal to
    # the stable-argsort oracle's on the same Gram-form distances, for every strategy
    spec, k, _ = WORKLOAD_SPECS[workload]
    samples, _ = generate(SynthSpec(**spec, seed=seed))
    assert_graphs_are_the_oracles(samples, k, DEFAULT_DELTA)


def assert_graphs_are_the_oracles(samples, k, delta):
    # rows, cols and vals of every strategy bitwise equal to the oracle's on gram_distances
    d2 = gram_distances(samples)
    for strategy in ("binary", "heat_kernel", "cosine"):
        g = build_graph(samples, k, strategy, delta)
        w = stable_argsort_graph(samples, k, strategy, delta, d2=d2)
        rows, cols = np.nonzero(w)
        assert g.rows.tobytes() == rows.astype(g.rows.dtype).tobytes(), strategy
        assert g.cols.tobytes() == cols.astype(g.cols.dtype).tobytes(), strategy
        assert g.vals.tobytes() == w[rows, cols].tobytes(), strategy


@st.composite
def scaled_real_stacks(draw):
    """2-40 samples of a random shape up to the paper's 16x16x6, drawn with repeats from a
    pool of standard normal samples, each scaled by its own 10^-80 to 10^80 (repeats put
    distances a rounding apart), laid out C-contiguous, strided (every other sample of a
    larger stack) or Fortran-ordered."""
    shape = (draw(st.integers(1, 16)), draw(st.integers(1, 16)), draw(st.integers(1, 6)))
    m = draw(st.integers(2, 40))
    n_pool = draw(st.integers(1, m))
    scales = 10.0 ** np.array(draw(st.lists(st.integers(-80, 80), min_size=n_pool,
                                            max_size=n_pool)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.standard_normal((n_pool,) + shape) * scales.reshape(-1, 1, 1, 1)
    samples = pool[draw(st.lists(st.integers(0, n_pool - 1), min_size=m, max_size=m))]
    layout = draw(st.sampled_from(["C", "strided", "F"]))
    if layout == "strided":
        big = np.zeros((2 * m,) + shape)
        big[::2] = samples
        return big[::2]
    return np.asfortranarray(samples) if layout == "F" else samples


@contextlib.contextmanager
def row_blocks(rows: int, m: int):
    """build_graph's row blocks over M = m samples set to `rows` rows (at most m) by
    graph._CACHE_FLOATS = rows * m while the body runs; fails unless every block it cut
    had that many rows, but for a shorter last one."""
    step, sizes, knn_rows = min(rows, m), [], graph._knn_rows

    def spy(block, k, out):
        sizes.append(len(block))
        knn_rows(block, k, out)

    with mock.patch.object(graph, "_CACHE_FLOATS", step * m), \
            mock.patch.object(graph, "_knn_rows", spy):
        yield
    assert sizes and max(sizes) == step and set(sizes) <= {step, m % step}, (step, sizes)


@given(scaled_real_stacks(), st.data(), st.sampled_from([1, 3, None]))
def test_whole_row_distances_equal_the_mirrored_gram(samples, data, rows):
    # each row block forms its whole rows of the Gram form; W must come out bitwise equal
    # to the oracle's on the mirrored Gram, for every layout and for row blocks of one
    # row, of three rows and of all rows (None)
    m = samples.shape[0]
    k = data.draw(st.integers(1, m - 1))
    delta = 10.0 ** data.draw(st.floats(-3, 4))
    with row_blocks(rows or m, m):
        assert_graphs_are_the_oracles(samples, k, delta)


@st.composite
def tie_heavy_stacks(draw):
    """2-12 samples drawn with repeats from a pool of 1-5 samples with entries
    in {-2, ..., 2}: exact duplicates and equal distances throughout."""
    shape = tuple(draw(st.lists(st.integers(1, 2), min_size=3, max_size=3)))
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)),) + shape,
                           elements=st.integers(-2, 2).map(float)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=12))
    return pool[picks]


def assert_knn_tie_rule(samples, delta):
    m = samples.shape[0]
    for strategy in ("binary", "heat_kernel", "cosine"):
        if strategy == "cosine" and not samples.reshape(m, -1).any(axis=1).all():
            continue                                    # rejected as zero-norm
        for k in range(1, m):
            w = build_graph(samples, k, strategy, delta).w
            assert w.tobytes() == stable_argsort_graph(samples, k, strategy, delta).tobytes()


@given(tie_heavy_stacks(), st.sampled_from([1, 3, None]))
def test_knn_selection_keeps_stable_argsort_tie_rule(samples, rows):
    # every k and strategy, with row blocks of one row, of three rows and of
    # all rows (None): W bitwise equal to the stable-argsort oracle's
    with row_blocks(rows or len(samples), len(samples)):
        assert_knn_tie_rule(samples, delta=3.0)


def test_knn_selection_with_inf_distance_ties():
    # ||X||^2 is finite, yet sample 0 is at distance inf from samples 1-3: its
    # row ties at inf with its own diagonal, which the lower-index rule picks
    # first (k=1 leaves sample 0 without a neighbour of its own)
    big = np.sqrt(np.finfo(np.float64).max)
    samples = scalar_samples([0.63 * big, -0.4 * big, -0.4 * big, -0.4 * big])
    assert_knn_tie_rule(samples, delta=DEFAULT_DELTA)
    assert not build_graph(samples, 1).w[0].any()


@pytest.mark.parametrize("strategy, bound", [("binary", 1.5), ("heat_kernel", 1.5),
                                             ("cosine", 1.5)])
def test_build_graph_peak_memory(strategy, bound):
    # the traced peak, in M x M float64 arrays, stays near the one distance
    # matrix: the k-NN mask and each row block's temporaries are small beside it
    m = 400
    samples = np.random.default_rng(5).standard_normal((m, 4, 4, 3))
    tracemalloc.start()
    try:
        build_graph(samples, k=4, strategy=strategy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * m * m) <= bound


@pytest.mark.parametrize("fault", ["nan", "inf", "overflow"])
def test_build_graph_rejects_non_finite_samples(fault):
    # one bad entry in sample 3 of 10: an error naming it, not a silent graph
    samples = np.random.default_rng(3).standard_normal((10, 2, 2, 2))
    if fault == "overflow":
        samples *= 1e200
    else:
        samples[3, 1, 0, 1] = np.nan if fault == "nan" else np.inf
    with pytest.raises(ValueError, match=r"not finite.*samples \[" +
                       ("0, 1, 2, 3, 4, 5, 6, 7, 8, 9" if fault == "overflow" else "3") + r"\]"):
        build_graph(samples, k=2)


def test_build_graph_takes_the_sample_stack_check():
    # build_graph's samples pass the one stack check select_ranks and solve use: matrix
    # samples (an order-3 stack) and an empty stack are rejected with its message
    for samples in (np.zeros((5, 3, 3)), np.zeros((0, 2, 2, 2))):
        with pytest.raises(ValueError, match="expected a nonempty stack of order-3 samples"):
            build_graph(samples, k=1)


def test_bad_arguments():
    x = scalar_samples([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        build_graph(x, k=0)
    with pytest.raises(ValueError):
        build_graph(x, k=3)
    with pytest.raises(ValueError):
        build_graph(x, k=1, strategy="gaussian")
    with pytest.raises(ValueError):
        build_graph(x, k=1, strategy="heat_kernel", delta=0.0)
    # a bool (once run as delta = 1) and a string (once a TypeError) are not bandwidths
    for delta in (True, "5"):
        with pytest.raises(ValueError, match=f"delta must be a positive number, got {delta!r}"):
            build_graph(x, k=1, strategy="heat_kernel", delta=delta)
    with pytest.raises(ValueError):
        build_graph(x[:1], k=1)


def test_build_graph_rejects_k_that_is_not_an_integer():
    # 2.5 and 3.0 are not neighbour counts, nor is True (once a k=1 graph with k True);
    # a numpy integer builds the graph the int does
    x = np.random.default_rng(8).standard_normal((6, 2, 2, 2))
    for k in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            build_graph(x, k=k)
    g, want = build_graph(x, k=np.int64(3)), build_graph(x, k=3)
    assert g.k == 3
    for a, b in [(g.rows, want.rows), (g.cols, want.cols), (g.vals, want.vals)]:
        assert_array_equal(a, b)


def test_weight_graph_rejects_permuted_edges():
    # the sweep reads the edge list as row-major: the same W with its nonzeros
    # permuted gave a 3-sweep solve with cores off by up to 8.4, with no error
    x, _ = generate(SynthSpec(m=30, seed=1))
    g = build_graph(x, k=4, strategy="heat_kernel")
    p = np.random.default_rng(0).permutation(g.rows.size)
    with pytest.raises(ValueError, match="row-major"):
        WeightGraph(g.m, g.rows[p], g.cols[p], g.vals[p], g.k, g.strategy, g.delta)


def test_weight_graph_checks_its_edge_list():
    # rows 0-1-2 path: (0, 1), (1, 0), (1, 2), (2, 1); each case breaks one rule
    rows, cols, vals = np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]), np.ones(4)
    WeightGraph(3, rows, cols, vals, 1, "binary")
    cases = [
        (rows, cols, vals[:3], "differ in length"),
        (rows, cols + [0, 0, 0, 2], vals, r"outside \[0, 3\)"),
        (rows - [1, 0, 0, 0], cols, vals, r"outside \[0, 3\)"),
        (rows[[0, 2, 1, 3]], cols[[0, 2, 1, 3]], vals, "row-major"),
        (rows[[0, 1, 1, 3]], cols[[0, 1, 1, 3]], vals, "row-major"),    # a repeated key
        (np.array([0, 1, 1, 1, 2]), np.array([1, 0, 1, 2, 1]), np.ones(5), "diagonal"),
    ]
    for bad in (0.0, -1.0, np.nan, np.inf):
        cases.append((rows, cols, np.array([1.0, 1.0, bad, 1.0]), "finite and positive"))
    cases += [      # wrong types, which would otherwise fail only inside solve
        (rows.astype(float), cols, vals, "rows must be a 1-D integer array"),
        (rows, cols.astype(bool), vals, "cols must be a 1-D integer array"),
        (rows[:, None], cols[:, None], vals, "rows must be a 1-D integer array"),
        (rows, cols, vals[:, None], "vals must be a 1-D array"),
        # W not symmetric: the path's upper or lower edges alone, or w_12 != w_21
        (rows[[0, 2]], cols[[0, 2]], vals[:2], "not symmetric"),
        (rows[[1, 3]], cols[[1, 3]], vals[:2], "not symmetric"),
        (rows, cols, np.array([1.0, 1.0, 2.0, 1.0]), "not symmetric"),
        # unsigned keys out of order: their row-major differences would wrap around
        (rows[::-1].astype(np.uint64), cols[::-1].astype(np.uint64), vals, "row-major"),
    ]
    for r, c, v, message in cases:
        with pytest.raises(ValueError, match=message):
            WeightGraph(3, r, c, v, 1, "binary")
    for m in (3.0, True, -1, "3"):
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            WeightGraph(m, rows, cols, vals, 1, "binary")
    g = WeightGraph(3, rows.astype(np.int32).tolist(), cols.astype(np.uint8), vals, 1, "binary")
    assert g.rows.dtype == g.cols.dtype == np.intp and isinstance(g.vals, np.ndarray)


def test_row_sums_zero_graph():
    assert_array_equal(zero_graph(5).row_sums(), np.zeros(5))


def test_row_sums_ring_hand_count():
    # 4-cycle adjacency: each vertex touches exactly two edges
    ring = np.zeros((4, 4))
    for i in range(4):
        ring[i, (i + 1) % 4] = ring[(i + 1) % 4, i] = 1.0
    g = from_dense(ring)
    assert_array_equal(g.row_sums(), 2.0 * np.ones(4))


def test_square_corners_k2_build_ring():
    # corners of a unit square, k=2: both adjacent corners beat the diagonal
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    samples = pts.reshape(4, 2, 1, 1)
    g = build_graph(samples, k=2)
    assert_array_equal(g.row_sums(), 2.0 * np.ones(4))
    assert g.w[0, 2] == 0.0 and g.w[1, 3] == 0.0


def test_row_sums_equal_column_sums():
    rng = np.random.default_rng(3)
    g = build_graph(rng.standard_normal((7, 2, 2, 3)), k=2, strategy="heat_kernel")
    assert_allclose(g.row_sums(), g.w.sum(axis=0), rtol=0, atol=0)


def test_edge_list_export(tmp_path):
    g = build_graph(scalar_samples([0.0, 1.0, 10.0]), k=1)
    path = tmp_path / "edges.csv"
    save_edge_list(g, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,w"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1]), float(r[2])) for r in rows] == [(0, 1, 1.0), (1, 2, 1.0)]


def test_edge_list_matches_pair_loop_bytes(tmp_path):
    # the exported CSV is byte-identical to one written by an i < j pair loop
    rng = np.random.default_rng(4)
    g = build_graph(rng.standard_normal((40, 3, 2, 2)), k=5, strategy="heat_kernel", delta=7.0)
    path = tmp_path / "edges.csv"
    save_edge_list(g, path)
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "w"])
        w = g.w
        for i in range(g.m):
            for j in range(i + 1, g.m):
                if w[i, j] != 0.0:
                    writer.writerow([i, j, repr(float(w[i, j]))])
    assert path.read_bytes() == oracle.read_bytes()
    assert len(path.read_text().splitlines()) == 1 + np.count_nonzero(w) // 2
