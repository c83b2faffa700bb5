"""Solver unit tests: objective bookkeeping, the two closed-form block
updates (each checked against an independent brute-force oracle), the
stopping rule, stationarity residuals, and the per-iteration guarantees."""

import collections
import contextlib
import dataclasses
import functools
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

import mrtucker.solver as sv
from mrtucker import linalg, tensor
from mrtucker import (
    FactorSet,
    SolverConfig,
    SynthSpec,
    WeightGraph,
    build_graph,
    evaluate,
    generate,
    select_ranks,
    objective,
    qf,
    relative_error,
    soft_threshold,
    solve,
    stationarity_residual,
    update_factor,
)
from mrtucker.graph import save_edge_list, zero_graph
from mrtucker.solver import core_threshold, init_state, reconstruct

from graphs import WORKLOAD_SPECS, from_dense
from slabs import cut_into_slabs
from sweep import (core_prox, edge_levels, joint_span_relative_error, loop_init_state,
                   sequential_core_sweep, update_core)


def random_factors(rng, shape, ranks):
    return FactorSet(*[qf(rng.standard_normal((i, r))) for i, r in zip(shape, ranks)])


def make_instance(rng, m=3, shape=(6, 5, 4), ranks=(3, 2, 4), noise=0.0):
    factors = random_factors(rng, shape, ranks)
    cores = rng.standard_normal((m,) + ranks)
    x = reconstruct(cores, factors)
    if noise:
        x = x + noise * rng.standard_normal(x.shape)
    return x, cores, factors


def scalar_core_objective(g, d, neighbors_w, beta, gamma):
    """Brute-force scalar subproblem value: (1/gamma)|g| + (1/2)(g-d)^2
    + (1/beta) sum_j w_j (g - g_j)^2."""
    val = abs(g) / gamma + 0.5 * (g - d) ** 2
    for w, gj in neighbors_w:
        val += w * (g - gj) ** 2 / beta
    return val


# ---------------------------------------------------------------- objective

def test_objective_exact_fit_m1():
    rng = np.random.default_rng(0)
    x, cores, factors = make_instance(rng, m=1)
    config = SolverConfig(gamma=10.0)
    total, l1, fit, manifold = objective(x, cores, factors, None, config)
    assert_allclose(total, np.abs(cores).sum() / 10.0, rtol=1e-12)
    assert fit <= 1e-24 and manifold == 0.0


def test_objective_zero_cores():
    rng = np.random.default_rng(1)
    x, cores, factors = make_instance(rng, m=3)
    total, l1, fit, manifold = objective(x, np.zeros_like(cores), factors, None, SolverConfig())
    assert l1 == 0.0 and manifold == 0.0
    assert_allclose(total, 0.5 * np.linalg.norm(x) ** 2, rtol=1e-12)


def test_objective_identical_cores_no_manifold_term():
    rng = np.random.default_rng(2)
    x, cores, factors = make_instance(rng, m=2)
    cores[1] = cores[0]
    g = from_dense([[0.0, 3.0], [3.0, 0.0]])
    *_, manifold = objective(x, cores, factors, g, SolverConfig())
    assert manifold == 0.0


def test_objective_matches_bruteforce_sum():
    # independent evaluation: one unordered-pair loop, term by term
    rng = np.random.default_rng(3)
    x, cores, factors = make_instance(rng, m=4, noise=0.1)
    g = build_graph(x, k=2, strategy="heat_kernel", delta=50.0)
    config = SolverConfig(gamma=7.0, beta=0.3)
    total, l1, fit, manifold = objective(x, cores, factors, g, config)
    w = g.w
    expected_manifold = sum(
        w[i, j] * np.linalg.norm(cores[i] - cores[j]) ** 2
        for i in range(4) for j in range(i + 1, 4)
    ) / config.beta
    assert_allclose(manifold, expected_manifold, rtol=1e-12)
    assert_allclose(total, l1 + fit + manifold, rtol=1e-14)


@pytest.mark.parametrize("strategy", ["binary", "heat_kernel"])
def test_manifold_term_matches_pair_loop(strategy):
    # edge-list sum against the unordered-pair loop, on the 400-sample graph's
    # several edge chunks; once more with cores that nearly coincide (a common core
    # plus 1e-6 noise), where only per-edge differences keep 1e-12: the Laplacian
    # form would cancel to ~1e-4 of the term
    rng = np.random.default_rng(31)
    x, cores, factors = make_instance(rng, m=400, shape=(8, 7, 5), ranks=(6, 5, 4), noise=0.5)
    g = build_graph(x, k=6, strategy=strategy, delta=50.0)
    config = SolverConfig(beta=0.3)
    w = g.w
    ew = g.edges()[2]
    assert len(list(tensor._chunks(len(ew), cores[0].size, sv._CACHE_FLOATS))) > 2
    for stack in (cores, cores[0] + 1e-6 * rng.standard_normal(cores.shape)):
        *_, manifold = objective(x, stack, factors, g, config)
        flat = stack.reshape(400, -1)
        expected = 0.0
        for i in range(400):
            for j in range(i + 1, 400):
                if w[i, j] != 0.0:
                    d = flat[i] - flat[j]
                    expected += float(w[i, j]) * float(np.dot(d, d))
        expected /= config.beta
        assert abs(manifold - expected) <= 1e-12 * expected


def test_objective_shape_mismatch():
    rng = np.random.default_rng(4)
    x, cores, factors = make_instance(rng)
    with pytest.raises(ValueError):
        objective(x, cores[:2], factors, None, SolverConfig())
    # stacks of matrices, samples or cores, and two or four factors: a ValueError, not
    # an IndexError; a stack of matrix samples fails the sample-stack check first
    for xs, cs, fs in [(x[..., 0], cores, factors), (x[..., 0], cores[..., 0], factors)]:
        with pytest.raises(ValueError, match="expected a nonempty stack of order-3 samples"):
            objective(xs, cs, fs, None, SolverConfig())
        with pytest.raises(ValueError, match="expected a nonempty stack of order-3 samples"):
            stationarity_residual(xs, cs, fs, None, SolverConfig())
    for xs, cs, fs in [(x, cores[..., 0], factors), (x, cores, factors[:2]),
                       (x, cores, factors + factors[:1])]:
        with pytest.raises(ValueError, match="order-3 samples and cores and three factors"):
            objective(xs, cs, fs, None, SolverConfig())
        with pytest.raises(ValueError, match="order-3 samples and cores and three factors"):
            stationarity_residual(xs, cs, fs, None, SolverConfig())
    # a transposed U_2 and a U_3 of the wrong rank: the per-factor check names the factor
    for n, u in [(1, factors.u2.T), (2, qf(rng.standard_normal((4, 3))))]:
        bad = factors._replace(**{f"u{n + 1}": u})
        msg = re.escape(f"factor {n} has shape {u.shape}, "
                        f"expected {(x.shape[n + 1], cores.shape[n + 1])}")
        for call in (lambda: objective(x, cores, bad, None, SolverConfig()),
                     lambda: stationarity_residual(x, cores, bad, None, SolverConfig()),
                     lambda: evaluate(x, cores, bad)):
            with pytest.raises(ValueError, match=msg):
                call()


@pytest.mark.parametrize("extra", [-4, 2])
def test_graph_over_another_sample_count_is_rejected(extra):
    # a graph over M - 4 or M + 2 samples: one ValueError naming both counts from
    # solve, objective and the residual, never rows read past the graph or an IndexError
    x, _ = generate(SynthSpec(m=12, seed=0))
    g = build_graph(generate(SynthSpec(m=12 + extra, seed=0))[0], k=3)
    factors, cores = init_state(x, (5, 5, 6))
    config = SolverConfig(max_iter=2)
    msg = rf"graph over {12 + extra} samples for a stack of 12$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: solve(x, g, (5, 5, 6), config),
                     lambda: objective(x, cores, factors, g, config),
                     lambda: stationarity_residual(x, cores, factors, g, config)):
            with pytest.raises(ValueError, match=msg):
                call()


# ------------------------------------------------------------ factor update

def test_update_factor_fixed_point():
    # X = G x U* with generic full-rank G: the update returns U* itself
    rng = np.random.default_rng(5)
    x, cores, factors = make_instance(rng, m=1, shape=(6, 5, 4), ranks=(3, 2, 4))
    for n in range(3):
        u = update_factor(x, cores, factors, n)
        assert np.linalg.norm(u - factors.as_list()[n]) <= 1e-8


def test_update_factor_zero_cores_degenerate():
    rng = np.random.default_rng(6)
    x, cores, factors = make_instance(rng)
    u = update_factor(x, np.zeros_like(cores), factors, 0)
    assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-10
    assert np.array_equal(u, update_factor(x, np.zeros_like(cores), factors, 0))


def test_update_factor_never_increases_objective():
    rng = np.random.default_rng(7)
    for trial in range(10):
        x, cores, factors = make_instance(rng, m=3, noise=0.5)
        g = build_graph(x, k=1)
        config = SolverConfig(gamma=5.0, beta=2.0)
        before, *_ = objective(x, cores, factors, g, config)
        for n in range(3):
            factors = factors._replace(**{f"u{n + 1}": update_factor(x, cores, factors, n)})
            after, *_ = objective(x, cores, factors, g, config)
            assert after <= before + 1e-10 * max(1.0, before)
            before = after


def test_update_factor_nonfinite():
    # non-finite samples: a ValueError naming them before any product; finite inputs whose
    # cross-product overflows: one FloatingPointError. No RuntimeWarning either way
    rng = np.random.default_rng(8)
    x, cores, factors = make_instance(rng)
    bad = x.copy()
    bad[0, 0, 0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(3):
            with pytest.raises(ValueError, match="samples are not finite"):
                update_factor(bad, cores, factors, n)
            with pytest.raises(FloatingPointError):
                update_factor(x * 1e150, cores * 1e160, factors, n)


def test_factor_cross_product_matches_phi_route():
    # project-first B against sum_i X_(n) Phi_(n)^T, Phi = G times the other
    # two factors (the data-sized route), with R_3 < I_3 and R_3 = I_3; in one
    # chunk of samples, and in chunks of 1 or 20 floats: one sample each
    rng = np.random.default_rng(30)
    for ranks in [(3, 4, 2), (3, 4, 5)]:
        x, cores, factors = make_instance(rng, m=5, shape=(7, 6, 5), ranks=ranks, noise=0.3)
        mats = factors.as_list()
        for n in range(3):
            other = [k for k in range(3) if k != n]
            phi = sv.multi_mode_product(cores, [mats[k] for k in other],
                                        modes=[k + 1 for k in other])
            expected = tensor.unfold(x, n + 1) @ tensor.unfold(phi, n + 1).T
            for slab in (None, 1, 20):
                with cut_into_slabs(slab) if slab else contextlib.nullcontext():
                    got = sv._factor_cross_product(x, cores, factors, n)
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_factor_cross_product_peak_memory_below_half_a_projection():
    # B contracts the C-order prefix projection (X, Z_1, Z_12) and the cores expanded
    # ~1 MB of it at a time, with no copy of either: on M=300 samples of 48x48x8 at ranks
    # (6, 6, 4), a projection of up to ~5 slabs of ~1 MB, the traced peak stays below 0.3
    # of Z_1 and Z_12 in modes 2 and 3. Mode 1 forms no projection, with X passed in or
    # not: its peak stays below 0.1 of X x_2 U_2^T
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 48, 48, 8))
    factors = random_factors(rng, x.shape[1:], (6, 6, 4))
    cores = rng.standard_normal((300, 6, 6, 4))
    z1 = tensor.mode_product(x, factors[0].T, 1)
    z12 = tensor.mode_product(z1, factors[1].T, 2)
    y_bytes = x.nbytes * 6 // 48
    for n, z, bound in [(0, x, 0.1 * y_bytes), (0, None, 0.1 * y_bytes),
                        (1, z1, 0.3 * z1.nbytes), (2, z12, 0.3 * z12.nbytes)]:
        tracemalloc.start()
        try:
            sv._factor_cross_product(x, cores, factors, n, projected=z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, peak / bound)


# ------------------------------------------------------ shared projections

# R_n = I_n in mode 1 or 2 makes U_n square and orthogonal but not the
# identity: a projected stack must never be told apart from X by its shape
SWEEP_RANKS = [(5, 5, 6), (16, 5, 6), (5, 16, 6)]


@pytest.mark.parametrize("ranks", SWEEP_RANKS)
def test_solve_sweep_matches_replay_from_raw_stack(ranks):
    # one solve sweep, replayed with every projection taken from X itself:
    # update_factor without a projection per mode, then D; bitwise equal
    x, _ = generate(SynthSpec(seed=3))
    g = build_graph(x, k=4)
    config = SolverConfig(max_iter=1)
    factors, cores = init_state(x, ranks)
    mats = list(factors)
    for n in range(3):
        mats[n] = update_factor(x, cores, mats, n)
    d = sv.multi_mode_product(x, mats, modes=(1, 2, 3), transpose=True).reshape(len(x), -1)
    flat = cores.reshape(len(x), -1)
    sequential_core_sweep(g, config.beta * d, flat, flat, config)
    res = solve(x, g, ranks, config)
    assert res.n_iter == 1
    for got, want in zip(res.factors, mats):
        assert_array_equal(got, want)
    assert_array_equal(res.cores, cores)


@pytest.mark.parametrize("ranks", SWEEP_RANKS)
def test_update_factor_with_and_without_projection_agree(ranks):
    # the projections the sweep passes in (X for mode 1, Z_1 = X x_1 U_1^T for mode 2
    # and Z_12 = Z_1 x_2 U_2^T for mode 3) give the same factor, bitwise
    x, _ = generate(SynthSpec(seed=4))
    factors, cores = init_state(x, ranks)
    u1, u2, u3 = factors
    z1 = tensor.mode_product(x, u1.T, 1)
    projections = [x, z1, tensor.mode_product(z1, u2.T, 2)]
    for n, y in enumerate(projections):
        assert_array_equal(update_factor(x, cores, factors, n, y),
                           update_factor(x, cores, factors, n))


# the public kernels check their inputs; solve and stationarity_residual check theirs once
# and then call only the bare kernels under these names
CHECKED = [(tensor, "mode_product"), (tensor, "multi_mode_product"), (linalg, "qf"),
           (sv, "update_factor"), (sv, "relative_error"), (sv, "soft_threshold")]


@contextlib.contextmanager
def counting_checked_kernels():
    """A Counter of calls to the CHECKED names, each wrapped on every module that binds it."""
    calls, names = collections.Counter(), {id(getattr(m, n)): n for m, n in CHECKED}

    def spy(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        bound = set()
        for modname, mod in list(sys.modules.items()):
            if modname == "mrtucker" or modname.startswith("mrtucker."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in names:
                        bound.add(names[id(val)])
                        stack.enter_context(mock.patch.object(mod, attr, spy(val, names[id(val)])))
        assert bound == {n for _, n in CHECKED}
        yield calls


@pytest.mark.parametrize("noise", [0.01, 0.0])
def test_solve_and_residual_call_no_checked_kernel(noise):
    # noiseless data and no edges make L ~ 0, so the sweep forms the fit slice by slice
    x, _ = generate(SynthSpec(m=12, seed=2, noise=noise))
    g = build_graph(x, k=3) if noise else None
    config = SolverConfig(max_iter=2)
    with counting_checked_kernels() as calls, mock.patch.object(sv, "_fit", wraps=sv._fit) as fit:
        res = solve(x, g, (5, 5, 6), config)
        stationarity_residual(x, res.cores, res.factors, g, config)
        assert not calls
        sv.update_factor(x, res.cores, res.factors, 0)      # the spies count
        sv.reconstruct(res.cores, res.factors)
    assert fit.called == (not noise)
    assert dict(calls) == {"update_factor": 1, "multi_mode_product": 1, "mode_product": 3}


# -------------------------------------------------------------- core update

def test_soft_threshold_examples():
    assert soft_threshold(2.5, 1.0) == 1.5
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(-2.0, 0.5) == -1.5
    arr = soft_threshold(np.array([3.0, -0.1, 0.0]), 0.5)
    assert_allclose(arr, [2.5, 0.0, 0.0], rtol=0, atol=0)
    x = np.array([3.0, -2.0, 0.2, -0.0])
    assert soft_threshold(x, 0.5, out=x) is x
    assert_array_equal(x, [2.5, -1.5, 0.0, 0.0])
    assert_array_equal(np.signbit(x), [False, True, False, True])   # the input's sign


def test_update_core_w0_shift():
    # W = 0: alpha = D, tau = 1/gamma; a D-entry of 2.5 shrinks to 2.4999
    rng = np.random.default_rng(9)
    x, cores, factors = make_instance(rng, m=1)
    d = sv.multi_mode_product(x[0], factors.as_list(), transpose=True)
    config = SolverConfig(gamma=1e4)
    out = update_core(x, cores, factors, None, config, 0)
    # alpha = (beta*d)/beta agrees with d to rounding only
    assert_allclose(out, soft_threshold(d, 1e-4), rtol=1e-12, atol=1e-15)
    d_flat = d.ravel()
    idx = int(np.argmax(d_flat > 1.0))
    assert d_flat[idx] > 1.0
    assert_allclose(out.ravel()[idx], d_flat[idx] - 1e-4, rtol=1e-10)
    # brute-force 1-D grid around the closed-form answer
    grid = np.linspace(-10.0, 10.0, 200001)
    vals = np.abs(grid) / 1e4 + 0.5 * (grid - 2.5) ** 2
    best = grid[np.argmin(vals)]
    assert abs(best - soft_threshold(2.5, 1e-4)) <= 1e-4 + 1e-12


def test_update_core_full_shrinkage():
    rng = np.random.default_rng(10)
    x, cores, factors = make_instance(rng)
    config = SolverConfig(gamma=1e-3)  # tau = 1000 dwarfs every |alpha|
    out = update_core(x, cores, factors, None, config, 1)
    assert np.all(out == 0.0)


def test_tau_formula_default_parameters():
    config = SolverConfig()  # gamma=1e4, beta=1e-6
    tau = core_threshold(4.0, config)
    assert_allclose(tau, 1e-6 / (1e4 * (1e-6 + 8.0)), rtol=1e-15)
    assert_allclose(tau, 1.25e-11, rtol=1e-5)


def test_update_core_beats_bruteforce_grid():
    # the closed-form entry minimizes the scalar subproblem to one grid step
    rng = np.random.default_rng(11)
    x, cores, factors = make_instance(rng, m=4, noise=0.2)
    g = build_graph(x, k=2, strategy="heat_kernel", delta=40.0)
    config = SolverConfig(gamma=3.0, beta=0.7)
    i = 2
    d = sv.multi_mode_product(x[i], factors.as_list(), transpose=True)
    out = update_core(x, cores, factors, g, config, i)
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
    flat_cores = cores.reshape(4, -1)
    w = g.w
    for pos in rng.choice(d.size, size=12, replace=False):
        neighbors = [(w[i, j], flat_cores[j, pos]) for j in range(4) if w[i, j] != 0.0]
        f = lambda t: scalar_core_objective(t, d.ravel()[pos], neighbors,
                                            config.beta, config.gamma)
        closed = out.ravel()[pos]
        best_grid = f(grid).min()
        assert f(closed) <= best_grid + 1e-12 + abs(best_grid) * 1e-12


def test_core_target_matches_dense_row_product():
    # neighbour-row prox against the soft-thresholded dense W-row product, on
    # a heat-kernel graph with an isolated sample, and on the zero graph
    rng = np.random.default_rng(32)
    x, cores, factors = make_instance(rng, m=7, noise=0.2)
    w = build_graph(x, k=2, strategy="heat_kernel", delta=30.0).w
    w[3, :] = w[:, 3] = 0.0
    config = SolverConfig(gamma=2.0, beta=0.4)
    d = sv.multi_mode_product(x, factors.as_list(), modes=(1, 2, 3), transpose=True)
    flat = cores.reshape(7, -1)
    for graph_w in (w, zero_graph(7).w):
        g = from_dense(graph_w)
        got = np.empty_like(flat)
        sequential_core_sweep(g, config.beta * d.reshape(7, -1), flat, got, config)
        for i in range(7):
            s_i = graph_w[i].sum()
            dense = (config.beta * d[i] + 2.0 * np.tensordot(graph_w[i], cores, axes=(0, 0))
                     ) / (config.beta + 2.0 * s_i)
            dense = soft_threshold(dense, core_threshold(s_i, config))
            assert_allclose(got[i], dense.ravel(), rtol=1e-12, atol=1e-12 * np.abs(dense).max())
            if not graph_w[i].any():
                assert i not in g.rows


@st.composite
def prox_cases(draw):
    """(d_i, flat cores, neighbour indices, weights, config) for core 0 of up to
    6 cores of 1-8 entries; the neighbour set may be empty (an isolated sample)."""
    m, p = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entries = st.floats(-10.0, 10.0)
    d = draw(hnp.arrays(np.float64, p, elements=entries))
    flat = draw(hnp.arrays(np.float64, (m, p), elements=entries))
    idx = np.array(draw(st.lists(st.integers(1, m - 1), unique=True, max_size=m - 1))
                   if m > 1 else [], dtype=np.intp)
    wts = np.array([draw(st.floats(1e-3, 1.0)) for _ in idx])
    config = SolverConfig(gamma=draw(st.floats(1e-2, 1e4)), beta=draw(st.floats(1e-6, 10.0)))
    return d, flat, idx, wts, config


@given(prox_cases())
@example((np.array([2.5, -1e-5, 0.0]), np.ones((3, 3)), np.array([], dtype=np.intp),
          np.array([]), SolverConfig()))
def test_core_prox_satisfies_subgradient_optimality(case):
    # 0 is in the subdifferential of (1/gamma)|g|_1 + (1/2)||g - d||^2
    # + (1/beta) sum_j w_j ||g - g_j||^2 at g = core_prox(...), term by term
    d, flat, idx, wts, config = case
    s_i = float(wts.sum())
    g = np.empty_like(d)
    core_prox(config.beta * d, flat, (idx, wts), config.beta + 2.0 * s_i,
              core_threshold(s_i, config), g)
    grad = g - d + sum(2.0 * w * (g - flat[j]) for j, w in zip(idx, wts)) / config.beta
    scale = 1.0 + np.abs(d).max() + np.abs(flat).max()
    tol = 64 * np.finfo(float).eps * scale * (1.0 + 2.0 * s_i / config.beta)
    nz = g != 0.0
    assert np.all(np.abs(grad[nz] + np.sign(g[nz]) / config.gamma) <= tol)
    assert np.all(np.abs(grad[~nz]) <= 1.0 / config.gamma + tol)


def test_core_residual_is_distance_to_update_core():
    # stationarity_residual's core residual and update_core share one prox:
    # at a non-stationary point, residual i == ||G_i - update_core(..., i)||
    rng = np.random.default_rng(33)
    x, cores, factors = make_instance(rng, m=7, noise=0.2)
    cores = cores + 0.5 * rng.standard_normal(cores.shape)
    w = build_graph(x, k=2, strategy="heat_kernel", delta=30.0).w
    w[3, :] = w[:, 3] = 0.0
    g = from_dense(w, k=2, strategy="heat_kernel", delta=30.0)
    config = SolverConfig(gamma=2.0, beta=0.4)
    _, cr = stationarity_residual(x, cores, factors, g, config)
    assert cr.min() > 1e-3
    for i in range(7):
        moved = np.linalg.norm(cores[i] - update_core(x, cores, factors, g, config, i))
        assert abs(cr[i] - moved) <= 1e-12 * (1.0 + np.linalg.norm(cores[i]))


def test_update_core_without_graph_is_zero_graph():
    rng = np.random.default_rng(34)
    x, cores, factors = make_instance(rng, m=4, noise=0.2)
    config = SolverConfig(gamma=2.0, beta=0.4)
    for i in range(4):
        assert np.array_equal(update_core(x, cores, factors, None, config, i),
                              update_core(x, cores, factors, zero_graph(4), config, i))


def test_update_core_gauss_seidel_uses_current_values():
    # moving a neighbor core moves the update (the 2*sum(w G) term is live)
    rng = np.random.default_rng(12)
    x, cores, factors = make_instance(rng, m=2)
    g = from_dense([[0.0, 1.0], [1.0, 0.0]])
    config = SolverConfig(gamma=10.0, beta=0.5)
    out1 = update_core(x, cores, factors, g, config, 0)
    shifted = cores.copy()
    shifted[1] += 1.0
    out2 = update_core(x, shifted, factors, g, config, 0)
    assert np.linalg.norm(out1 - out2) > 1e-6


# ------------------------------------------------------------ grouped sweep

@st.composite
def sweep_cases(draw):
    """(graph, beta D, flat cores, config) on 1-12 samples with cores of 1-5 entries:
    the empty graph, the path 0-1-...-M-1, a star, the complete graph, or heat-like
    weights on a random pattern, with or without isolated rows."""
    m, p = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["empty", "path", "star", "complete", "isolated", "heat"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.zeros((m, m))
    if kind == "path":
        w[np.arange(m - 1), np.arange(1, m)] = 1.0
    elif kind == "star":
        c = rng.integers(m)
        w[c] = w[:, c] = 1.0
    elif kind == "complete":
        w[:] = 1.0
    elif kind != "empty":
        pts = rng.standard_normal((m, 2))
        w = np.exp(-np.square(pts[:, None] - pts).sum(axis=2)) * (rng.random((m, m)) < 0.5)
    w = np.triu(w, 1)
    w += w.T
    if kind == "isolated":
        lone = rng.random(m) < 0.3
        w[lone] = w[:, lone] = 0.0
    config = SolverConfig(gamma=draw(st.floats(1e-2, 1e4)), beta=draw(st.floats(1e-6, 10.0)))
    return (from_dense(w), rng.standard_normal((m, p)), rng.standard_normal((m, p)),
            config)


def assert_slab_schedule(slabs, g, level) -> np.ndarray:
    """Each row in exactly one slab, one level per slab, runs that tile their slab
    with one degree each; returns each row's slab number."""
    slab_of = np.full(g.m, -1)
    deg = np.bincount(g.rows, minlength=g.m)
    for n, (rows, runs, _, _) in enumerate(slabs):
        assert np.all(slab_of[rows] == -1)
        slab_of[rows] = n
        assert np.all(level[rows] == level[rows[0]])
        assert [r[0] for r in runs] == [0] + [r[1] for r in runs[:-1]]
        assert runs[-1][1] == len(rows)
        for a, b, idx, _ in runs:
            assert np.all(deg[rows[a:b]] == idx.shape[-1])
    assert np.all(slab_of >= 0)
    return slab_of


@given(sweep_cases())
def test_grouped_sweep_is_the_sequential_sweep(case):
    # the level schedule covers each row once, one level per slab and one degree
    # per run, and puts every edge's lower end in an earlier slab (so no edge
    # inside a slab); its Gauss-Seidel sweep, and the residual's all-level-0 map,
    # are bitwise those of the sequential per-row sweep
    g, bd, flat, config = case
    level = sv._levels(g)
    slabs = sv._core_groups(g, level, config, flat.shape[1])
    slab_of = assert_slab_schedule(slabs, g, level)
    i, j, _ = g.edges()
    assert np.all(slab_of[i] < slab_of[j])
    got, want = flat.copy(), flat.copy()
    sv._core_sweep(slabs, bd, got, got)
    sequential_core_sweep(g, bd, want, want, config)
    assert got.tobytes() == want.tobytes()
    level0 = sv._core_groups(g, 0, config, flat.shape[1])
    assert_slab_schedule(level0, g, np.zeros(g.m, dtype=int))
    got, want = np.empty_like(flat), np.empty_like(flat)
    sv._core_sweep(level0, bd, flat, got)
    sequential_core_sweep(g, bd, flat, want, config)
    assert got.tobytes() == want.tobytes()


@given(sweep_cases())
def test_levels_are_the_per_edge_definition(case):
    # the 64-row blocked levels equal the per-edge definition on every sweep case's graph
    g = case[0]
    assert_array_equal(sv._levels(g), edge_levels(g))


@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("workload", sorted(WORKLOAD_SPECS))
def test_levels_on_workload_graphs_are_the_per_edge_definition(workload, seed):
    # the workloads' graphs at their degree and weights (M = 24 to 1000, so one to
    # sixteen 64-row blocks): levels equal the per-edge definition's
    spec, k, strategy = WORKLOAD_SPECS[workload]
    g = build_graph(generate(SynthSpec(**spec, seed=seed))[0], k, strategy)
    assert_array_equal(sv._levels(g), edge_levels(g))


def test_zero_graph_sweep_is_one_batched_group_of_degree_0():
    # every row in one slab of one run whose batched product of empty rows gives
    # the row path's zeros: the sweep is bitwise the sequential one
    rng = np.random.default_rng(37)
    g, config = zero_graph(5), SolverConfig(beta=0.5)
    bd, flat = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    (slab,) = sv._core_groups(g, sv._levels(g), config, 3)
    assert_array_equal(slab[0], np.arange(5))
    (run,) = slab[1]
    assert run[:2] == (0, 5) and run[2].shape == (5, 0)
    want = flat.copy()
    sv._core_sweep([slab], bd, flat, flat)
    sequential_core_sweep(g, bd, want, want, config)
    assert flat.tobytes() == want.tobytes()


def test_gauss_seidel_sweep_works_in_slabs():
    # on a 4-regular bipartite graph of M=4000 samples (two levels) with 150-entry
    # cores (4.8 MB each for the cores and beta D), the level sweep's traced peak
    # is its ~256 KB slab buffer beside one run's ~1 MB gather of neighbour cores,
    # never a stack-sized array, and the sweep is bitwise the sequential one
    m, p = 4000, 150
    h = m // 2
    i = np.repeat(np.arange(h), 4)
    j = h + (i + np.tile(np.arange(4), h)) % h
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    o = np.lexsort((cols, rows))
    g = WeightGraph(m=m, rows=rows[o], cols=cols[o], vals=np.ones(4 * m), k=4,
                    strategy="binary")
    config = SolverConfig(beta=0.5)
    rng = np.random.default_rng(38)
    bd, flat = rng.standard_normal((m, p)), rng.standard_normal((m, p))
    slabs = sv._core_groups(g, sv._levels(g), config, p)
    assert len(slabs) < m // 100
    want = flat.copy()
    tracemalloc.start()
    try:
        sv._core_sweep(slabs, bd, flat, flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (sv._CACHE_FLOATS + tensor._CHUNK_FLOATS) + 2 ** 14, peak
    sequential_core_sweep(g, bd, want, want, config)
    assert flat.tobytes() == want.tobytes()


def test_residual_gathers_neighbours_in_slabs():
    # on a 4-regular ring of M=4000 samples every row has degree 4: the residual's
    # one degree group gathers its (M, 4, P) neighbour cores ~1 MB at a time, so
    # the traced peak stays below the stack plus 3 M x P arrays (7.2 gathered
    # whole), and its core residuals are bitwise the sequential sweep's
    m = 4000
    rng = np.random.default_rng(36)
    x, cores, factors = make_instance(rng, m=m, shape=(4, 4, 3), ranks=(4, 4, 3), noise=0.1)
    cols = np.sort((np.arange(m)[:, None] + [-2, -1, 1, 2]) % m, axis=1).ravel()
    g = WeightGraph(m=m, rows=np.repeat(np.arange(m), 4), cols=cols, vals=np.ones(4 * m),
                    k=2, strategy="binary")
    config = SolverConfig(beta=0.5)
    tracemalloc.start()
    try:
        _, core_res = stationarity_residual(x, cores, factors, g, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + 3 * cores.nbytes, (peak - x.nbytes) / cores.nbytes
    flat = cores.reshape(m, -1)
    d = sv.multi_mode_product(x, factors, modes=(1, 2, 3), transpose=True).reshape(m, -1)
    fixed = np.empty_like(flat)
    sequential_core_sweep(g, config.beta * d, flat, fixed, config)
    assert core_res.tobytes() == np.linalg.norm(flat - fixed, axis=1).tobytes()


# -------------------------------------------------------------------- solve

def test_solve_zeta_huge_stops_after_one_iteration():
    rng = np.random.default_rng(14)
    x, _, _ = make_instance(rng, noise=0.3)
    res = solve(x, None, (3, 2, 4), SolverConfig(zeta=1e12))
    assert res.n_iter == 1 and res.stop_reason == "converged"


def test_solve_noiseless_recovery():
    rng = np.random.default_rng(15)
    factors = random_factors(rng, (8, 7, 5), (3, 3, 4))
    cores = rng.standard_normal((4, 3, 3, 4))
    cores[np.abs(cores) < 0.7] = 0.0  # sparse ground truth
    x = reconstruct(cores, factors)
    res = solve(x, None, (3, 3, 4), SolverConfig(gamma=1e8, zeta=1e-10))
    re = np.linalg.norm(x - reconstruct(res.cores, res.factors)) / np.linalg.norm(x)
    assert re <= 1e-3


def test_solve_monotone_and_sufficient_decrease():
    rng = np.random.default_rng(16)
    for seed in range(5):
        x, _, _ = make_instance(np.random.default_rng(seed), m=5, noise=0.2)
        g = build_graph(x, k=2)
        res = solve(x, g, (3, 2, 4), SolverConfig(zeta=1e-8, max_iter=40))
        objs = res.trace.objectives()
        l0 = objs[0]
        assert np.all(np.diff(objs) <= 1e-12 * max(1.0, l0))
        for rec in res.trace.records[1:]:
            assert rec.decrease_slack >= -1e-10 * max(1.0, l0)


def test_solve_orthogonality_every_iteration():
    # re-run the sweep manually, asserting the Stiefel defect at each boundary
    rng = np.random.default_rng(17)
    x, _, _ = make_instance(rng, m=4, noise=0.3)
    g = build_graph(x, k=2)
    config = SolverConfig()
    factors, cores = init_state(x, (3, 2, 4))
    for _ in range(10):
        for n in range(3):
            factors = factors._replace(**{f"u{n + 1}": update_factor(x, cores, factors, n)})
        for i in range(4):
            cores[i] = update_core(x, cores, factors, g, config, i)
        assert factors.orthogonality_defect() <= 1e-10


def test_solve_core_stability_sum_bounded():
    # telescoping: sum_k (1/2 + min_i s_i / beta) ||dG||^2 <= L_0
    rng = np.random.default_rng(18)
    x, _, _ = make_instance(rng, m=5, noise=0.5)
    g = build_graph(x, k=2)
    config = SolverConfig(beta=0.5, zeta=1e-10, max_iter=60)
    res = solve(x, g, (3, 2, 4), config)
    factors, cores = init_state(x, (3, 2, 4))
    l0, *_ = objective(x, cores, factors, g, config)
    coef = 0.5 + float(g.row_sums().min()) / config.beta
    moves = 0.0
    prev = cores.copy()
    # replay the solve to accumulate successive-core movement
    for _ in range(res.n_iter):
        for n in range(3):
            factors = factors._replace(**{f"u{n + 1}": update_factor(x, cores, factors, n)})
        for i in range(5):
            cores[i] = update_core(x, cores, factors, g, config, i)
        moves += np.linalg.norm(cores - prev) ** 2
        prev = cores.copy()
    assert coef * moves <= l0 * (1.0 + 1e-8)
    late = [np.linalg.norm(res.cores - prev)]
    assert late[0] <= 1e-6 * max(1.0, np.linalg.norm(res.cores))


def test_solve_trace_fields_consistent():
    rng = np.random.default_rng(19)
    x, _, _ = make_instance(rng, m=3, noise=0.2)
    res = solve(x, None, (3, 2, 4), SolverConfig(zeta=1e-6, max_iter=30))
    for rec in res.trace.records:
        assert_allclose(rec.objective, rec.l1_term + rec.fit_term + rec.manifold_term,
                        rtol=1e-12)
        assert 0.0 <= rec.sparsity <= 1.0
        assert rec.wall_ms >= 0.0
        phases = [rec.t_factor_ms, rec.t_core_ms, rec.t_eval_ms, rec.t_other_ms]
        assert min(phases) >= 0.0
        assert_allclose(sum(phases), rec.wall_ms, rtol=1e-12)
    assert res.trace.records[-1].iteration == res.n_iter


def test_solve_input_validation():
    with pytest.raises(ValueError):
        solve(np.zeros((3, 3, 3)), None, (2, 2, 2))          # not a 4-way stack
    with pytest.raises(ValueError):
        solve(np.zeros((2, 3, 3, 3)), None, (4, 2, 2))       # rank > extent
    # two ranks, four, a fractional one and a bool (once run as R1 = 1): none is read as
    # three ranks
    for ranks in [(2, 2), (2, 2, 3, 1), (2.7, 2, 3), (True, 2, 3)]:
        with pytest.raises(ValueError, match="three integers"):
            solve(np.ones((2, 3, 3, 3)), None, ranks)
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(zeta=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    # a bool or a string is not a weight or an accuracy: each names its field
    for field, bad in [("gamma", True), ("zeta", True), ("beta", "1")]:
        with pytest.raises(ValueError, match=f"{field} must be a positive number"):
            SolverConfig(**{field: bad})
    # a fractional sweep count and a bool are not sweep counts; a numpy integer is
    for max_iter in (2.5, True):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(max_iter=max_iter)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3
    # beta = inf would give tau = inf / inf; gamma = inf is the no-l1 limit
    with pytest.raises(ValueError, match="beta finite"):
        SolverConfig(beta=np.inf)
    SolverConfig(gamma=np.inf)


@pytest.mark.parametrize("fault, bad", [("nan", [3]), ("inf", [3]),
                                        ("scale", [0, 1, 2, 3, 4, 5])])
def test_solve_rejects_non_finite_input_early(fault, bad):
    # NaN, inf and data whose ||X||^2 overflows fail before init_state: no
    # RuntimeWarning, one ValueError naming the offending samples; objective and
    # stationarity_residual check the stack the same way, before any arithmetic
    x, _ = generate(SynthSpec(m=6, shape=(6, 5, 4), ranks=(2, 2, 4), n_clusters=2))
    factors, cores = init_state(x, (2, 2, 4))
    if fault == "scale":
        x = x * 1e200
    else:
        x[3, 1, 2, 0] = np.nan if fault == "nan" else np.inf
    config = SolverConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: solve(x, None, (2, 2, 4)),
                     lambda: objective(x, cores, factors, None, config),
                     lambda: stationarity_residual(x, cores, factors, None, config)):
            with pytest.raises(ValueError, match=rf"at samples \{bad}"):
                call()


@pytest.mark.parametrize("where", ["cores", "U2", "cores, U2"])
def test_non_finite_cores_or_factors_are_rejected(where):
    # a NaN in core 4, an inf in U_2, or both: objective, stationarity_residual and
    # evaluate raise one ValueError naming them, with no RuntimeWarning, nan terms or
    # blame on the factor update
    x, _ = generate(SynthSpec(m=12))
    g = build_graph(x, k=3)
    factors, cores = init_state(x, (5, 5, 6))
    if "cores" in where:
        cores[4, 1, 0, 2] = np.nan
    if "U2" in where:
        u2 = factors.u2.copy()
        u2[3, 1] = np.inf
        factors = factors._replace(u2=u2)
    config = SolverConfig()
    msg = rf"^non-finite entries \(NaN or inf\) in {where}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: objective(x, cores, factors, g, config),
                     lambda: stationarity_residual(x, cores, factors, g, config),
                     lambda: evaluate(x, cores, factors, k=3)):
            with pytest.raises(ValueError, match=msg):
                call()


def test_factor_residuals_scale_exactly_where_their_squares_overflow():
    # samples and cores x 2^260 scale every factor residual by exactly 2^520, with no
    # overflow warning although the squares of the gradient entries overflow
    x, _ = generate(SynthSpec(seed=0))
    g, config = build_graph(x, k=4), SolverConfig(max_iter=2)
    res = solve(x, g, (5, 5, 6), config)
    want = stationarity_residual(x, res.cores, res.factors, g, config)[0] * 2.0 ** 520
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stationarity_residual(x * 2.0 ** 260, res.cores * 2.0 ** 260, res.factors, g,
                                    config)[0]
    assert_array_equal(got, want)


def test_solver_config_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == \
        ["gamma", "beta", "zeta", "max_iter"]


def test_solve_deterministic_reruns_bit_identical():
    rng = np.random.default_rng(20)
    x, _, _ = make_instance(rng, m=3, noise=0.2)
    g = build_graph(x, k=1)
    r1 = solve(x, g, (3, 2, 4), SolverConfig(zeta=1e-6))
    r2 = solve(x, g, (3, 2, 4), SolverConfig(zeta=1e-6))
    assert np.array_equal(r1.cores, r2.cores)
    for a, b in zip(r1.factors.as_list(), r2.factors.as_list()):
        assert np.array_equal(a, b)


def test_solve_does_not_stall_above_generator_point():
    # unit-normalised default instances: the final L must come within 1.5x of
    # the generator's factors with per-cluster-mean cores (the cluster means of
    # the data projected onto those factors). A random Stiefel start ends
    # 14-19x above that point: the core sweep moves each graph component's
    # consensus by only beta / (beta + 2 s_i) of its gap per sweep.
    for seed in range(5):
        x, truth = generate(SynthSpec(seed=seed))
        x = x / np.linalg.norm(x)
        g = build_graph(x, k=4)
        config = SolverConfig()
        res = solve(x, g, (5, 5, 6), config)
        d = sv.multi_mode_product(x, truth.factors.as_list(), modes=(1, 2, 3),
                                  transpose=True)
        ref_cores = np.empty_like(d)
        for c in np.unique(truth.labels):
            ref_cores[truth.labels == c] = d[truth.labels == c].mean(axis=0)
        ref, *_ = objective(x, ref_cores, truth.factors, g, config)
        assert res.trace.records[-1].objective <= 1.5 * ref


@pytest.mark.parametrize("seed, ranks", [(0, (5, 5, 6)), (1, (16, 16, 6)), (2, (1, 1, 1)),
                                         (3, (16, 5, 6)), (4, (3, 16, 2))])
def test_init_state_is_the_per_mode_loop(seed, ranks):
    # the start walks the sweep's projections and gives the per-mode loop's bits
    x, _ = generate(SynthSpec(seed=seed))
    factors, cores = init_state(x, ranks)
    want_factors, want_cores = loop_init_state(x, ranks)
    for got, want in zip(factors, want_factors):
        assert_array_equal(got, want)
    assert_array_equal(cores, want_cores)
    assert cores.flags.c_contiguous


@pytest.mark.parametrize("ranks", [(30, 5, 6), (5, 5), (5.5, 5, 6)])
def test_init_state_rejects_bad_ranks(ranks):
    # a rank above its extent, two ranks and a fractional one: init_state, which reads
    # the ranks, rejects them instead of returning a 16 x 16 U_1 for rank 30
    x, _ = generate(SynthSpec(m=12, seed=0))
    with pytest.raises(ValueError, match=r"three integers within extents \(16, 16, 6\)"):
        init_state(x, ranks)


def test_init_state_does_not_collide_with_generator_seed():
    # the start must not hand back a data generator's factors drawn with the
    # same integer seed and call pattern; the HOSVD start spans their
    # subspace here but in the data's own singular basis
    rng = np.random.default_rng(0)
    truth = random_factors(rng, (6, 5, 4), (3, 2, 4))
    x = reconstruct(np.random.default_rng(0).standard_normal((2, 3, 2, 4)), truth)
    factors, _ = init_state(x, (3, 2, 4))
    assert np.linalg.norm(factors.u1 - truth.u1) > 1e-3


@pytest.mark.parametrize("setup", [lambda x: init_state(x, (5, 5, 6)), select_ranks],
                         ids=["init_state", "select_ranks"])
def test_setup_peak_memory_below_half_a_stack(setup):
    # the mode Grams accumulate without a copy of the stack: on M=200 samples
    # of 24x24x8 (~7 slabs of ~1 MB) the traced peak stays below half the stack
    x = np.random.default_rng(0).standard_normal((200, 24, 24, 8))
    tracemalloc.start()
    try:
        setup(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * x.nbytes, peak / x.nbytes


# ------------------------------------------------------------- stationarity

def test_stationarity_zero_at_constructed_fixed_point():
    # noiseless exact factorization with gamma large: one sweep lands on a
    # fixed point of both block updates
    rng = np.random.default_rng(21)
    factors = random_factors(rng, (6, 5, 4), (3, 2, 4))
    cores = rng.standard_normal((3, 3, 2, 4))
    x = reconstruct(cores, factors)
    config = SolverConfig(gamma=1e15, zeta=1e-13)
    res = solve(x, None, (3, 2, 4), config)
    fr, cr = stationarity_residual(x, res.cores, res.factors, None, config)
    assert np.all(fr <= 1e-10) and np.all(cr <= 1e-10)


def test_stationarity_large_at_random_point():
    rng = np.random.default_rng(22)
    x, _, _ = make_instance(rng, m=3, noise=0.2)
    factors = random_factors(rng, (6, 5, 4), (3, 2, 4))
    cores = rng.standard_normal((3, 3, 2, 4))
    fr, cr = stationarity_residual(x, cores, factors, None, SolverConfig())
    assert max(fr.max(), cr.max()) > 1e-3


def test_stationarity_factor_gradient_matches_finite_difference():
    # directional derivative of the fit term along a tangent direction
    rng = np.random.default_rng(23)
    x, cores, factors = make_instance(rng, m=2, noise=0.4)
    n = 0
    u = factors.u1
    mats = factors.as_list()
    other = [k for k in range(3) if k != n]
    phi = sv.multi_mode_product(cores, [mats[k] for k in other],
                                modes=[k + 1 for k in other])
    ps = tensor.unfold(phi, n + 1)
    xs = tensor.unfold(x, n + 1)
    grad = -(xs - u @ ps) @ ps.T

    def fit_at(mat):
        f = FactorSet(mat, factors.u2, factors.u3)
        r = x - reconstruct(cores, f)
        return 0.5 * float(np.dot(r.ravel(), r.ravel()))

    h = 1e-6
    direction = rng.standard_normal(u.shape)
    fd = (fit_at(u + h * direction) - fit_at(u - h * direction)) / (2 * h)
    assert_allclose(fd, float(np.tensordot(grad, direction)), rtol=1e-4)


def test_factor_residual_matches_data_space_form():
    # ||U sym(U^T B) - B||, the tangent part of -B alone, against the tangent part of the
    # whole data-space gradient -(X_(n) - U Phi_(n)) Phi_(n)^T, whose U Phi_(n) Phi_(n)^T
    # term the projection removes, at the solver's output: on the paper-size instance
    # family, with R_n = I_n (U_n square) in mode 1 or 2, and on one 48x48x8 instance
    instances = ([(SynthSpec(seed=seed), None) for seed in range(20)]
                 + [(SynthSpec(seed=3), ranks) for ranks in SWEEP_RANKS[1:]]
                 + [(SynthSpec(m=24, shape=(48, 48, 8), ranks=(10, 10, 8)), None)])
    for spec, ranks in instances:
        x, _ = generate(spec)
        g = build_graph(x, k=4)
        config = SolverConfig()
        res = solve(x, g, select_ranks(x) if ranks is None else ranks, config)
        fr, _ = stationarity_residual(x, res.cores, res.factors, g, config)
        mats = res.factors.as_list()
        for n, u in enumerate(mats):
            other = [k for k in range(3) if k != n]
            phi = sv.multi_mode_product(res.cores, [mats[k] for k in other],
                                        modes=[k + 1 for k in other])
            ps = tensor.unfold(phi, n + 1)
            grad = -(tensor.unfold(x, n + 1) - u @ ps) @ ps.T
            utg = u.T @ grad
            expected = np.linalg.norm(grad - u @ (0.5 * (utg + utg.T)))
            assert abs(fr[n] - expected) <= 1e-9


# ----------------------------------------------------------- relative error

def test_relative_error_cases():
    # RE against explicit reconstructions: U_n kept (U_new = U_old), modes with
    # 2 R_n >= I_n and with R_n = I_n (old factors inside the new span), modes
    # with 2 R_n < I_n, and norm_x = 0
    rng = np.random.default_rng(24)
    for shape, ranks in [((9, 8, 7), (2, 3, 3)), ((9, 5, 4), (3, 3, 4)), ((3, 4, 2), (3, 4, 2))]:
        f0, f1 = random_factors(rng, shape, ranks), random_factors(rng, shape, ranks)
        c0, c1 = rng.standard_normal((2, 5) + ranks)
        norm_x = 2.0 * np.linalg.norm(reconstruct(c0, f0))
        for prev in (f0, FactorSet(f1.u1, f0.u2, f1.u3), f1):
            expected = np.linalg.norm(reconstruct(c1, f1) - reconstruct(c0, prev)) / norm_x
            assert_allclose(relative_error(c0, prev, c1, f1, norm_x), expected, rtol=1e-12)
        assert relative_error(c1, f1, c1, f1, norm_x) <= 1e-15
        assert relative_error(c0, f0, c1, f1, 0.0) == 0.0


@pytest.mark.filterwarnings("error")
def test_relative_error_of_finite_states_past_float64_is_a_value_error():
    # finite states whose distance squares past float64: neither a warning nor an inf
    rng = np.random.default_rng(26)
    f = random_factors(rng, (5, 4, 3), (2, 2, 3))
    c = rng.standard_normal((3, 2, 2, 3)) * 1e200
    with pytest.raises(ValueError, match="relative error of finite states is"):
        relative_error(c, f, -c, f, 1.0)


def skew_rotation(rng, n, eps):
    """exp(eps K) for a random skew K of unit Frobenius norm, by its Taylor series
    (terms past the 20th are below 1e-60 for eps <= 1e-2)."""
    k = rng.standard_normal((n, n))
    k = (k - k.T) / max(np.linalg.norm(k - k.T), 1e-300)
    out, term = np.eye(n), np.eye(n)
    for j in range(1, 21):
        term = term @ (eps * k) / j
        out = out + term
    return out


def longdouble_distance(c0, f0, c1, f1) -> float:
    """||X_hat_1 - X_hat_0||_F from reconstructions formed in np.longdouble."""
    def rec(c, f):
        return np.einsum("mabc,ia,jb,kc->mijk", *(np.asarray(a, np.longdouble) for a in (c, *f)))
    d = rec(c1, f1) - rec(c0, f0)
    return float(np.sqrt(np.sum(d * d)))


@st.composite
def re_cases(draw):
    """(prev cores, prev factors, cores, factors) of 1-4 samples: each mode has
    2 R_n < I_n, 2 R_n >= I_n or R_n = I_n, and the old state is drawn on its own,
    is the new one, or is one rotation exp(eps K_n) per mode and a core step eps away."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 4))
    modes = [draw(st.sampled_from([(7, 2), (6, 3), (5, 3), (4, 4), (3, 3), (2, 1)]))
             for _ in range(3)]
    shape, ranks = tuple(i for i, _ in modes), tuple(r for _, r in modes)
    f1 = random_factors(rng, shape, ranks)
    c1 = rng.standard_normal((m,) + ranks)
    kind = draw(st.sampled_from(["independent", "identical", 1e-2, 1e-6, 1e-10]))
    if kind == "independent":
        return rng.standard_normal(c1.shape), random_factors(rng, shape, ranks), c1, f1
    if kind == "identical":
        return c1.copy(), f1, c1, f1
    f0 = FactorSet(*[skew_rotation(rng, len(u), kind) @ u for u in f1])
    return c1 + kind * rng.standard_normal(c1.shape), f0, c1, f1


@given(re_cases())
def test_relative_error_matches_joint_span_and_longdouble(case):
    # the core-size split V_n = U_n A_n + E_n against the joint-span QR oracle and an
    # explicit longdouble reconstruction, within 1e-14 of the states' scale
    # ||X_hat_0|| + ||X_hat_1|| in absolute terms (RE itself may be ~1e-10 of it)
    c0, f0, c1, f1 = case
    scale = float(np.linalg.norm(c0) + np.linalg.norm(c1))
    got = relative_error(c0, f0, c1, f1, scale)
    assert abs(got - joint_span_relative_error(c0, f0, c1, f1, scale)) <= 1e-14
    assert abs(got - longdouble_distance(c0, f0, c1, f1) / scale) <= 1e-14


def test_relative_error_with_a_square_factor():
    # U_3 square and V_3 = U_3 Q: E_3 = 0 and its Gram is not formed, against both oracles;
    # modes 1 and 2 drawn on their own
    rng = np.random.default_rng(27)
    shape, ranks = (7, 6, 4), (2, 3, 4)
    f1 = random_factors(rng, shape, ranks)
    f0 = FactorSet(*random_factors(rng, shape, ranks)[:2], f1.u3 @ qf(rng.standard_normal((4, 4))))
    c0, c1 = rng.standard_normal((2, 3) + ranks)
    scale = float(np.linalg.norm(c0) + np.linalg.norm(c1))
    got = relative_error(c0, f0, c1, f1, scale)
    assert abs(got - joint_span_relative_error(c0, f0, c1, f1, scale)) <= 1e-14
    assert abs(got - longdouble_distance(c0, f0, c1, f1) / scale) <= 1e-14


def test_relative_error_forms_nothing_of_stack_size():
    # with 2 R_n < I_n in every mode the joint span of U_new and U_old has 8 core
    # stacks of entries, and the stacked reconstructions 32,000 / 18 times more: the
    # split forms a few small matrices and two arrays of the core stack's size
    rng = np.random.default_rng(25)
    shape, ranks = (40, 40, 20), (3, 3, 2)
    f0, f1 = random_factors(rng, shape, ranks), random_factors(rng, shape, ranks)
    c0, c1 = rng.standard_normal((2, 60) + ranks)
    tracemalloc.start()
    try:
        relative_error(c0, f0, c1, f1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * c0.nbytes


# ---------------------------------------------------------------- fit term

def test_fit_from_d_matches_chunked_exact_fit():
    # (1/2)(||X||^2 - ||D||^2) + (1/2)||D - G||^2 against the reconstruction,
    # within its rounding bound 8 eps ||X||^2, on data far from and at a fit
    rng = np.random.default_rng(26)
    for noise in (0.5, 0.0):
        x, cores, factors = make_instance(rng, m=9, shape=(9, 8, 5), ranks=(3, 2, 4),
                                          noise=noise)
        moved = cores + 0.1 * rng.standard_normal(cores.shape)
        d = sv.multi_mode_product(x, factors, modes=(1, 2, 3), transpose=True)
        sq_norm_x = float(np.vdot(x, x))
        exact = sv._fit(x, moved, factors)
        assert_allclose(exact, 0.5 * np.linalg.norm(x - reconstruct(moved, factors)) ** 2,
                        rtol=1e-12)
        from_d = sv._fit_from_d(sq_norm_x, d.reshape(9, -1), moved.reshape(9, -1))
        assert abs(from_d - exact) <= 8 * np.finfo(float).eps * sq_norm_x


def test_solve_takes_the_fit_form_its_rounding_allows():
    # default data: L_0 dwarfs 8 eps ||X||^2 and the trace fit is the D form,
    # equal to the exact fit within that bound; noiseless data with W = 0 and
    # gamma = 1e12 (criterion 8) has L ~ 0, so every record's fit is exact
    eps = np.finfo(float).eps
    x, _ = generate(SynthSpec(seed=3))
    g = build_graph(x, k=4)
    config = SolverConfig(max_iter=3)
    res = solve(x, g, (5, 5, 6), config)
    sq_norm_x = float(np.vdot(x, x))
    exact = objective(x, res.cores, res.factors, g, config)
    assert 8 * eps * sq_norm_x <= 1e-15 * res.trace.records[0].objective
    assert abs(res.trace.records[-1].fit_term - exact[2]) <= 8 * eps * sq_norm_x
    assert_allclose(res.trace.records[-1].objective, exact[0], rtol=1e-12)

    x, _ = generate(SynthSpec(noise=0.0))
    config = SolverConfig(gamma=1e12, zeta=1e-12, max_iter=200)
    factors, cores = init_state(x, (5, 5, 6))
    l0 = objective(x, cores, factors, None, config)[0]
    assert 8 * eps * float(np.vdot(x, x)) > 1e-15 * max(1.0, l0)
    for max_iter in (1, 2):
        res = solve(x, None, (5, 5, 6), dataclasses.replace(config, max_iter=max_iter))
        assert res.trace.records[-1].fit_term == \
            objective(x, res.cores, res.factors, None, config)[2]


def test_solve_takes_the_exact_fit_only_where_the_guard_fails(monkeypatch):
    # D = G at the start, so L_0 comes from D as well: a default-data solve forms
    # no reconstruction for its fit, while the noiseless criterion-8 instance
    # (L ~ 0) takes the exact fit for L_0 and for every sweep
    calls = []
    exact_fit = sv._fit
    monkeypatch.setattr(sv, "_fit", lambda *args: calls.append(1) or exact_fit(*args))
    x, _ = generate(SynthSpec(seed=3))
    solve(x, build_graph(x, k=4), (5, 5, 6), SolverConfig(max_iter=3))
    assert calls == []
    x, _ = generate(SynthSpec(noise=0.0))
    res = solve(x, None, (5, 5, 6), SolverConfig(gamma=1e12, zeta=1e-12, max_iter=2))
    assert len(calls) == 1 + res.n_iter


def test_solve_peak_memory_below_two_stacks():
    # no stack-sized reconstruction in the sweep: a 3-sweep solve on M=40
    # samples of 24x24x8 traces less than twice the sample stack
    x, _ = generate(SynthSpec(m=40, shape=(24, 24, 8), ranks=(5, 5, 4), seed=0))
    g = build_graph(x, k=4)
    tracemalloc.start()
    try:
        solve(x, g, (5, 5, 4), SolverConfig(zeta=1e-15, max_iter=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.nbytes, peak / x.nbytes


# ------------------------------------------------------------- weight graph

def test_graph_free_solve_forms_no_m_by_m_array():
    # without a graph, zero_graph and a solve plus its residual each trace less
    # than one M x M double array, at M=2000 samples of 2x2x2
    m = 2000
    x = np.random.default_rng(35).standard_normal((m, 2, 2, 2))
    config = SolverConfig(max_iter=2)
    tracemalloc.start()
    try:
        zero_graph(m)
        peaks = [tracemalloc.get_traced_memory()[1]]
        tracemalloc.reset_peak()
        res = solve(x, None, (1, 2, 2), config)
        stationarity_residual(x, res.cores, res.factors, None, config)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 8 * m * m, [p / (8 * m * m) for p in peaks]


class EdgesOnlyGraph(WeightGraph):
    """A weight graph whose dense W cannot be read."""

    @property
    def w(self):
        raise AssertionError("dense W read")


def test_graph_consumers_read_only_the_edge_list(tmp_path):
    # a graph whose dense W raises passes through every consumer of a graph,
    # with the results of the graph build_graph made
    x, _ = generate(SynthSpec(m=30, seed=5))
    g = build_graph(x, k=4, strategy="heat_kernel", delta=50.0)
    h = EdgesOnlyGraph(g.m, g.rows, g.cols, g.vals, g.k, g.strategy, g.delta)
    config = SolverConfig(max_iter=3)
    res = solve(x, h, (5, 5, 6), config)
    assert_array_equal(res.cores, solve(x, g, (5, 5, 6), config).cores)
    args = (x, res.cores, res.factors)
    for a, b in zip(stationarity_residual(*args, h, config),
                    stationarity_residual(*args, g, config)):
        assert_array_equal(a, b)
    assert objective(*args, h, config) == objective(*args, g, config)
    assert_array_equal(update_core(*args, h, config, 7), update_core(*args, g, config, 7))
    save_edge_list(h, tmp_path / "h.csv")
    save_edge_list(g, tmp_path / "g.csv")
    assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()
