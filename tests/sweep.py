"""The sequential core sweep, for checking the solver's slab one: each core
updated on its own, in sample order, by the single-row prox on the solver's
elementwise part; the single-core update it repeats, formed from the samples;
the wavefront levels by their definition, one edge at a time, for checking the
blocked ones; the sweep's RE column by QR in each mode's joint span, for checking
the core-size one; and the HOSVD start as its own loop over the modes, for checking
the one that shares the sweep's projection walk."""

import math

import numpy as np

import mrtucker.solver as sv
from mrtucker.linalg import thin_svd
from mrtucker.tensor import _chunks, _mode_gram, mode_product, multi_mode_product


def core_prox(bd_i, flat_cores, neighbours, den_i, tau_i, out=None) -> np.ndarray:
    """Closed-form minimiser of core i's subproblem (cores j != i fixed), flat, into out:
    the row's (neighbour indices, weights) summed by one 1-D product, then the solver's
    elementwise part. out may be core i's own row, never its own neighbour."""
    idx, wts = neighbours
    return sv._prox_tail(np.matmul(wts, flat_cores[idx], out=out), bd_i, den_i, tau_i)


def sequential_core_sweep(graph, bd, src, dst, config) -> None:
    """Core i = 0, 1, ..., M-1 in turn from bd[i] = beta D^(i) and its neighbours'
    rows of src, written to dst[i]: the Gauss-Seidel sweep when dst is src, the
    stationarity residual's fixed-point map of src otherwise."""
    sums = graph.row_sums()
    den, tau = config.beta + 2.0 * sums, sv.core_threshold(sums, config)
    cuts = np.searchsorted(graph.rows, np.arange(graph.m + 1))
    for i in range(graph.m):
        e = slice(cuts[i], cuts[i + 1])
        core_prox(bd[i], src, (graph.cols[e], graph.vals[e]), den[i], tau[i], dst[i])


def update_core(samples, cores, factors, graph, config, i) -> np.ndarray:
    """Closed-form Gauss-Seidel update of core i (cores j != i held at their
    current values), with D^(i) = X^(i) x_n U_n^T formed here."""
    samples, _ = sv._sample_stack(samples)
    cores, graph = sv._check_shapes(samples, cores, factors, graph)
    d_i = multi_mode_product(samples[i], factors, transpose=True)
    lo, hi = np.searchsorted(graph.rows, [i, i + 1])
    s_i = graph.row_sums()[i]
    return core_prox(config.beta * d_i.ravel(), cores.reshape(cores.shape[0], -1),
                     (graph.cols[lo:hi], graph.vals[lo:hi]), config.beta + 2.0 * s_i,
                     sv.core_threshold(s_i, config)).reshape(d_i.shape)


def edge_levels(graph) -> np.ndarray:
    """Each row's wavefront level by its definition: level[i] = 1 + max level[j] over its
    neighbours j < i, or 0 without one, one edge at a time in row-major order (so each
    level[j], j < i, is final when row i reads it)."""
    level = np.zeros(graph.m, dtype=np.intp)
    for i, j in zip(graph.rows.tolist(), graph.cols.tolist()):
        if j < i:
            level[i] = max(level[i], level[j] + 1)
    return level


def joint_span_relative_error(prev_cores, prev_factors, cores, factors, norm_x) -> float:
    """relative_error in each mode's joint span: [U_n, U_n_prev] = Q_n R_n and the
    orthonormal Q_n leave the norm, so R_n's column blocks [R_11; 0] and R_12 replace
    the factors. The new state's core-sized reconstruction is subtracted from the
    leading block of the old one's, formed ~1 MB of the joint span at a time."""
    if not norm_x:
        return 0.0
    rs = [np.linalg.qr(np.hstack([u, v]), mode="r") for u, v in zip(factors, prev_factors)]
    new = [r[:u.shape[1], :u.shape[1]] for r, u in zip(rs, factors)]
    old = [r[:, u.shape[1]:] for r, u in zip(rs, factors)]
    lead = (slice(None),) + tuple(slice(u.shape[1]) for u in factors)
    sq = 0.0
    for s in _chunks(len(cores), math.prod(r.shape[0] for r in rs)):
        d = sv.reconstruct(prev_cores[s], old)
        d[lead] -= sv.reconstruct(cores[s], new)
        sq += float(np.vdot(d, d))
    return float(np.sqrt(sq) / norm_x)


def loop_init_state(samples, ranks):
    """(factors, cores) of the sequentially truncated HOSVD start: for each mode in turn,
    the leading R_n left singular vectors of the projected stack's mode Gram, and the
    stack then projected onto them."""
    projected, mats = np.asarray(samples, dtype=np.float64), []
    for n in range(3):
        mats.append(thin_svd(_mode_gram(projected, n + 1))[0][:, :ranks[n]])
        projected = mode_product(projected, mats[n].T, n + 1)
    return sv.FactorSet(*mats), np.ascontiguousarray(projected)
