"""The sequential core sweep, for checking the solver's grouped one: each core
updated on its own, in sample order, by the solver's single-row prox; the
single-core update it repeats, formed from the samples; and the sweep's RE
column by QR in each mode's joint span, for checking the core-size one."""

import math

import numpy as np

import mrtucker.solver as sv
from mrtucker.graph import zero_graph
from mrtucker.tensor import _chunks, multi_mode_product


def sequential_core_sweep(graph, bd, src, dst, config) -> None:
    """Core i = 0, 1, ..., M-1 in turn from bd[i] = beta D^(i) and its neighbours'
    rows of src, written to dst[i]: the Gauss-Seidel sweep when dst is src, the
    stationarity residual's fixed-point map of src otherwise."""
    sums = graph.row_sums()
    den, tau = config.beta + 2.0 * sums, sv.core_threshold(sums, config)
    cuts = np.searchsorted(graph.rows, np.arange(graph.m + 1))
    for i in range(graph.m):
        e = slice(cuts[i], cuts[i + 1])
        sv._core_prox(bd[i], src, (graph.cols[e], graph.vals[e]), den[i], tau[i], dst[i])


def update_core(samples, cores, factors, graph, config, i) -> np.ndarray:
    """Closed-form Gauss-Seidel update of core i (cores j != i held at their
    current values), with D^(i) = X^(i) x_n U_n^T formed here."""
    samples, cores = sv._check_shapes(samples, cores, factors)
    d_i = multi_mode_product(samples[i], factors, transpose=True)
    graph = graph or zero_graph(samples.shape[0])
    lo, hi = np.searchsorted(graph.rows, [i, i + 1])
    s_i = graph.row_sums()[i]
    return sv._core_prox(config.beta * d_i.ravel(), cores.reshape(cores.shape[0], -1),
                         (graph.cols[lo:hi], graph.vals[lo:hi]), config.beta + 2.0 * s_i,
                         sv.core_threshold(s_i, config)).reshape(d_i.shape)


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
