"""The sequential core sweep, for checking the solver's grouped one: each core
updated on its own, in sample order, by the solver's single-row prox; and the
single-core update it repeats, formed from the samples."""

import numpy as np

import mrtucker.solver as sv
from mrtucker.graph import zero_graph
from mrtucker.tensor import multi_mode_product


def sequential_core_sweep(graph, bd, src, dst, config) -> None:
    """Core i = 0, 1, ..., M-1 in turn from bd[i] = beta D^(i) and its neighbours'
    rows of src, written to dst[i]: the Gauss-Seidel sweep when dst is src, the
    stationarity residual's fixed-point map of src otherwise."""
    den, tau = sv._prox_coefs(graph.row_sums(), config)
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
    return sv._core_prox(config.beta * d_i.ravel(), cores.reshape(cores.shape[0], -1),
                         (graph.cols[lo:hi], graph.vals[lo:hi]),
                         *sv._prox_coefs(graph.row_sums()[i], config)).reshape(d_i.shape)
