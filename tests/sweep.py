"""The sequential core sweep, for checking the solver's grouped one: each core
updated on its own, in sample order, by the solver's single-row prox."""

import numpy as np

import mrtucker.solver as sv


def sequential_core_sweep(graph, bd, src, dst, config) -> None:
    """Core i = 0, 1, ..., M-1 in turn from bd[i] = beta D^(i) and its neighbours'
    rows of src, written to dst[i]: the Gauss-Seidel sweep when dst is src, the
    stationarity residual's fixed-point map of src otherwise."""
    den, tau = sv._prox_coefs(graph.row_sums(), config)
    cuts = np.searchsorted(graph.rows, np.arange(graph.m + 1))
    for i in range(graph.m):
        e = slice(cuts[i], cuts[i + 1])
        sv._core_prox(bd[i], src, (graph.cols[e], graph.vals[e]), den[i], tau[i], dst[i])
