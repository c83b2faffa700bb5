"""Weight graphs for the tests: a WeightGraph from a dense matrix, and the benchmark
workloads' graph settings."""

import numpy as np

from mrtucker import WeightGraph


def from_dense(w, k=1, strategy="binary", delta=None) -> WeightGraph:
    """The WeightGraph holding the nonzeros of the (M, M) matrix w, row-major."""
    w = np.asarray(w, dtype=np.float64)
    rows, cols = np.nonzero(w)
    return WeightGraph(m=w.shape[0], rows=rows, cols=cols, vals=w[rows, cols], k=k,
                       strategy=strategy, delta=delta)


# the benchmark workloads' generator settings, graph degrees and weight strategies
WORKLOAD_SPECS = {"desk": ({}, 4, "binary"), "many_samples": ({"m": 1000}, 4, "binary"),
                  "large_tensor": ({"m": 100, "shape": (48, 48, 8), "ranks": (10, 10, 8)}, 4,
                                   "binary"),
                  "dense_graph": ({"m": 400}, 48, "heat_kernel")}
