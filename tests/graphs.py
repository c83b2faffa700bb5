"""Hand-made weight graphs for the tests: a WeightGraph from a dense matrix."""

import numpy as np

from mrtucker import WeightGraph


def from_dense(w, k=1, strategy="binary", delta=None) -> WeightGraph:
    """The WeightGraph holding the nonzeros of the (M, M) matrix w, row-major."""
    w = np.asarray(w, dtype=np.float64)
    rows, cols = np.nonzero(w)
    return WeightGraph(m=w.shape[0], rows=rows, cols=cols, vals=w[rows, cols], k=k,
                       strategy=strategy, delta=delta)
