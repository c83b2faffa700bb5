"""Manifold-regularized, l1-sparse, orthogonal Tucker decomposition of
order-3 tensor sample sets, solved by block coordinate descent."""

from .graph import WeightGraph, build_graph, zero_graph
from .linalg import qf, sym_eig, thin_svd
from .ranks import RankPolicy, select_ranks
from .solver import (
    FactorSet,
    SolveResult,
    SolverConfig,
    SolverTrace,
    objective,
    relative_error,
    soft_threshold,
    solve,
    stationarity_residual,
    update_factor,
)
from .synth import (
    EvalReport,
    SynthSpec,
    evaluate,
    generate,
    nearest_centroid,
    neighbor_preservation,
)
from .tensor import mode_product, multi_mode_product, unfold

__all__ = [
    "WeightGraph", "build_graph", "zero_graph",
    "qf", "sym_eig", "thin_svd",
    "RankPolicy", "select_ranks",
    "FactorSet", "SolveResult", "SolverConfig", "SolverTrace",
    "objective", "relative_error", "soft_threshold", "solve",
    "stationarity_residual", "update_factor",
    "EvalReport", "SynthSpec", "evaluate", "generate",
    "nearest_centroid", "neighbor_preservation",
    "mode_product", "multi_mode_product", "unfold",
]

__version__ = "0.1.0"
