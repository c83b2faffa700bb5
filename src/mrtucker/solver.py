"""Block coordinate descent for manifold-regularized, l1-sparse, orthogonal
Tucker decomposition of a set of equally-shaped order-3 tensor samples.

Objective (cores G^(i), factors U_n on Stiefel manifolds):

    L = (1/gamma) sum_i ||G^(i)||_1
      + (1/2)     sum_i ||X^(i) - G^(i) x_1 U_1 x_2 U_2 x_3 U_3||_F^2
      + (1/beta)  sum_{i<j} w_ij ||G^(i) - G^(j)||_F^2

One sweep updates U_1, U_2, U_3 by the qf operator and then the cores
sequentially (Gauss-Seidel) by tensor soft-thresholding; every subproblem is
solved in closed form, so the objective is non-increasing and each sweep
decreases it by at least sum_i (1/2 + s_i/beta) ||dG^(i)||_F^2 with
s_i = sum_{j != i} w_ij.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import WeightGraph, _adjacency, zero_graph
from .linalg import qf, thin_svd
from .tensor import (L0_TOL, _chunks, _mode_gram, _stack_norm, mode_product,
                     multi_mode_product, unfold)


@dataclass
class SolverConfig:
    gamma: float = 1e4          # 1/gamma weights the l1 term
    beta: float = 1e-6          # 1/beta weights the manifold term
    zeta: float = 1e-4          # stopping accuracy on |dL| / ||X||_F
    max_iter: int = 500

    def __post_init__(self):
        if not (self.gamma > 0 and self.beta > 0 and self.zeta > 0):
            raise ValueError("gamma, beta and zeta must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


class FactorSet(NamedTuple):
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return list(self)

    def orthogonality_defect(self) -> float:
        return max(float(np.linalg.norm(u.T @ u - np.eye(u.shape[1]))) for u in self)


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    l1_term: float
    fit_term: float
    manifold_term: float
    relative_error: float
    decrease_slack: float
    sparsity: float
    wall_ms: float


@dataclass
class SolverTrace:
    records: list[IterationRecord] = field(default_factory=list)

    def append(self, rec: IterationRecord) -> None:
        self.records.append(rec)

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])


@dataclass
class SolveResult:
    factors: FactorSet
    cores: np.ndarray            # (M, R1, R2, R3)
    trace: SolverTrace
    stop_reason: str             # "converged" or "max_iter"
    n_iter: int


def soft_threshold(x, tau):
    """max(|x| - tau, 0) * sign(x), elementwise."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def reconstruct(cores: np.ndarray, factors: FactorSet) -> np.ndarray:
    """Stacked reconstructions G^(i) x_1 U_1 x_2 U_2 x_3 U_3."""
    # most expanding product last: smaller transient copies
    order = sorted(range(3), key=lambda n: factors[n].shape[0] / factors[n].shape[1])
    return multi_mode_product(cores, [factors[n] for n in order], modes=[n + 1 for n in order])


def _check_shapes(samples, cores, factors):
    """samples and cores as float64 arrays, or a ValueError when the shapes disagree."""
    samples = np.asarray(samples, dtype=np.float64)
    cores = np.asarray(cores, dtype=np.float64)
    if samples.shape[0] != cores.shape[0]:
        raise ValueError(f"sample and core counts differ: {samples.shape[0]} samples, "
                         f"{cores.shape[0]} cores")
    for n, u in enumerate(factors):
        expected = (samples.shape[n + 1], cores.shape[n + 1])
        if u.shape != expected:
            raise ValueError(f"factor {n} has shape {u.shape}, expected {expected}")
    return samples, cores


def objective(samples, cores, factors, graph: WeightGraph | None,
              config: SolverConfig) -> tuple[float, float, float, float]:
    """(total, l1_term, fit_term, manifold_term) of the objective."""
    samples, cores = _check_shapes(samples, cores, factors)
    edges = _adjacency((graph or zero_graph(samples.shape[0])).w)[1]
    return _terms(cores, _fit(samples, cores, factors), edges, config)


def _sq_dist(cores, mats, b) -> float:
    """sum_s ||cores[s] x_1 M_1 x_2 M_2 x_3 M_3 - b(s)||_F^2 over ~1 MB slices s of the
    stack: the reconstruction is formed one slice at a time, never stack-sized."""
    total = 0.0
    for s in _chunks(len(cores), math.prod(u.shape[0] for u in mats)):
        d = reconstruct(cores[s], mats)
        d -= b(s)
        total += float(np.vdot(d, d))
    return total


def _fit(samples, cores, factors) -> float:
    """(1/2) ||X - G x_1 U_1 x_2 U_2 x_3 U_3||_F^2, without a stack-sized array."""
    return 0.5 * _sq_dist(cores, factors, samples.__getitem__)


def _fit_from_d(sq_norm_x: float, d_all, flat) -> float:
    """The fit term as (1/2)(||X||^2 - ||D||^2) + (1/2)||D - G||^2, D = X x_n U_n^T:
    exact for orthonormal factors, but the first difference cancels to ~8 eps ||X||^2."""
    r = d_all - flat
    return 0.5 * (sq_norm_x - float(np.vdot(d_all, d_all))) + 0.5 * float(np.vdot(r, r))


def _terms(cores, fit: float, edges, config: SolverConfig):
    """objective() from the fit term and the i < j edge arrays (i, j, w).
    The manifold term is summed over edges, ~1 MB at a time: the Laplacian form
    s.||G||^2 - <G, WG> cancels to ~1e-10 relative, too coarse for descent checks."""
    l1 = float(np.abs(cores).sum()) / config.gamma
    flat = cores.reshape(cores.shape[0], -1)
    ei, ej, ew = edges
    manifold = sum(float(ew[s] @ np.einsum("ep,ep->e", d := flat[ei[s]] - flat[ej[s]], d))
                   for s in _chunks(len(ew), flat.shape[1])) / config.beta
    return l1 + fit + manifold, l1, fit, manifold


def _factor_cross_product(samples, cores, factors, n: int, projected=None) -> np.ndarray:
    """B = sum_i Y^(i)_(n) G^(i)_(n)^T, Y^(i) = X^(i) times the other two factors
    transposed: the data is projected down to core size first (HOOI order)."""
    other = [k for k in range(3) if k != n]
    # non-finite data is reported once, below, instead of as matmul warnings
    with np.errstate(invalid="ignore", over="ignore"):
        y = projected if projected is not None else multi_mode_product(
            samples, [factors[k] for k in other], modes=[k + 1 for k in other], transpose=True)
        b = unfold(y, n + 1) @ unfold(cores, n + 1).T
    if not np.all(np.isfinite(b)):
        raise FloatingPointError("non-finite accumulation in factor update")
    return b


def update_factor(samples, cores, factors: FactorSet, n: int, projected=None) -> np.ndarray:
    """Closed-form Stiefel update for mode n: qf of the cross-product matrix.
    projected: the samples times the other two factors transposed, if already formed."""
    return qf(_factor_cross_product(samples, cores, factors, n, projected))


def _factor_phase(samples, mats: list, factor_block) -> np.ndarray:
    """The factor blocks and D in two passes over the stack X. mats[n] = factor_block(n, Y)
    for modes n = 0, 1, 2, Y being X times the other two factors transposed: None for mode
    0 (the block forms it), Z_1 x_3 U_3^T for mode 1 and Z_12 = Z_1 x_2 U_2^T for mode 2,
    with Z_1 = X x_1 U_1^T. Returns D = Z_12 x_3 U_3^T, one flat row per sample."""
    mats[0] = factor_block(0, None)
    z = mode_product(samples, mats[0].T, 1)
    mats[1] = factor_block(1, mode_product(z, mats[2].T, 3))
    z = mode_product(z, mats[1].T, 2)
    mats[2] = factor_block(2, z)
    return mode_product(z, mats[2].T, 3).reshape(samples.shape[0], -1)


def core_threshold(graph_row_sum: float, config: SolverConfig) -> float:
    """tau^(i) = beta / (gamma (beta + 2 s_i))."""
    return config.beta / (config.gamma * (config.beta + 2.0 * graph_row_sum))


def _core_prox(d_i, flat_cores, neighbours, s_i, config: SolverConfig) -> np.ndarray:
    """Closed-form minimiser of core i's subproblem (cores j != i fixed), flat:
    the prox centre alpha^(i) = (beta D^(i) + 2 sum_j w_ij G^(j)) / (beta + 2 s_i),
    summed over the row's (neighbour indices, weights), soft-thresholded at tau^(i)."""
    idx, wts = neighbours
    alpha = (config.beta * d_i + 2.0 * (wts @ flat_cores[idx])) / (config.beta + 2.0 * s_i)
    return soft_threshold(alpha, core_threshold(s_i, config))


def update_core(samples, cores, factors: FactorSet, graph: WeightGraph | None,
                config: SolverConfig, i: int) -> np.ndarray:
    """Closed-form Gauss-Seidel update of core i (cores j != i held at their
    current values)."""
    samples, cores = _check_shapes(samples, cores, factors)
    d_i = multi_mode_product(samples[i], factors, transpose=True)
    w_row = (graph or zero_graph(samples.shape[0])).w[i]
    idx = np.flatnonzero(w_row)
    return _core_prox(d_i.ravel(), cores.reshape(cores.shape[0], -1), (idx, w_row[idx]),
                      float(w_row.sum()), config).reshape(d_i.shape)


def init_state(samples, ranks) -> tuple[FactorSet, np.ndarray]:
    """Sequentially truncated HOSVD start; cores are the projections of the data.

    For n = 1, 2, 3 in turn, U_n holds the leading R_n left singular vectors
    of the mode-n Gram matrix of the stack projected onto U_1..U_{n-1}, and
    the stack is then projected onto U_n (Vannieuwenhoven, Vandebril &
    Meerbergen 2012). The last projection is the initial core stack. The
    start has to be data-driven: the Gauss-Seidel core sweep moves each graph
    component's core consensus by only beta / (beta + 2 s_i) of its gap per
    sweep, so a solve keeps the consensus its start gives. The start draws no
    random numbers.
    """
    projected = np.asarray(samples, dtype=np.float64)
    mats = []
    for n in range(3):
        mats.append(thin_svd(_mode_gram(projected, n + 1)).u[:, :ranks[n]])
        projected = mode_product(projected, mats[n].T, n + 1)
    return FactorSet(*mats), np.ascontiguousarray(projected)


def relative_error(prev_cores, prev_factors, cores, factors, norm_x: float) -> float:
    """||X_hat - X_hat_prev||_F / norm_x of the reconstructions of two (cores, factors)
    states, norm_x = ||X||_F. Exact in each mode's joint span: [U_n, U_n_prev] = Q_n R_n
    and the orthonormal Q_n leave the norm, so R_n's two column blocks replace the
    factors (rows min(2 R_n, I_n)); a mode with 2 R_n >= I_n keeps its factors."""
    if not norm_x:
        return 0.0
    new, old = zip(*[np.hsplit(np.linalg.qr(np.hstack([u, v]), mode="r"), [u.shape[1]])
                     if 2 * u.shape[1] < u.shape[0] else (u, v)
                     for u, v in zip(factors, prev_factors)])
    sq = _sq_dist(cores, new, lambda s: reconstruct(prev_cores[s], old))
    return float(np.sqrt(sq) / norm_x)


def solve(samples, graph: WeightGraph | None, ranks, config: SolverConfig | None = None,
          ) -> SolveResult:
    """Run the BCD scheme until |dL| / ||X||_F < zeta or max_iter sweeps."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 4 or samples.shape[0] < 1:
        raise ValueError("expected a nonempty stack of order-3 samples")
    ranks = tuple(int(r) for r in ranks)
    if any(not 1 <= r <= e for r, e in zip(ranks, samples.shape[1:])):
        raise ValueError(f"ranks {ranks} incompatible with extents {samples.shape[1:]}")
    config = config or SolverConfig()
    graph = graph or zero_graph(samples.shape[0])

    m = samples.shape[0]
    norm_x = _stack_norm(samples)       # before init_state's Gram matrices
    factors, cores = init_state(samples, ranks)
    mats = list(factors)                 # updated in place, one mode at a time
    flat = cores.reshape(m, -1)          # a view: the core sweep writes through it
    neighbours, edges = _adjacency(graph.w)
    row_sums = graph.row_sums()
    decrease_coef = 0.5 + row_sums / config.beta

    prev_total, *_ = _terms(cores, _fit(samples, cores, mats), edges, config)
    if not np.isfinite(prev_total):
        raise FloatingPointError("non-finite initial objective")
    # the fit from D rounds to ~8 eps ||X||^2: used only where that is below
    # 1e-15 of the objective's scale, not on noiseless data (L ~ 0)
    d_form = 8 * np.finfo(float).eps * norm_x ** 2 <= 1e-15 * max(1.0, prev_total)

    trace = SolverTrace()
    stop_reason = "max_iter"
    for it in range(1, config.max_iter + 1):
        t0 = time.perf_counter()
        old_mats = list(mats)
        d_all = _factor_phase(samples, mats,
                              lambda n, y: update_factor(samples, cores, mats, n, y))
        old_flat = flat.copy()
        for i in range(m):       # Gauss-Seidel: sequential by construction
            flat[i] = _core_prox(d_all[i], flat, neighbours[i], row_sums[i], config)

        fit = _fit_from_d(norm_x ** 2, d_all, flat) if d_form else _fit(samples, cores, mats)
        total, l1, fit, manifold = _terms(cores, fit, edges, config)
        if not np.isfinite(total):
            raise FloatingPointError(f"non-finite objective at iteration {it}")
        moved = flat - old_flat
        bound = float(np.dot(decrease_coef, np.einsum("ip,ip->i", moved, moved)))
        trace.append(IterationRecord(
            iteration=it, objective=total, l1_term=l1, fit_term=fit, manifold_term=manifold,
            relative_error=relative_error(old_flat.reshape(cores.shape), old_mats, cores, mats,
                                          norm_x),
            decrease_slack=(prev_total - total) - bound,
            sparsity=float(np.mean(np.abs(cores) <= L0_TOL)),
            wall_ms=(time.perf_counter() - t0) * 1e3))
        converged = abs(total - prev_total) / max(norm_x, np.finfo(float).tiny) < config.zeta
        prev_total = total
        if converged:
            stop_reason = "converged"
            break

    return SolveResult(factors=FactorSet(*mats), cores=cores, trace=trace,
                       stop_reason=stop_reason, n_iter=len(trace.records))


def stationarity_residual(samples, cores, factors: FactorSet, graph: WeightGraph | None,
                          config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """(factor residuals per mode, core residuals per sample).

    Factor residual: Frobenius norm of the fit-term gradient -B + U_n G_(n) G_(n)^T
    (B the factor update's cross-product; exact for orthonormal factors)
    projected onto the Stiefel tangent space at U_n. Core residual: distance of
    G^(i) from the fixed point of its own prox update, whose step is
    beta / (beta + 2 s_i) (about 1e-7 at the defaults), so it reads in those
    units rather than in gradient units: a gradient of L that moves a whole
    graph component's cores together can be large while every core residual
    is small. Both vanish at stationary points.
    """
    samples, cores = _check_shapes(samples, cores, factors)
    graph = graph or zero_graph(samples.shape[0])

    factor_res = np.zeros(3)

    def factor_block(n, projected):     # records mode n's residual, keeps U_n
        u, gn = factors[n], unfold(cores, n + 1)
        grad = u @ (gn @ gn.T) - _factor_cross_product(samples, cores, factors, n, projected)
        utg = u.T @ grad
        factor_res[n] = float(np.linalg.norm(grad - u @ (0.5 * (utg + utg.T))))
        return u

    m = samples.shape[0]
    flat = cores.reshape(m, -1)
    neighbours, _ = _adjacency(graph.w)
    row_sums = graph.row_sums()
    d_all = _factor_phase(samples, list(factors), factor_block)
    fixed = [_core_prox(d_all[i], flat, neighbours[i], row_sums[i], config) for i in range(m)]
    return factor_res, np.linalg.norm(flat - np.array(fixed), axis=1)
