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

from .graph import WeightGraph, zero_graph
from .linalg import qf, thin_svd
from .tensor import L0_TOL, _chunks, _mode_gram, _stack_norm, mode_product, multi_mode_product

_EDGE_FLOATS = 2 ** 15     # edge differences per chunk: ~256 KB, so a chunk stays in cache


@dataclass
class SolverConfig:
    gamma: float = 1e4          # 1/gamma weights the l1 term
    beta: float = 1e-6          # 1/beta weights the manifold term
    zeta: float = 1e-4          # stopping accuracy on |dL| / ||X||_F
    max_iter: int = 500

    def __post_init__(self):
        # beta = inf would make tau = beta / (gamma (beta + 2 s_i)) = inf / inf
        if not (self.gamma > 0 and 0 < self.beta < math.inf and self.zeta > 0):
            raise ValueError("gamma, beta and zeta must be positive, and beta finite")
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

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])


@dataclass
class SolveResult:
    factors: FactorSet
    cores: np.ndarray            # (M, R1, R2, R3)
    trace: SolverTrace
    stop_reason: str             # "converged" or "max_iter"
    n_iter: int


def soft_threshold(x, tau, out=None):
    """copysign(max(|x| - tau, 0), x), elementwise; out (x itself, say) takes the result."""
    return np.copysign(np.maximum(np.abs(x) - tau, 0.0), x, out=out)


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
    edges = (graph or zero_graph(samples.shape[0])).edges()
    return _terms(cores, _fit(samples, cores, factors), edges, config)[:4]


def _fit(samples, cores, factors) -> float:
    """(1/2) ||X - G x_1 U_1 x_2 U_2 x_3 U_3||_F^2 over ~1 MB slices of the stack: the
    reconstruction is formed one slice at a time, never stack-sized."""
    total = 0.0
    for s in _chunks(len(cores), math.prod(samples.shape[1:])):
        d = reconstruct(cores[s], factors)
        d -= samples[s]
        total += float(np.vdot(d, d))
    return 0.5 * total


def _fit_from_d(sq_norm_x: float, d_all, flat) -> float:
    """The fit term as (1/2)(||X||^2 - ||D||^2) + (1/2)||D - G||^2, D = X x_n U_n^T:
    exact for orthonormal factors, but the first difference cancels to ~8 eps ||X||^2."""
    r = d_all - flat
    return 0.5 * (sq_norm_x - float(np.vdot(d_all, d_all))) + 0.5 * float(np.vdot(r, r))


def _terms(cores, fit: float, edges, config: SolverConfig):
    """objective() and the share of |G| <= L0_TOL, from the fit term and the i < j edge
    arrays (i, j, w). The manifold term is summed over edges, _EDGE_FLOATS of differences at
    a time, each chunk one gather minus the other in place: the Laplacian form
    s.||G||^2 - <G, WG> cancels to ~1e-10 relative, too coarse for descent checks."""
    a = np.abs(cores)
    l1 = float(a.sum()) / config.gamma
    flat = cores.reshape(cores.shape[0], -1)
    ei, ej, ew = edges
    manifold = 0.0
    for s in _chunks(len(ew), flat.shape[1], _EDGE_FLOATS):
        d = flat[ei[s]]
        d -= flat[ej[s]]
        manifold += float(ew[s] @ np.einsum("ep,ep->e", d, d))
    manifold /= config.beta
    return l1 + fit + manifold, l1, fit, manifold, np.count_nonzero(a <= L0_TOL) / a.size


def _factor_cross_product(samples, cores, factors, n: int, projected=None) -> np.ndarray:
    """B = sum_i Y^(i)_(n) C^(i)_(n)^T, Y^(i) = X^(i) times the other factors of modes 1-2
    transposed. Mode 3 takes C = G; modes 1 and 2 take C = G x_3 U_3, formed ~1 MB of Y
    at a time: U_3 goes on the core side, the smaller one (the ordering principle of
    ST-HOSVD, Vannieuwenhoven, Vandebril & Meerbergen 2012)."""
    other = [k for k in range(2) if k != n]
    # non-finite data is reported once, below, instead of as matmul warnings
    with np.errstate(invalid="ignore", over="ignore"):
        y = projected if projected is not None else multi_mode_product(
            samples, [factors[k] for k in other], modes=[k + 1 for k in other], transpose=True)
        b = _mode_gram(y, 3, cores) if n == 2 else sum(
            (_mode_gram(y[s], n + 1, mode_product(cores[s], factors[2], 3))
             for s in _chunks(len(y), math.prod(y.shape[1:]))),
            np.zeros((y.shape[n + 1], cores.shape[n + 1])))
    if not np.all(np.isfinite(b)):
        raise FloatingPointError("non-finite accumulation in factor update")
    return b


def update_factor(samples, cores, factors: FactorSet, n: int, projected=None) -> np.ndarray:
    """Closed-form Stiefel update for mode n: qf of the cross-product matrix.
    projected: the samples times the other factors of modes 1-2 transposed (for mode 3,
    X x_1 U_1^T x_2 U_2^T), if already formed."""
    return qf(_factor_cross_product(samples, cores, factors, n, projected))


def _factor_phase(samples, mats: list, factor_block) -> np.ndarray:
    """The factor blocks and D in two passes over the stack X. mats[n] = factor_block(n, Y)
    for modes n = 0, 1, 2, Y being _factor_cross_product's projection: None for mode 0
    (the block forms X x_2 U_2^T), Z_1 = X x_1 U_1^T for mode 1 and Z_12 = Z_1 x_2 U_2^T
    for mode 2. Returns D = Z_12 x_3 U_3^T, one flat row per sample."""
    mats[0] = factor_block(0, None)
    z = mode_product(samples, mats[0].T, 1)
    mats[1] = factor_block(1, z)
    z = mode_product(z, mats[1].T, 2)
    mats[2] = factor_block(2, z)
    return mode_product(z, mats[2].T, 3).reshape(samples.shape[0], -1)


def core_threshold(graph_row_sum, config: SolverConfig):
    """tau^(i) = beta / (gamma (beta + 2 s_i)), for one row sum or an array of them."""
    return config.beta / (config.gamma * (config.beta + 2.0 * graph_row_sum))


def _core_prox(bd_i, flat_cores, neighbours, den_i, tau_i, out=None) -> np.ndarray:
    """Closed-form minimiser of core i's subproblem (cores j != i fixed), flat, into out:
    the prox centre alpha^(i) = (bd_i + 2 sum_j w_ij G^(j)) / den_i, summed over the row's
    (neighbour indices, weights), soft-thresholded at tau_i; bd_i = beta D^(i), den_i =
    beta + 2 s_i and tau_i = core_threshold(s_i). out may be core i's own row, never its
    own neighbour. r rows of one degree d take bd_i (r, 1, P), indices (r, d), weights
    (r, 1, d), den_i and tau_i (r, 1, 1): bitwise r row calls."""
    idx, wts = neighbours
    out = np.matmul(wts, flat_cores[idx], out=out)
    out *= 2.0
    out += bd_i
    out /= den_i
    return soft_threshold(out, tau_i, out=out)


def _levels(graph: WeightGraph) -> np.ndarray:
    """Each row's wavefront level (Anderson & Saad 1989): 1 + the highest level of its
    neighbours j < i, or 0. Per 64-row block, edges from before it at once, then its own."""
    low = graph.cols < graph.rows
    rows, cols = graph.rows[low], graph.cols[low]
    level = np.zeros(graph.m, dtype=np.intp)
    cuts = np.searchsorted(rows, np.arange(0, graph.m + 64, 64)).tolist()
    for r, e0, e1 in zip(range(0, graph.m, 64), cuts, cuts[1:]):
        i, j = rows[e0:e1], cols[e0:e1]
        back = j < r
        np.maximum.at(level, i[back], level[j[back]] + 1)
        block = level[r:r + 64].tolist()
        for a, b in zip((i[~back] - r).tolist(), (j[~back] - r).tolist()):
            if block[b] >= block[a]:
                block[a] = block[b] + 1
        level[r:r + 64] = block
    return level


def _core_groups(graph: WeightGraph, level, config: SolverConfig, width: int) -> list:
    """Runs of rows of one level (level=0: all at 0) and one degree, in (level, degree)
    order and ~1 MB gathers of width-double cores: (i, neighbours, den_i, tau_i) for a lone
    row i, else (rows, ...) in _core_prox's group shapes. A level's rows share no edge, and
    neighbours j < i (j > i) sit lower (higher), so this order reads what row order reads."""
    deg = np.bincount(graph.rows, minlength=graph.m)
    key = level * (deg.max(initial=0) + 1) + deg
    order = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(key[order], prepend=-1, append=-1)).tolist()
    # the edges row by row in that order, so each group's are one contiguous run
    n = deg[order]
    off = np.cumsum(n) - n
    e = np.repeat(np.cumsum(deg)[order] - n - off, n) + np.arange(len(graph.rows))
    cols, vals, off = graph.cols[e], graph.vals[e], off.tolist() + [len(e)]
    sums = graph.row_sums()[order]
    den, tau = config.beta + 2.0 * sums, core_threshold(sums, config)
    lone = order.tolist(), den.tolist(), tau.tolist()   # Python scalars: fastest to build
    groups = []
    for a, b in zip(bounds, bounds[1:]):
        if b - a == 1:                   # a lone row: the 1-D row call
            e = slice(off[a], off[b])
            groups.append((lone[0][a], (cols[e], vals[e]), lone[1][a], lone[2][a]))
            continue
        d = (off[b] - off[a]) // (b - a)
        for s in _chunks(b - a, max(d, 1) * width):
            r = slice(a + s.start, min(a + s.stop, b))
            e, k = slice(off[r.start], off[r.stop]), r.stop - r.start
            groups.append((order[r], (cols[e].reshape(k, d), vals[e].reshape(k, 1, d)),
                           den[r, None, None], tau[r, None, None]))
    return groups


def _core_sweep(groups, bd, src, dst) -> None:
    """Core updates over _core_groups' groups, from src into dst (dst = src: Gauss-Seidel)."""
    for rows, neighbours, den, tau in groups:
        if isinstance(rows, int):
            _core_prox(bd[rows], src, neighbours, den, tau, dst[rows])
        else:
            dst[rows] = _core_prox(bd[rows, None], src, neighbours, den, tau)[:, 0]


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
        mats.append(thin_svd(_mode_gram(projected, n + 1))[0][:, :ranks[n]])
        projected = mode_product(projected, mats[n].T, n + 1)
    return FactorSet(*mats), np.ascontiguousarray(projected)


def relative_error(prev_cores, prev_factors, cores, factors, norm_x: float) -> float:
    """||X_hat - X_hat_prev||_F / norm_x of two (cores, factors) states, norm_x = ||X||_F,
    at core size and exact for orthonormal factors. For modes 3, 2, 1 from h = prev_cores,
    V_n = U_n A_n + E_n (A_n = U_n^T V_n, E_n orthogonal to U_n): E_n's orthogonal part
    adds <h, h x_n E_n^T E_n>, then h <- h x_n A_n. ||h - G||^2 is the rest."""
    if not norm_x:
        return 0.0
    h, sq = prev_cores, 0.0
    for u, v in zip(factors[::-1], prev_factors[::-1]):
        a = u.T @ v
        e = v - u @ a           # not I - A^T A, which cancels where the spans nearly agree
        h = h.reshape(-1, v.shape[1])
        sq += float(np.vdot(e.T @ e, h.T @ h))
        h = a @ h.T             # h x_n A_n, mode n first in C order: the next mode is last
    d = h.reshape(-1, len(cores))     # (R_1 R_2 R_3, M)
    d -= cores.reshape(len(cores), -1).T
    return float(np.sqrt(sq + float(np.vdot(d, d))) / norm_x)


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

    norm_x = _stack_norm(samples)       # before init_state's Gram matrices
    factors, cores = init_state(samples, ranks)
    mats = list(factors)                 # updated in place, one mode at a time
    flat = cores.reshape(len(cores), -1)     # a view: the core sweep writes through it
    edges = graph.edges()
    groups = _core_groups(graph, _levels(graph), config, flat.shape[1])
    decrease_coef = 0.5 + graph.row_sums() / config.beta
    old_flat = np.empty_like(flat)      # each sweep's starting cores, then how far they moved

    # D = G at the start. The fit from D rounds to ~8 eps ||X||^2: used only where that is
    # below 1e-15 of the objective's scale, not on noiseless data (L ~ 0)
    prev_total, *_ = _terms(cores, _fit_from_d(norm_x ** 2, flat, flat), edges, config)
    d_form = 8 * np.finfo(float).eps * norm_x ** 2 <= 1e-15 * max(1.0, prev_total)
    if not d_form:
        prev_total, *_ = _terms(cores, _fit(samples, cores, mats), edges, config)
    if not np.isfinite(prev_total):
        raise FloatingPointError("non-finite initial objective")

    trace = SolverTrace()
    stop_reason = "max_iter"
    for it in range(1, config.max_iter + 1):
        t0 = time.perf_counter()
        old_mats = list(mats)
        d_all = _factor_phase(samples, mats,
                              lambda n, y: update_factor(samples, cores, mats, n, y))
        np.copyto(old_flat, flat)
        _core_sweep(groups, config.beta * d_all, flat, flat)

        fit = _fit_from_d(norm_x ** 2, d_all, flat) if d_form else _fit(samples, cores, mats)
        total, l1, fit, manifold, sparsity = _terms(cores, fit, edges, config)
        if not np.isfinite(total):
            raise FloatingPointError(f"non-finite objective at iteration {it}")
        re = relative_error(old_flat.reshape(cores.shape), old_mats, cores, mats, norm_x)
        moved = np.subtract(flat, old_flat, out=old_flat)
        bound = float(np.dot(decrease_coef, np.einsum("ip,ip->i", moved, moved)))
        trace.records.append(IterationRecord(
            iteration=it, objective=total, l1_term=l1, fit_term=fit, manifold_term=manifold,
            relative_error=re, decrease_slack=(prev_total - total) - bound,
            sparsity=sparsity,
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
        u, b = factors[n], _factor_cross_product(samples, cores, factors, n, projected)
        grad = u @ _mode_gram(cores, n + 1) - b
        utg = u.T @ grad
        factor_res[n] = float(np.linalg.norm(grad - u @ (0.5 * (utg + utg.T))))
        return u

    flat = cores.reshape(len(cores), -1)
    bd = _factor_phase(samples, list(factors), factor_block)
    bd *= config.beta
    fixed = np.empty_like(flat)
    _core_sweep(_core_groups(graph, 0, config, flat.shape[1]), bd, flat, fixed)
    return factor_res, np.linalg.norm(np.subtract(flat, fixed, out=fixed), axis=1)
