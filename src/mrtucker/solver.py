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
from .linalg import _norm, _qf, thin_svd
from .tensor import (_CACHE_FLOATS, _CHUNK_FLOATS, L0_TOL, _chunks, _gram, _integer,
                     _mode_gram, _mode_product, _mode_products, _real, _reals,
                     _sample_stack, _typed, multi_mode_product)

# the largest orthogonality_defect of factors taken as orthonormal (solved ones read ~1e-15)
ORTHO_TOL = 1e-10

# what messages call the arrays of a (cores, factors) state, and of relative_error's two
_STATE = ("cores", "U1", "U2", "U3")
_STATES = tuple(p + name for p in ("previous ", "") for name in _STATE)


@dataclass
class SolverConfig:
    gamma: float = 1e4          # 1/gamma weights the l1 term
    beta: float = 1e-6          # 1/beta weights the manifold term
    zeta: float = 1e-4          # stopping accuracy on |dL| / ||X||_F
    max_iter: int = 500

    def __post_init__(self):
        # beta = inf would make tau = beta / (gamma (beta + 2 s_i)) = inf / inf
        for name in ("gamma", "beta", "zeta"):
            if not _real(v := getattr(self, name)) or not v > 0 or name == "beta" and v == math.inf:
                raise ValueError(f"{name} must be a positive number (beta finite), got {v!r}")
        if not _integer(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


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
    t_factor_ms: float          # the factor blocks and D
    t_core_ms: float            # beta D, the copy of the old cores and the core sweep
    t_eval_ms: float            # fit, terms, RE and the eq. (17) bound
    t_other_ms: float           # wall_ms minus the three phases above


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
    """copysign(max(|x| - tau, 0), x), elementwise; out (x itself, say) takes the result.
    A ValueError unless x holds real numbers and tau (scalar or array) finite ones >= 0."""
    if not _reals(a := np.asarray(x)):
        raise ValueError(f"x must hold integers or floats, got {a.dtype}")
    if not _reals(t := np.asarray(tau)) or not (np.isfinite(t) & (t >= 0)).all():
        raise ValueError(f"tau must hold finite real numbers >= 0, got {tau!r}")
    return _soft_threshold(x, tau, out)


def _soft_threshold(x, tau, out):
    """soft_threshold, unchecked."""
    return np.copysign(np.maximum(np.abs(x) - tau, 0.0), x, out=out)


def reconstruct(cores: np.ndarray, factors: FactorSet) -> np.ndarray:
    """Stacked reconstructions G^(i) x_1 U_1 x_2 U_2 x_3 U_3."""
    return multi_mode_product(cores, *_expansions(factors))


def _expansions(factors) -> tuple[list, list]:
    """(matrices, modes) of G x_1 U_1 x_2 U_2 x_3 U_3, the most expanding product last:
    smaller transient copies."""
    order = sorted(range(3), key=lambda n: factors[n].shape[0] / factors[n].shape[1])
    return [factors[n] for n in order], [n + 1 for n in order]


def _check_shapes(samples, cores, factors, graph: WeightGraph | None = None):
    """(cores, graph): the cores as a float64 stack and the graph over the M samples of
    _sample_stack's stack (zero_graph(M) for None), or a ValueError when the shapes or
    counts disagree or the cores or factors hold anything but finite real numbers."""
    cores = np.asarray(cores)
    if cores.ndim != 4 or 0 in cores.shape or len(factors) != 3:
        raise ValueError(f"expected stacks of order-3 samples and cores and three factors, got "
                         f"shapes {samples.shape} and {cores.shape} and {len(factors)} factors")
    if samples.shape[0] != cores.shape[0]:
        raise ValueError(f"sample and core counts differ: {samples.shape[0]} samples, "
                         f"{cores.shape[0]} cores")
    for n, u in enumerate(factors):
        expected = (samples.shape[n + 1], cores.shape[n + 1])
        if u.shape != expected:
            raise ValueError(f"factor {n} has shape {u.shape}, expected {expected}")
    state = tuple(zip(_STATE, (cores, *factors)))
    if bad := [f"{name} ({t.dtype})" for name, t in state if not _reals(t)]:
        raise ValueError(f"entries that are not real numbers in {', '.join(bad)}")
    if bad := [name for name, t in state if not np.isfinite(t).all()]:
        raise ValueError(f"non-finite entries (NaN or inf) in {', '.join(bad)}")
    graph = zero_graph(len(samples)) if graph is None else graph
    if graph.m != len(samples):
        raise ValueError(f"graph over {graph.m} samples for a stack of {len(samples)}")
    return cores.astype(np.float64, copy=False), graph


def objective(samples, cores, factors, graph: WeightGraph | None,
              config: SolverConfig) -> tuple[float, float, float, float]:
    """(total, l1_term, fit_term, manifold_term) of the objective."""
    _typed(config, SolverConfig, "config")
    samples, _ = _sample_stack(samples)      # names non-finite samples before any arithmetic
    cores, graph = _check_shapes(samples, cores, factors, graph)
    return _terms(cores, _fit(samples, cores, factors), graph.edges(), config)[:4]


def _fit(samples, cores, factors) -> float:
    """(1/2) ||X - G x_1 U_1 x_2 U_2 x_3 U_3||_F^2 over ~1 MB slices of the stack: the
    reconstruction is formed one slice at a time, never stack-sized."""
    total = 0.0
    for s in _chunks(len(cores), math.prod(samples.shape[1:])):
        d = _mode_products(cores[s], *_expansions(factors))
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
    arrays (i, j, w). The manifold term is summed over edges, _CACHE_FLOATS of differences at
    a time, each chunk one gather minus the other in place: the Laplacian form
    s.||G||^2 - <G, WG> cancels to ~1e-10 relative, too coarse for descent checks."""
    a = np.abs(cores)
    l1 = float(a.sum()) / config.gamma
    flat = cores.reshape(cores.shape[0], -1)
    ei, ej, ew = edges
    manifold = 0.0
    for s in _chunks(len(ew), flat.shape[1], _CACHE_FLOATS):
        d = flat.take(ei[s], axis=0)
        d -= flat.take(ej[s], axis=0)
        manifold += float(ew[s] @ np.einsum("ep,ep->e", d, d))
    manifold /= config.beta
    return l1 + fit + manifold, l1, fit, manifold, np.count_nonzero(a <= L0_TOL) / a.size


def _factor_cross_product(z, cores, factors, n: int) -> np.ndarray:
    """B_n = sum_i Z^(i)_(n) C^(i)_(n)^T: Z = X x_k U_k^T over modes k < n (X for mode 1) on
    the data side, C = G x_k U_k over modes k > n on the core side, last mode first, one chain
    of mode products ~1 MB of Z at a time (ST-HOSVD's ordering, Vannieuwenhoven, Vandebril &
    Meerbergen 2012). B_n starts as the first slab's product, not as zeros: one pass fewer."""
    # non-finite data is reported once, below, instead of as matmul warnings
    with np.errstate(invalid="ignore", over="ignore"):
        grams = (_gram(z[s], n + 1, _mode_products(cores[s], factors[:n:-1], range(3, n + 1, -1)))
                 for s in _chunks(len(z), math.prod(z.shape[1:])))
        b = next(grams)
        for g in grams:
            b += g
    if not np.all(np.isfinite(b)):
        raise FloatingPointError("non-finite accumulation in factor update")
    return b


def update_factor(samples, cores, factors: FactorSet, n: int) -> np.ndarray:
    """Closed-form Stiefel update for mode n: qf of the cross-product matrix.
    The samples, cores and factors are checked as objective() checks them."""
    if not _integer(n) or not 0 <= n <= 2:
        raise ValueError(f"n must be an integer mode index 0, 1 or 2, got {n!r}")
    samples, _ = _sample_stack(samples)      # names non-finite samples before any arithmetic
    cores, _ = _check_shapes(samples, cores, factors)
    with np.errstate(invalid="ignore", over="ignore"):     # reported from B_n instead
        z = _mode_products(samples, [u.T for u in factors[:n]], range(1, n + 1))
    return _qf(_factor_cross_product(z, cores, factors, n))


def _factor_phase(samples, mats: list, factor_block) -> np.ndarray:
    """The factor blocks and D in one pass over the modes: mats[n] = factor_block(n, Z) for
    n = 0, 1, 2, Z being X projected onto the blocks' earlier results (X, Z_1 = X x_1 U_1^T,
    Z_12 = Z_1 x_2 U_2^T). Returns D = Z_12 x_3 U_3^T, one flat row per sample."""
    z = samples
    for n in range(3):
        mats[n] = factor_block(n, z)
        z = _mode_product(z, mats[n].T, n + 1)
    return z.reshape(samples.shape[0], -1)


def core_threshold(graph_row_sum, config: SolverConfig):
    """tau^(i) = beta / (gamma (beta + 2 s_i)), for one row sum or an array of them."""
    return config.beta / (config.gamma * (config.beta + 2.0 * graph_row_sum))


def _prox_tail(sums, bd, den, tau):
    """The elementwise part of core i's closed-form update (cores j != i fixed), in
    place: the neighbour sums sum_j w_ij G^(j) become the prox centre alpha^(i) =
    (bd + 2 sums) / den, soft-thresholded at tau; bd = beta D^(i), den = beta + 2 s_i
    and tau = core_threshold(s_i), for one row or broadcast over a stack of them."""
    sums *= 2.0
    sums += bd
    sums /= den
    return _soft_threshold(sums, tau, out=sums)


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
    """The rows in (level, degree) order (level=0: all at 0), cut into slabs of one level
    and ~256 KB of width-double prox centres, each slab a list of runs of one degree whose
    gathers stay ~1 MB: (rows, [(start, stop, indices (k, d), weights (k, 1, d)), ...],
    den_i, tau_i (n, 1, 1)), a run's start and stop counted within its slab. A level's
    rows share no edge, and neighbours j < i (j > i) sit lower (higher), so this order
    reads what row order reads."""
    m, deg = graph.m, np.bincount(graph.rows, minlength=graph.m)
    lvl = np.broadcast_to(level, deg.shape)
    order = np.argsort(lvl * m + deg, kind="stable")
    lvl, n = lvl[order], deg[order]
    # each row's slab (its level's rows, ~256 KB at a time) and run ((slab, degree) rows,
    # a ~1 MB gather at a time); each run's and each slab's first row
    pos = np.arange(m)
    slab = lvl * m + (pos - np.searchsorted(lvl, lvl)) // max(1, _CACHE_FLOATS // width)
    group = slab * m + n
    run = (pos - np.searchsorted(group, group)) // np.maximum(
        1, _CHUNK_FLOATS // (np.maximum(n, 1) * width))
    starts = np.flatnonzero(np.diff(group, prepend=-1) | np.diff(run, prepend=-1))
    firsts = np.flatnonzero(np.diff(slab, prepend=-1))
    # the edges row by row in that order, so each run's are one contiguous run
    off = np.concatenate(([0], np.cumsum(n)))
    e = np.repeat(np.cumsum(deg)[order] - off[1:], n) + np.arange(len(graph.rows))
    cols, vals = graph.cols[e], graph.vals[e]
    sums = graph.row_sums()[order, None, None]
    den, tau = config.beta + 2.0 * sums, core_threshold(sums, config)
    row_at = np.append(starts, m).tolist()      # run bounds, in rows and in edges
    edge_at = off[row_at].tolist()
    runs = list(zip(row_at, row_at[1:], edge_at, edge_at[1:], n[starts].tolist()))
    slab_at = firsts.tolist() + [m]
    run_at = np.searchsorted(starts, firsts).tolist() + [len(runs)]
    return [(order[s:t], [(a - s, b - s, cols[e0:e1].reshape(b - a, d),
                           vals[e0:e1].reshape(b - a, 1, d)) for a, b, e0, e1, d in runs[p:q]],
             den[s:t], tau[s:t])
            for s, t, p, q in zip(slab_at, slab_at[1:], run_at, run_at[1:])]


def _core_sweep(slabs, bd, src, dst) -> None:
    """Core updates over _core_groups' slabs, from src into dst (dst = src: Gauss-Seidel):
    each run's neighbour sums into one slab buffer, then the prox's elementwise part and
    one scatter per slab."""
    buf = np.empty((max((len(s[0]) for s in slabs), default=0), 1, src.shape[1]))
    for rows, runs, den, tau in slabs:
        for a, b, idx, wts in runs:
            np.matmul(wts, src.take(idx, axis=0), out=buf[a:b])
        dst[rows] = _prox_tail(buf[:len(rows)], bd.take(rows, axis=0)[:, None], den, tau)[:, 0]


def init_state(samples, ranks) -> tuple[FactorSet, np.ndarray]:
    """Sequentially truncated HOSVD start; cores are the projections of the data.

    For n = 1, 2, 3 in turn, U_n holds the leading R_n left singular vectors
    of the mode-n Gram matrix of the stack projected onto U_1..U_{n-1}, and
    the stack is then projected onto U_n (Vannieuwenhoven, Vandebril &
    Meerbergen 2012). The last projection is the initial core stack. The
    start has to be data-driven: the Gauss-Seidel core sweep moves each graph
    component's core consensus by only beta / (beta + 2 s_i) of its gap per
    sweep, so a solve keeps the consensus its start gives. The start draws no
    random numbers. Ranks must be three integers within the extents.
    """
    samples, mats, ranks = np.asarray(samples, dtype=np.float64), [None] * 3, tuple(ranks)
    extents = samples.shape[1:]
    if (len(ranks), len(extents)) != (3, 3) or not all(
            _integer(r) and 1 <= r <= e for r, e in zip(ranks, extents)):
        raise ValueError(f"ranks {ranks} are not three integers within extents {extents}")
    d = _factor_phase(samples, mats, lambda n, z: thin_svd(_mode_gram(z, n + 1))[0][:, :ranks[n]])
    return FactorSet(*mats), d.reshape(len(samples), *(u.shape[1] for u in mats))


def relative_error(prev_cores, prev_factors, cores, factors, norm_x: float) -> float:
    """||X_hat - X_hat_prev||_F / norm_x of two (cores, factors) states, norm_x = ||X||_F,
    at core size and exact for orthonormal factors. For modes 3, 2, 1 from h = prev_cores,
    V_n = U_n A_n + E_n (A_n = U_n^T V_n, E_n orthogonal to U_n): E_n's orthogonal part
    adds <h, h x_n E_n^T E_n>, then h <- h x_n A_n. ||h - G||^2 is the rest.

    A ValueError for states of different shapes or counts, entries that are not real
    numbers or a norm_x that is not a finite nonnegative number; the entries are scanned
    for NaN or inf only when the result is not finite, so no check passes over the states.
    A square U_n spans all of its mode, so E_n = 0 and its Gram is not formed."""
    if not (_real(norm_x) and 0.0 <= norm_x < math.inf):
        raise ValueError(f"norm_x must be a finite nonnegative real number, got {norm_x!r}")
    prev_cores, cores = np.asarray(prev_cores), np.asarray(cores)
    arrays = (prev_cores, *prev_factors, cores, *factors)
    if cores.ndim != 4 or [a.shape for a in arrays] != 2 * (
            [cores.shape] + [u.shape[:1] + (r,) for u, r in zip(factors, cores.shape[1:])]):
        raise ValueError(f"states of different shapes: previous cores {prev_cores.shape} and "
                         f"factors {[v.shape for v in prev_factors]}, cores {cores.shape} "
                         f"and factors {[u.shape for u in factors]}")
    if not all(map(_reals, arrays)):
        bad = [f"{name} ({a.dtype})" for name, a in zip(_STATES, arrays) if not _reals(a)]
        raise ValueError(f"entries that are not real numbers in {', '.join(bad)}")
    re = _relative_error(prev_cores, prev_factors, cores, factors, norm_x)
    if not math.isfinite(re):
        bad = [name for name, a in zip(_STATES, arrays) if not np.isfinite(a).all()]
        raise ValueError(f"non-finite entries (NaN or inf) in {', '.join(bad)}" if bad else
                         f"the relative error of finite states is {re} at norm_x = {norm_x}")
    return re


def _relative_error(prev_cores, prev_factors, cores, factors, norm_x: float) -> float:
    """relative_error of two real states that fit each other, unchecked: NaN or inf where
    relative_error names the cause."""
    if not norm_x:      # also ||X||_F underflowed to 0: no 0 / 0
        return 0.0
    h, sq = prev_cores, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for u, v in zip(factors[::-1], prev_factors[::-1]):
            a = u.T @ v
            h = h.reshape(-1, v.shape[1])
            if u.shape[0] > u.shape[1]:
                e = v - u @ a       # not I - A^T A, which cancels where the spans nearly agree
                sq += float(np.vdot(e.T @ e, h.T @ h))
            h = a @ h.T         # h x_n A_n, mode n first in C order: the next mode is last
        d = h.reshape(-1, len(cores))     # (R_1 R_2 R_3, M)
        d -= cores.reshape(len(cores), -1).T
        return float(np.sqrt(sq + float(np.vdot(d, d))) / norm_x)


def solve(samples, graph: WeightGraph | None, ranks, config: SolverConfig | None = None,
          ) -> SolveResult:
    """Run the BCD scheme until |dL| / ||X||_F < zeta or max_iter sweeps."""
    samples, norm_x = _sample_stack(samples)     # before init_state's Gram matrices
    config = SolverConfig() if config is None else _typed(config, SolverConfig, "config")
    factors, cores = init_state(samples, ranks)
    graph = _check_shapes(samples, cores, factors, graph)[1]
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
                              lambda n, z: _qf(_factor_cross_product(z, cores, mats, n)))
        t1 = time.perf_counter()
        np.copyto(old_flat, flat)
        _core_sweep(groups, config.beta * d_all, flat, flat)
        t2 = time.perf_counter()

        fit = _fit_from_d(norm_x ** 2, d_all, flat) if d_form else _fit(samples, cores, mats)
        total, l1, fit, manifold, sparsity = _terms(cores, fit, edges, config)
        if not np.isfinite(total):
            raise FloatingPointError(f"non-finite objective at iteration {it}")
        re = _relative_error(old_flat.reshape(cores.shape), old_mats, cores, mats, norm_x)
        moved = np.subtract(flat, old_flat, out=old_flat)
        bound = float(np.dot(decrease_coef, np.einsum("ip,ip->i", moved, moved)))
        t3 = time.perf_counter()
        t_factor, t_core, t_eval = (t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3
        wall_ms = (time.perf_counter() - t0) * 1e3
        trace.records.append(IterationRecord(
            iteration=it, objective=total, l1_term=l1, fit_term=fit, manifold_term=manifold,
            relative_error=re, decrease_slack=(prev_total - total) - bound,
            sparsity=sparsity, wall_ms=wall_ms, t_factor_ms=t_factor, t_core_ms=t_core,
            t_eval_ms=t_eval, t_other_ms=wall_ms - t_factor - t_core - t_eval))
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

    Factor residual: Frobenius norm of the fit term's U_n-gradient U_n G_(n) G_(n)^T - B_n
    (B_n the factor update's cross-product) projected onto the Stiefel tangent space at
    U_n, Y -> Y - U_n sym(U_n^T Y). The projection maps U_n S to zero for symmetric S
    (Absil, Mahony & Sepulchre 2008), so the residual is ||U_n sym(U_n^T B_n) - B_n||, the
    tangent part of -B_n. That needs orthonormal factors, so factors whose
    orthogonality_defect exceeds ORTHO_TOL are refused. Core residual: distance of G^(i)
    from the fixed point of its own prox update, whose step is beta / (beta + 2 s_i)
    (about 1e-7 at the defaults), so it reads in those units rather than in gradient
    units: a gradient of L that moves a whole graph component's cores together can be
    large while every core residual is small. Both vanish at stationary points.
    """
    _typed(config, SolverConfig, "config")
    samples, _ = _sample_stack(samples)      # names non-finite samples before any arithmetic
    cores, graph = _check_shapes(samples, cores, factors, graph)
    if (defect := FactorSet(*factors).orthogonality_defect()) > ORTHO_TOL:
        raise ValueError(f"factors are not orthonormal: orthogonality defect {defect:.3g} "
                         f"exceeds {ORTHO_TOL:g}")
    factor_res = np.zeros(3)

    def factor_block(n, z):             # records mode n's residual, keeps U_n
        u, b = factors[n], _factor_cross_product(z, cores, factors, n)
        utb = u.T @ b
        factor_res[n] = _norm(u @ (0.5 * (utb + utb.T)) - b)
        return u

    flat = cores.reshape(len(cores), -1)
    bd = _factor_phase(samples, list(factors), factor_block)
    bd *= config.beta
    fixed = np.empty_like(flat)
    _core_sweep(_core_groups(graph, 0, config, flat.shape[1]), bd, flat, fixed)
    return factor_res, np.linalg.norm(np.subtract(flat, fixed, out=fixed), axis=1)
