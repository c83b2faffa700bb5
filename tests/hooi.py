"""An independent HOOI reference for cross-checking the solver in its
gamma -> inf, W = 0 limit. Plain numpy, sharing no code with mrtucker:
eigen-based rather than built on the solver's qf update path, and with its
own unfoldings and mode products."""

import numpy as np


def _project(stacked: np.ndarray, mats, modes) -> np.ndarray:
    """stacked times mats[k] transposed in tensor mode modes[k] (sample axis 0)."""
    for u, mode in zip(mats, modes):
        stacked = np.moveaxis(np.tensordot(stacked, u, axes=([mode + 1], [0])), -1, mode + 1)
    return stacked


def _leading_subspace(stacked: np.ndarray, mode: int, rank: int) -> np.ndarray:
    """Top eigenvectors of the accumulated mode-n Gram over the sample stack."""
    y = np.moveaxis(stacked, mode + 1, 0).reshape(stacked.shape[mode + 1], -1)
    return np.linalg.eigh(y @ y.T)[1][:, ::-1][:, :rank]


def hooi_oracle(samples, ranks, max_iter: int = 100, tol: float = 1e-10):
    """(factors, cores) of plain alternating orthogonal Tucker on the stacked
    samples (identity factor on the sample mode); no sparsity, no manifold term."""
    samples = np.asarray(samples, dtype=np.float64)
    ranks = tuple(int(r) for r in ranks)
    if any(not 1 <= r <= e for r, e in zip(ranks, samples.shape[1:])):
        raise ValueError(f"ranks {ranks} incompatible with extents {samples.shape[1:]}")

    mats = [_leading_subspace(samples, n, ranks[n]) for n in range(3)]  # HOSVD start
    prev_fit = None
    for _ in range(max_iter):
        for n in range(3):
            other = [k for k in range(3) if k != n]
            y = _project(samples, [mats[k] for k in other], other)
            mats[n] = _leading_subspace(y, n, ranks[n])
        cores = _project(samples, mats, range(3))
        # for orthonormal projections the fit is ||X||^2 - ||G||^2
        fit = 0.5 * (float(np.dot(samples.ravel(), samples.ravel()))
                     - float(np.dot(cores.ravel(), cores.ravel())))
        if prev_fit is not None and abs(prev_fit - fit) <= tol * max(1.0, abs(prev_fit)):
            break
        prev_fit = fit
    return tuple(mats), _project(samples, mats, range(3))
