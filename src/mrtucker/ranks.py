"""Adaptive truncation-rank selection from mode-wise eigenvalue energy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _checked
from .tensor import _float64, _mode_gram, _real, _sample_stack, _typed

# Gram matrices of exactly low-rank data carry noise-level eigenvalues;
# values below this fraction of the largest are zeroed before forming ratios.
EIG_ZERO_REL = 1e-12

DEFAULT_SIGMAS = (0.90, 0.90, 0.9985)


@dataclass
class RankPolicy:
    sigmas: tuple[float, float, float] = DEFAULT_SIGMAS
    fixed_r3_to_n: bool = True   # keep R_3 = I_3 (mode-3 carries the feature channels)

    def __post_init__(self):
        if np.ndim(self.sigmas) != 1 or len(self.sigmas) != 3 or not all(
                _real(s) and 0.0 < s <= 1.0 for s in self.sigmas):
            raise ValueError(f"sigmas must be three numbers in (0, 1], got {self.sigmas!r}")


def mode_energy_spectrum(samples: np.ndarray, mode: int) -> np.ndarray:
    """Descending eigenvalues of sum_i X^(i)_(mode) X^(i)_(mode)^T; no eigenvectors formed."""
    # sample axis is 0, tensor modes are axes 1..N
    with np.errstate(over="ignore", invalid="ignore"):     # reported by _checked instead
        gram = _mode_gram(_float64(samples, "samples"), mode + 1)
    return np.linalg.eigvalsh(_checked(gram, "square"))[::-1]


def rank_from_spectrum(values: np.ndarray, sigma: float) -> int:
    """Smallest l with (sum of l largest eigenvalues) / (total) >= sigma."""
    vals = np.asarray(values, dtype=np.float64).copy()
    if vals.size == 0:
        raise ValueError("empty spectrum")
    vals[vals < EIG_ZERO_REL * max(vals.max(), 0.0)] = 0.0
    energy = np.cumsum(vals)
    if energy[-1] <= 0.0:
        raise ValueError("all-zero spectrum: cannot form energy ratios (the samples are 0, "
                         "or too small to square in float64)")
    ratios = energy / energy[-1]    # the total from the cumulative sum: the last ratio is 1
    return int(np.searchsorted(ratios, sigma - 1e-15) + 1)


def select_ranks(samples: np.ndarray, policy: RankPolicy | None = None) -> tuple[int, int, int]:
    """Pick (R_1, R_2, R_3) by the per-mode energy thresholds of the policy."""
    policy = RankPolicy() if policy is None else _typed(policy, RankPolicy, "policy")
    samples, _ = _sample_stack(samples)     # non-finite data fails here, before any Gram
    out = []
    for mode in range(3):
        if mode == 2 and policy.fixed_r3_to_n:
            out.append(samples.shape[3])
            continue
        spectrum = mode_energy_spectrum(samples, mode)
        out.append(rank_from_spectrum(spectrum, policy.sigmas[mode]))
    return tuple(out)
