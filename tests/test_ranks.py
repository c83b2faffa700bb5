"""Rank selection from mode-wise eigenvalue energy thresholds."""

import numpy as np
import pytest

from mrtucker import RankPolicy, SynthSpec, generate, select_ranks
from mrtucker.ranks import mode_energy_spectrum, rank_from_spectrum


def superdiagonal_tensor(values):
    """(len, len, len) tensor with the given values on the superdiagonal; its
    mode-n Gram is diag(values^2) for every mode."""
    n = len(values)
    t = np.zeros((n, n, n))
    for i, v in enumerate(values):
        t[i, i, i] = v
    return t


def test_rank_from_spectrum_hand_example():
    # cumulative fractions 0.5, 0.8, 0.9, 1.0 -> first crossing of 0.8 at l=2
    assert rank_from_spectrum(np.array([5.0, 3.0, 1.0, 1.0]), 0.8) == 2


def test_rank_from_spectrum_edges():
    spectrum = np.array([5.0, 3.0, 1.0, 1.0])
    assert rank_from_spectrum(spectrum, 1.0) == 4
    assert rank_from_spectrum(spectrum, 0.5) == 1
    assert rank_from_spectrum(spectrum, 1e-9) == 1
    with pytest.raises(ValueError):
        rank_from_spectrum(np.array([]), 0.5)
    with pytest.raises(ValueError):
        rank_from_spectrum(np.zeros(3), 0.5)


def test_rank_at_sigma_one_stays_within_the_spectrum():
    # the last energy ratio is exactly 1, so sigma = 1 never asks for one more value than
    # there are: a stack whose mode-1 energies span four decades, and log-uniform spectra
    rng = np.random.default_rng(21)
    x = rng.standard_normal((12, 100, 6, 2)) * 10.0 ** rng.uniform(-2, 2, (1, 100, 1, 1))
    assert select_ranks(x, RankPolicy(sigmas=(1.0, 0.9, 0.9)))[0] <= 100
    rng = np.random.default_rng(0)
    for n in (48, 100):
        for _ in range(2000):
            spectrum = np.sort(10.0 ** rng.uniform(-8, 8, n))[::-1]
            assert rank_from_spectrum(spectrum, 1.0) <= n


def test_select_ranks_constructed_spectrum():
    # one sample with exact mode-energy spectrum (5, 3, 1, 1) on every mode
    x = superdiagonal_tensor(np.sqrt([5.0, 3.0, 1.0, 1.0]))[None]
    policy = RankPolicy(sigmas=(0.8, 0.8, 0.8), fixed_r3_to_n=False)
    spectrum = mode_energy_spectrum(x, 0)
    np.testing.assert_allclose(spectrum, [5.0, 3.0, 1.0, 1.0], rtol=1e-12)
    assert np.array_equal(mode_energy_spectrum(x.tolist(), 0), spectrum)   # any array-like
    assert select_ranks(x, policy) == (2, 2, 2)


def test_select_ranks_sigma_one_full_rank():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 5, 6))
    policy = RankPolicy(sigmas=(1.0, 1.0, 1.0), fixed_r3_to_n=False)
    assert select_ranks(x, policy) == (4, 5, 6)


def test_single_rank1_sample():
    a, b, c = np.ones(4), np.arange(1.0, 6.0), np.array([2.0, -1.0, 0.5])
    x = np.einsum("i,j,k->ijk", a, b, c)[None]
    policy = RankPolicy(sigmas=(0.99, 0.99, 0.99), fixed_r3_to_n=False)
    assert select_ranks(x, policy) == (1, 1, 1)


def test_exact_low_rank_data_bounded():
    # data confined to rank-r mode subspaces never selects more than r
    rng = np.random.default_rng(1)
    u = [np.linalg.qr(rng.standard_normal((e, r)))[0] for e, r in [(8, 3), (7, 2), (6, 4)]]
    cores = rng.standard_normal((5, 3, 2, 4))
    x = np.einsum("mabc,ia,jb,kc->mijk", cores, *u)
    policy = RankPolicy(sigmas=(1.0, 1.0, 1.0), fixed_r3_to_n=False)
    r = select_ranks(x, policy)
    assert r[0] <= 3 and r[1] <= 2 and r[2] <= 4


def test_fixed_r3_flag():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 5, 5, 6))
    assert select_ranks(x, RankPolicy(sigmas=(0.5, 0.5, 0.5)))[2] == 6
    free = select_ranks(x, RankPolicy(sigmas=(0.5, 0.5, 0.5), fixed_r3_to_n=False))
    assert free[2] < 6


def test_monotone_in_sigma():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 8, 7, 5))
    prev = None
    for sigma in np.linspace(0.1, 1.0, 10):
        policy = RankPolicy(sigmas=(sigma, sigma, sigma), fixed_r3_to_n=False)
        r = select_ranks(x, policy)
        if prev is not None:
            assert all(a >= b for a, b in zip(r, prev))
        prev = r


def test_policy_validation():
    with pytest.raises(ValueError):
        RankPolicy(sigmas=(0.0, 0.5, 0.5))
    with pytest.raises(ValueError):
        RankPolicy(sigmas=(0.5, 1.1, 0.5))
    with pytest.raises(ValueError):
        RankPolicy(sigmas=(0.5, 0.5))


def test_bad_sample_sets():
    with pytest.raises(ValueError):
        select_ranks(np.zeros((2, 3, 3)), RankPolicy())      # not order-4
    with pytest.raises(ValueError):
        select_ranks(np.zeros((2, 3, 3, 3)), RankPolicy(fixed_r3_to_n=False))  # all-zero


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
def test_non_finite_samples_rejected_before_gram(value):
    # a 1e300 entry squares past float64: ||X||^2 overflows although every
    # entry is finite
    x = np.ones((4, 3, 3, 2))
    x[2, 0, 1, 1] = value
    with pytest.raises(ValueError, match=r"at samples \[2\]"):
        select_ranks(x)


@pytest.mark.filterwarnings("error")
def test_select_ranks_at_a_scale_whose_gram_norms_overflow():
    # Gram entries near 1e160: their squares overflow, but the norms of sym_eig's
    # symmetry check are taken at a power-of-two scale
    x, _ = generate(SynthSpec(seed=0))
    assert select_ranks(x * 2.0 ** 260) == select_ranks(x)
