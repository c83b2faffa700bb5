"""Rank selection from mode-wise eigenvalue energy thresholds."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mrtucker import RankPolicy, SynthSpec, generate, select_ranks, sym_eig
from mrtucker.ranks import mode_energy_spectrum, rank_from_spectrum
from mrtucker.tensor import _mode_gram

from graphs import WORKLOAD_SPECS

# the energy thresholds the parity tests try, the paper's 0.9 and 0.9985 among them
SIGMAS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.9985, 0.999, 1.0)


def superdiagonal_tensor(values):
    """(len, len, len) tensor with the given values on the superdiagonal; its
    mode-n Gram is diag(values^2) for every mode."""
    n = len(values)
    t = np.zeros((n, n, n))
    for i, v in enumerate(values):
        t[i, i, i] = v
    return t


def eigenvector_spectrum(x, mode: int) -> np.ndarray:
    """The oracle: the descending eigenvalues of the mode Gram by way of the full
    eigendecomposition, sym_eig's symmetrised copy and sign fixing included."""
    return sym_eig(_mode_gram(np.asarray(x, dtype=np.float64), mode + 1))[0]


def assert_rank_parity(x) -> None:
    """mode_energy_spectrum agrees with the oracle's spectra to 1e-13 of the largest
    eigenvalue, and select_ranks picks the oracle's ranks at every sigma of SIGMAS."""
    oracle = [eigenvector_spectrum(x, mode) for mode in range(3)]
    for mode, want in enumerate(oracle):
        assert np.abs(mode_energy_spectrum(x, mode) - want).max() <= 1e-13 * want[0]
    for sigma in SIGMAS:
        policy = RankPolicy(sigmas=(sigma,) * 3, fixed_r3_to_n=False)
        assert select_ranks(x, policy) == tuple(rank_from_spectrum(s, sigma) for s in oracle)


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SPECS))
@pytest.mark.parametrize("seed", [0, 17])
def test_ranks_of_the_spectrum_alone_are_the_eigenvector_routes(workload, seed):
    assert_rank_parity(generate(SynthSpec(**WORKLOAD_SPECS[workload][0], seed=seed))[0])


def test_rank_parity_on_the_desk_instances():
    # the eight instances of each benchmark desk run at seeds 0-19: generator seeds 0-159
    for seed in range(160):
        assert_rank_parity(generate(SynthSpec(seed=seed))[0])


@pytest.mark.filterwarnings("error")
def test_rank_parity_on_noiseless_and_rescaled_stacks():
    # exactly low-rank stacks, whose Grams carry noise-level eigenvalues past the rank, and
    # stacks scaled by 2^260 (Gram entries near 1e160, whose squares overflow) and 2^-260
    for seed in range(10):
        assert_rank_parity(generate(SynthSpec(noise=0.0, seed=seed))[0])
    assert_rank_parity(generate(SynthSpec(**WORKLOAD_SPECS["large_tensor"][0], noise=0.0))[0])
    x, _ = generate(SynthSpec(seed=0))
    for e in (260, -260):
        assert_rank_parity(x * 2.0 ** e)


@st.composite
def repeat_stacks(draw):
    """Small stacks with exact repeats: entries from -2..2 and repeated samples, whose
    Grams have exact zero and repeated eigenvalues, or superdiagonal samples whose Grams
    are diagonal with repeated entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(-2, 3, (draw(st.integers(1, 3)),) + tuple(
            draw(st.integers(1, 5)) for _ in range(3))).astype(np.float64)
        x = x[rng.integers(0, len(x), draw(st.integers(1, 6)))]
    else:
        x = superdiagonal_tensor(rng.choice([1.0, 2.0, 3.0], draw(st.integers(1, 6))))[None]
    assume(np.any(x))
    return x


@given(repeat_stacks())
def test_rank_parity_with_exact_repeats(x):
    assert_rank_parity(x)


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
    # True is 1 to Python and "0.9" has three characters: neither is three sigmas
    for sigmas in [(True,) * 3, "0.9", 0.9]:
        with pytest.raises(ValueError, match="sigmas must be three numbers"):
            RankPolicy(sigmas=sigmas)


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
@pytest.mark.parametrize("mode", [0, 1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
def test_mode_energy_spectrum_rejects_a_non_finite_gram(value, mode):
    # unchecked samples reach the Gram: a NaN or inf entry, or one whose square overflows,
    # is a ValueError, not a warning or a spectrum
    x = np.ones((4, 3, 3, 2))
    x[2, 0, 1, 1] = value
    with pytest.raises(ValueError, match="non-finite entries in matrix"):
        mode_energy_spectrum(x, mode)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [bool, complex, object, str])
def test_mode_energy_spectrum_refuses_entries_that_are_not_real(dtype):
    # refused, not cast: no imaginary part dropped, no bool or string read as a number
    with pytest.raises(ValueError, match="samples must hold integers or floats"):
        mode_energy_spectrum(np.ones((4, 3, 3, 2)).astype(dtype), 0)


@pytest.mark.filterwarnings("error")
def test_select_ranks_at_a_scale_whose_gram_norms_overflow():
    # Gram entries near 1e160: their squares overflow, but the ranks read the eigenvalues
    # alone and form no norm of a Gram (sym_eig's scaled norms: test_linalg.py)
    x, _ = generate(SynthSpec(seed=0))
    assert select_ranks(x * 2.0 ** 260) == select_ranks(x)
