"""Thin SVD / qf / symmetric eigendecomposition contracts, including the
random-orthonormal-sampling oracle for qf optimality."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mrtucker import SynthSpec, generate, qf, sym_eig, thin_svd
from mrtucker.tensor import _mode_gram


def random_stiefel(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


def test_thin_svd_identity():
    u, s, v = thin_svd(np.eye(3))
    assert_allclose(s, np.ones(3), rtol=0, atol=1e-14)
    assert_allclose(u @ v.T, np.eye(3), atol=1e-14)


def test_thin_svd_diag():
    _, s, _ = thin_svd(np.diag([3.0, 2.0]))
    assert_allclose(s, [3.0, 2.0], rtol=1e-14)


def test_thin_svd_random_residual():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((6, 3))
        u, s, v = thin_svd(a)
        assert np.linalg.norm(a - (u * s) @ v.T) <= 1e-8 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-10
        assert np.linalg.norm(v.T @ v - np.eye(3)) <= 1e-10
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_thin_svd_rejects_wide_and_nonfinite():
    with pytest.raises(ValueError):
        thin_svd(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        thin_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_qf_identity_and_scaling():
    assert_allclose(qf(np.eye(3)), np.eye(3), atol=1e-12)
    assert_allclose(qf(2.0 * np.eye(3)), np.eye(3), atol=1e-12)


def test_qf_rotation_fixed_point():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert_allclose(qf(rot), rot, atol=1e-12)


def test_qf_idempotent_on_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = random_stiefel(rng, 6, 3)
        assert np.linalg.norm(qf(u) - u) <= 1e-10


def test_qf_scale_invariance_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((5, 3))
        for c in (0.5, 3.0, 1e6):
            assert np.linalg.norm(qf(c * a) - qf(a)) <= 1e-10


def test_qf_maximizes_trace_inner_product():
    # <qf(A), A> = nuclear norm of A, and beats random orthonormal Q
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    best = float(np.sum(np.linalg.svd(a, compute_uv=False)))
    val = float(np.tensordot(qf(a), a))
    assert abs(val - best) <= 1e-8 * best
    for _ in range(1000):
        q = random_stiefel(rng, 5, 3)
        assert float(np.tensordot(q, a)) <= val + 1e-10


def test_qf_rank_deficient_is_valid_and_deterministic():
    a = np.zeros((4, 2))
    a[0, 0] = 1.0  # second column identically zero
    u1 = qf(a)
    u2 = qf(a)
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1.T @ u1 - np.eye(2)) <= 1e-10


def test_sym_eig_diag_example():
    values, _ = sym_eig(np.diag([5.0, 3.0, 1.0, 1.0]))
    assert_allclose(values, [5.0, 3.0, 1.0, 1.0], rtol=1e-14)


def test_sym_eig_identity():
    values, _ = sym_eig(np.eye(4))
    assert_allclose(values, np.ones(4), rtol=1e-14)


def test_sym_eig_gram_psd_and_reconstructs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        b = rng.standard_normal((6, 4))
        g = b.T @ b
        values, vectors = sym_eig(g)
        assert np.all(values >= -1e-10)
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.linalg.norm(recon - g) <= 1e-8 * max(1.0, np.linalg.norm(g))
        assert np.linalg.norm(vectors.T @ vectors - np.eye(4)) <= 1e-10


def test_sym_eig_rejects_asymmetric_and_nonsquare():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_eig(np.zeros((2, 3)))


@pytest.mark.filterwarnings("error")
def test_sym_eig_on_a_gram_whose_squared_entries_overflow():
    # the mode-1 Gram of the desk stack scaled by 2^260 has entries near 1e160: a plain
    # norm overflows, but the symmetry check's norms are taken at a power-of-two scale
    x, _ = generate(SynthSpec(seed=0))
    g = _mode_gram(x * 2.0 ** 260, 1)
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(g))
    values, vectors = sym_eig(g)
    ref_values, ref_vectors = sym_eig(_mode_gram(x, 1))
    assert np.abs(values - ref_values * 2.0 ** 520).max() <= 1e-13 * values[0]
    assert np.linalg.norm(vectors.T @ vectors - np.eye(len(g))) <= 1e-12
    assert_allclose(vectors[:, 0], ref_vectors[:, 0], atol=1e-12)


def test_sign_convention_reproducible():
    # the same matrix decomposed twice gives bit-identical factors
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 4))
    (u1, _, v1), (u2, _, v2) = thin_svd(a), thin_svd(a)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    largest = u1[np.argmax(np.abs(u1), axis=0), np.arange(4)]
    assert np.all(largest > 0)  # largest-magnitude entry of each column positive
