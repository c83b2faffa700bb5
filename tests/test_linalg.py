"""Thin SVD / qf / symmetric eigendecomposition contracts, including the
random-orthonormal-sampling oracle for qf optimality."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mrtucker import qf, sym_eig, thin_svd


def random_stiefel(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


def test_thin_svd_identity():
    d = thin_svd(np.eye(3))
    assert_allclose(d.s, np.ones(3), rtol=0, atol=1e-14)
    assert_allclose(d.u @ d.v.T, np.eye(3), atol=1e-14)


def test_thin_svd_diag():
    d = thin_svd(np.diag([3.0, 2.0]))
    assert_allclose(d.s, [3.0, 2.0], rtol=1e-14)


def test_thin_svd_random_residual():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((6, 3))
        d = thin_svd(a)
        assert np.linalg.norm(a - (d.u * d.s) @ d.v.T) <= 1e-8 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(d.u.T @ d.u - np.eye(3)) <= 1e-10
        assert np.linalg.norm(d.v.T @ d.v - np.eye(3)) <= 1e-10
        assert np.all(np.diff(d.s) <= 0) and np.all(d.s >= 0)


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
    e = sym_eig(np.diag([5.0, 3.0, 1.0, 1.0]))
    assert_allclose(e.values, [5.0, 3.0, 1.0, 1.0], rtol=1e-14)


def test_sym_eig_identity():
    e = sym_eig(np.eye(4))
    assert_allclose(e.values, np.ones(4), rtol=1e-14)


def test_sym_eig_gram_psd_and_reconstructs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        b = rng.standard_normal((6, 4))
        g = b.T @ b
        e = sym_eig(g)
        assert np.all(e.values >= -1e-10)
        recon = e.vectors @ np.diag(e.values) @ e.vectors.T
        assert np.linalg.norm(recon - g) <= 1e-8 * max(1.0, np.linalg.norm(g))
        assert np.linalg.norm(e.vectors.T @ e.vectors - np.eye(4)) <= 1e-10


def test_sym_eig_rejects_asymmetric_and_nonsquare():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_eig(np.zeros((2, 3)))


def test_sign_convention_reproducible():
    # the same matrix decomposed twice gives bit-identical factors
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 4))
    d1, d2 = thin_svd(a), thin_svd(a)
    assert np.array_equal(d1.u, d2.u) and np.array_equal(d1.v, d2.v)
    largest = d1.u[np.argmax(np.abs(d1.u), axis=0), np.arange(4)]
    assert np.all(largest > 0)  # largest-magnitude entry of each column positive
