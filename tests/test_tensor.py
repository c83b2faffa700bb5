"""Tensor primitive tests: unfolding/folding against a brute-force index map,
mode products against direct loop evaluation, and norm identities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mrtucker import mode_product, multi_mode_product, unfold


def layout_tensor(shape):
    """Tensor with entries 1..prod(shape) in flat-storage (first index fastest) order."""
    n = int(np.prod(shape))
    return np.reshape(np.arange(1.0, n + 1.0), shape, order="F")


def unfold_bruteforce(t, mode):
    """Independent oracle: enumerate the Kolda-Bader index map entry by entry.

    Column index of entry (i_1..i_N) is sum over k != mode of i_k * J_k with
    J_k = prod of extents of the modes before k, skipping `mode` (0-based).
    """
    shape = t.shape
    rest = [k for k in range(t.ndim) if k != mode]
    out = np.zeros((shape[mode], int(np.prod([shape[k] for k in rest], dtype=np.int64))))
    for idx in np.ndindex(*shape):
        col = 0
        stride = 1
        for k in rest:
            col += idx[k] * stride
            stride *= shape[k]
        out[idx[mode], col] = t[idx]
    return out


def fold(m, mode, shape):
    """Inverse of unfold for the given full tensor shape: the oracle unfold is
    checked against, and the unfolding route the mode products are checked on."""
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    m = np.asarray(m, dtype=np.float64)
    rest = shape[:mode] + shape[mode + 1:]
    expected = (shape[mode], int(np.prod(rest, dtype=np.int64)))
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not match unfolding {expected} of {shape}")
    return np.moveaxis(np.reshape(m, (shape[mode],) + rest, order="F"), 0, mode)


def test_unfold_2x2x2_mode1_hand_example():
    t = layout_tensor((2, 2, 2))
    expected = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
    assert_array_equal(unfold(t, 0), expected)
    assert_array_equal(unfold_bruteforce(t, 0), expected)


def test_unfold_matches_bruteforce_all_modes():
    rng = np.random.default_rng(0)
    for shape in [(2, 3), (3, 4, 5), (2, 3, 4, 2)]:
        t = rng.standard_normal(shape)
        for mode in range(len(shape)):
            assert_array_equal(unfold(t, mode), unfold_bruteforce(t, mode))


def test_unfold_order1_is_column():
    t = np.array([1.0, 2.0, 3.0])
    m = unfold(t, 0)
    assert m.shape == (3, 1)
    assert_array_equal(m.ravel(), t)


def test_fold_roundtrip_hand_example():
    t = layout_tensor((2, 2, 2))
    assert_array_equal(fold(unfold(t, 0), 0, t.shape), t)


def test_fold_scalar_shape():
    out = fold(np.array([[7.0]]), 0, (1, 1, 1))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 7.0


def test_fold_unfold_roundtrip_random():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 5))
    for mode in range(3):
        assert_array_equal(fold(unfold(t, mode), mode, t.shape), t)


def test_roundtrip_bit_exact_up_to_order4():
    rng = np.random.default_rng(2)
    for shape in [(4,), (3, 5), (2, 3, 4), (2, 3, 2, 4)]:
        t = rng.standard_normal(shape)
        for mode in range(len(shape)):
            back = fold(unfold(t, mode), mode, shape)
            assert np.array_equal(back, t)  # bit-exact


def test_mode_errors():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        unfold(t, 3)
    with pytest.raises(ValueError):
        unfold(t, -1)
    with pytest.raises(ValueError):
        fold(np.zeros((2, 4)), 3, (2, 2, 2))
    with pytest.raises(ValueError):
        fold(np.zeros((2, 5)), 0, (2, 2, 2))  # wrong column count


def mode_product_bruteforce(t, u, mode):
    """Direct evaluation of Y_{..r..} = sum_i X_{..i..} U_{r,i}."""
    new_shape = list(t.shape)
    new_shape[mode] = u.shape[0]
    out = np.zeros(new_shape)
    for idx in np.ndindex(*new_shape):
        acc = 0.0
        for i in range(t.shape[mode]):
            src = list(idx)
            src[mode] = i
            acc += t[tuple(src)] * u[idx[mode], i]
        out[idx] = acc
    return out


def test_mode_product_all_ones():
    t = np.ones((2, 2, 2))
    u = np.ones((1, 2))
    out = mode_product(t, u, 0)
    assert out.shape == (1, 2, 2)
    assert_array_equal(out, 2.0 * np.ones((1, 2, 2)))


def test_mode_product_identity():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 2))
    for mode in range(3):
        assert_array_equal(mode_product(t, np.eye(t.shape[mode]), mode), t)


def test_mode_product_matches_unfold_route_and_bruteforce():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 2))
    u = rng.standard_normal((5, 3))
    out = mode_product(t, u, 0)
    assert_allclose(out, fold(u @ unfold(t, 0), 0, (5, 4, 2)), rtol=1e-13, atol=0)
    assert_allclose(out, mode_product_bruteforce(t, u, 0), rtol=1e-12, atol=1e-14)


def test_mode_product_shape_mismatch():
    with pytest.raises(ValueError):
        mode_product(np.zeros((3, 4, 2)), np.zeros((5, 4)), 0)


def test_mode_product_zero_size_extents():
    # the matmul views take explicit extents: reshape(lead, I_n, -1) cannot
    # infer -1 on a size-0 array, where the tensordot route returned (0, 2, 4)
    out = mode_product(np.zeros((0, 3, 4)), np.ones((2, 3)), 1)
    assert out.shape == (0, 2, 4)
    assert_array_equal(mode_product(np.zeros((2, 0, 4)), np.ones((3, 0)), 1), np.zeros((2, 3, 4)))
    assert mode_product(np.zeros((2, 3, 0)), np.ones((5, 0)), 2).shape == (2, 3, 5)
    assert mode_product(np.zeros((0, 3)), np.ones((4, 3)), 1).shape == (0, 4)
    assert mode_product(np.ones((3, 2)), np.ones((0, 3)), 0).shape == (0, 2)
    assert unfold(np.zeros((2, 0, 3)), 1).shape == (0, 6)


def test_distinct_mode_products_commute():
    rng = np.random.default_rng(5)
    for _ in range(5):
        t = rng.standard_normal((3, 4, 2))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((5, 4))
        ab = mode_product(mode_product(t, a, 0), b, 1)
        ba = mode_product(mode_product(t, b, 1), a, 0)
        assert_allclose(ab, ba, rtol=1e-12)


def test_multi_mode_product_transpose_projects():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((4, 5, 3))
    mats = [np.linalg.qr(rng.standard_normal((e, 2)))[0] for e in t.shape]
    core = multi_mode_product(t, mats, transpose=True)
    assert core.shape == (2, 2, 2)
    direct = t.copy()
    for mode, u in enumerate(mats):
        direct = mode_product(direct, u.T, mode)
    assert_allclose(core, direct, rtol=1e-13)


def test_orthogonal_mode_product_preserves_norm():
    rng = np.random.default_rng(7)
    t = rng.standard_normal((3, 4, 5))
    for mode in range(3):
        q = np.linalg.qr(rng.standard_normal((t.shape[mode], t.shape[mode])))[0]
        out = mode_product(t, q, mode)
        assert_allclose(np.linalg.norm(out), np.linalg.norm(t), rtol=1e-12)


def test_tall_orthonormal_expansion_nonincreasing_norm():
    # Q^T on mode n after expansion by Q: norm equals original for square Q,
    # is non-increasing for tall Q with orthonormal columns.
    rng = np.random.default_rng(8)
    t = rng.standard_normal((4, 3, 2))
    q = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    reduced = mode_product(t, q.T, 0)
    assert np.linalg.norm(reduced) <= np.linalg.norm(t) + 1e-12


def test_unfold_preserves_frobenius():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((3, 4, 5))
    for mode in range(3):
        m = unfold(t, mode)
        # same multiset of entries, so the norm matches to summation order
        assert_array_equal(np.sort(m.ravel()), np.sort(t.ravel()))
        assert_allclose(np.linalg.norm(m), np.linalg.norm(t.ravel()), rtol=1e-14)
