"""Property tests of the mode products: every order 1-4 and every mode,
J below and above I_n, size-0 extents, and non-contiguous inputs, against the
unfolding route and a brute-force sum; and of the stacks' mode Grams and
two-stack mode contractions against the unfolding route."""

import contextlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from mrtucker import mode_product, multi_mode_product, tensor, unfold
from slabs import cut_into_slabs
from test_tensor import fold, mode_product_bruteforce

ENTRIES = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
TOL = {"rtol": 1e-12, "atol": 1e-11}


@st.composite
def arrays(draw, shape, elements=ENTRIES):
    """A float64 array of the given shape: contiguous, a transposed view of
    another array, or a strided slice of a larger one."""
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    if layout == "transposed":
        perm = draw(st.permutations(range(len(shape))))
        base = draw(hnp.arrays(np.float64, tuple(shape[p] for p in np.argsort(perm)),
                               elements=elements))
        return base.transpose(perm)
    if layout == "strided":
        base = draw(hnp.arrays(np.float64, tuple(2 * s for s in shape), elements=elements))
        return base[(slice(None, None, 2),) * len(shape)]
    return draw(hnp.arrays(np.float64, shape, elements=elements))


@st.composite
def products(draw):
    """(t, u, mode) for t of order 1-4 with extents 0-4 and u of shape (J, I_n),
    J from 0 to 6, so both J < I_n and J > I_n occur."""
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)))
    mode = draw(st.integers(0, len(shape) - 1))
    j = draw(st.integers(0, 6))
    return draw(arrays(shape)), draw(arrays((j, shape[mode]))), mode


@given(products())
def test_mode_product_matches_unfold_route_and_bruteforce(case):
    t, u, mode = case
    out = mode_product(t, u, mode)
    shape = t.shape[:mode] + (u.shape[0],) + t.shape[mode + 1:]
    assert out.shape == shape
    assert_allclose(out, fold(u @ unfold(t, mode), mode, shape), **TOL)
    assert_allclose(out, mode_product_bruteforce(t, u, mode), **TOL)


@given(st.data())
def test_products_on_distinct_modes_commute(data):
    shape = tuple(data.draw(st.lists(st.integers(0, 4), min_size=2, max_size=4)))
    a, b = data.draw(st.lists(st.integers(0, len(shape) - 1), min_size=2, max_size=2,
                              unique=True))
    t = data.draw(arrays(shape))
    ua = data.draw(arrays((data.draw(st.integers(0, 6)), shape[a])))
    ub = data.draw(arrays((data.draw(st.integers(0, 6)), shape[b])))
    assert_allclose(mode_product(mode_product(t, ua, a), ub, b),
                    mode_product(mode_product(t, ub, b), ua, a), **TOL)


@given(st.data())
def test_multi_mode_product_transpose_applies_each_in_turn(data):
    # any distinct modes in any order, none included (the mode-3 cross-product's core
    # side passes no factor), each matrix applied as given or transposed
    shape = tuple(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)))
    modes = data.draw(st.permutations(range(len(shape))))[:data.draw(
        st.integers(0, len(shape)))]
    transpose = data.draw(st.booleans())
    t = data.draw(arrays(shape))
    mats = []
    for m in modes:
        other = data.draw(st.integers(0, 6))
        mats.append(data.draw(arrays((shape[m], other) if transpose else (other, shape[m]))))
    expected = t
    for u, m in zip(mats, modes):
        expected = mode_product(expected, u.T if transpose else u, m)
    assert_array_equal(multi_mode_product(t, mats, modes=modes, transpose=transpose), expected)


def assert_matches_unfold_route(got, ya, yb):
    """got == ya @ yb.T to the rounding of its partial sums, which |ya| @ |yb|.T bounds
    (for a Gram, its largest entry is that of ya @ ya.T)."""
    scale = (np.abs(ya) @ np.abs(yb).T).max(initial=0.0)
    assert_allclose(got, ya @ yb.T, rtol=1e-13, atol=1e-13 * scale)


@given(st.data())
def test_mode_gram_matches_unfold_route(data):
    # every sample mode of stacks with extents 0-4, in any layout (Fortran order
    # too): the raw Gram, accumulated over ~1 MB slabs or over slabs of 1 or 20
    # floats, the stack then holding more samples than a slab floats so that it
    # spans several; and _gram's product with a second stack whose extent in that
    # mode is drawn on its own (0-4), each stack C-ordered or Fortran-ordered
    slab = data.draw(st.sampled_from([None, 1, 20]))
    shape = (data.draw(st.integers(1, 5)) + (slab or 0),) + tuple(
        data.draw(st.lists(st.integers(0, 4), min_size=3, max_size=3)))
    x = data.draw(arrays(shape))
    with cut_into_slabs(slab) if slab else contextlib.nullcontext():
        for mode in (1, 2, 3):
            y = unfold(x, mode)
            other = data.draw(arrays(shape[:mode] + (data.draw(st.integers(0, 4)),)
                                     + shape[mode + 1:]))
            for layout in (x, np.asfortranarray(x)):
                assert_matches_unfold_route(tensor._mode_gram(layout, mode), y, y)
                for b in (other, np.asfortranarray(other)):
                    assert_matches_unfold_route(tensor._gram(layout, mode, b), y,
                                                unfold(other, mode))
    for mode in (0, 4):
        with pytest.raises(ValueError):
            tensor._mode_gram(x, mode)
    with pytest.raises(ValueError):         # the stacks differ off the mode
        tensor._gram(x, 1, np.zeros(shape[:3] + (shape[3] + 1,)))
