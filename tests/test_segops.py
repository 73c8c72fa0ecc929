"""Property tests anchoring ``repro.util.segops`` to the ``ufunc.at`` semantics.

The segmented-reduction engine replaced every ``np.add.at`` /
``np.bitwise_or.at`` call site in the kernels; these tests pin the contract
that made that replacement safe: **bit-identical** results on arbitrary
segment layouts — empty segments, a single segment, unsorted ids, uint16
bitmap ORs, and float16/float32/float64 values (where the rounding order
of every intermediate addition matters).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.segops import (
    scatter_accumulate,
    segment_bitwise_or,
    segment_max,
    segment_sum,
)

# A segment layout: number of segments and per-element segment ids drawn
# so that empty segments, single-segment and unsorted layouts all occur.
layouts = st.integers(min_value=1, max_value=40).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=0, max_size=200),
    )
)

float_dtypes = st.sampled_from([np.float16, np.float32, np.float64])


def _reference_at(ufunc, ids, vals, num_segments, trailing=()):
    out = np.zeros((num_segments,) + trailing, dtype=vals.dtype)
    ufunc.at(out, ids, vals)
    return out


class TestSegmentSumBitIdentity:
    @given(layouts, float_dtypes, st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_add_at_floats(self, layout, dtype, seed):
        k, ids_list = layout
        ids = np.asarray(ids_list, dtype=np.int64)
        rng = np.random.default_rng(seed)
        vals = rng.normal(scale=4.0, size=ids.shape[0]).astype(dtype)
        got = segment_sum(vals, ids, k)
        want = _reference_at(np.add, ids, vals, k)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @given(layouts, st.integers(0, 2**32 - 1))
    @settings(max_examples=75, deadline=None)
    def test_matches_add_at_multicomponent(self, layout, seed):
        """Tile-shaped values (n, 4, 4), as the SpGEMM numeric phase uses."""
        k, ids_list = layout
        ids = np.asarray(ids_list, dtype=np.int64)
        rng = np.random.default_rng(seed)
        for dtype in (np.float64, np.float32):
            vals = rng.normal(size=(ids.shape[0], 4, 4)).astype(dtype)
            got = segment_sum(vals, ids, k)
            want = _reference_at(np.add, ids, vals, k, trailing=(4, 4))
            np.testing.assert_array_equal(got, want)

    @given(layouts, st.integers(0, 2**32 - 1))
    @settings(max_examples=75, deadline=None)
    def test_matches_add_at_integers(self, layout, seed):
        k, ids_list = layout
        ids = np.asarray(ids_list, dtype=np.int64)
        rng = np.random.default_rng(seed)
        vals = rng.integers(-(2**40), 2**40, size=ids.shape[0], dtype=np.int64)
        got = segment_sum(vals, ids, k)
        want = _reference_at(np.add, ids, vals, k)
        np.testing.assert_array_equal(got, want)

    @given(layouts, st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sorted_ids_fast_path(self, layout, seed):
        k, ids_list = layout
        ids = np.sort(np.asarray(ids_list, dtype=np.int64))
        rng = np.random.default_rng(seed)
        for dtype in (np.float16, np.float32, np.float64):
            vals = rng.normal(size=ids.shape[0]).astype(dtype)
            got = segment_sum(vals, ids, k, sorted_ids=True)
            want = _reference_at(np.add, ids, vals, k)
            np.testing.assert_array_equal(got, want)

    def test_empty_and_out_of_range(self):
        out = segment_sum(np.zeros(0), np.zeros(0, dtype=np.int64), 5)
        np.testing.assert_array_equal(out, np.zeros(5))
        with pytest.raises(ValueError):
            segment_sum(np.ones(2), np.array([0, 7]), 5)
        with pytest.raises(ValueError):
            segment_sum(np.ones(2), np.array([-1, 0]), 5)
        with pytest.raises(ValueError):
            segment_sum(np.ones(3), np.array([0, 1]), 5)


class TestSegmentBitwiseOr:
    @given(layouts, st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_bitwise_or_at_uint16(self, layout, seed):
        """uint16 maps — exactly the mBSR bitmap accumulation pattern."""
        k, ids_list = layout
        ids = np.asarray(ids_list, dtype=np.int64)
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, 2**16, size=ids.shape[0]).astype(np.uint16)
        got = segment_bitwise_or(vals, ids, k)
        want = _reference_at(np.bitwise_or, ids, vals, k)
        assert got.dtype == np.uint16
        np.testing.assert_array_equal(got, want)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            segment_bitwise_or(np.ones(2), np.array([0, 1]), 3)


class TestSegmentMax:
    @given(layouts, st.integers(0, 2**32 - 1))
    @settings(max_examples=75, deadline=None)
    def test_matches_maximum_at(self, layout, seed):
        k, ids_list = layout
        ids = np.asarray(ids_list, dtype=np.int64)
        rng = np.random.default_rng(seed)
        for dtype in (np.float64, np.int64):
            vals = rng.normal(scale=10.0, size=ids.shape[0]).astype(dtype)
            got = segment_max(vals, ids, k)
            want = _reference_at(np.maximum, ids, vals, k)
            np.testing.assert_array_equal(got, want)

    def test_initial_fills_empty_segments(self):
        out = segment_max(
            np.array([3.0]), np.array([1]), 3, initial=-np.inf
        )
        assert out[0] == -np.inf and out[1] == 3.0 and out[2] == -np.inf


class TestScatterAccumulateDispatcher:
    def test_dispatch(self):
        ids = np.array([2, 0, 2, 1])
        np.testing.assert_array_equal(
            scatter_accumulate(np.ones(4), ids, 3, "add"), [1.0, 1.0, 2.0]
        )
        np.testing.assert_array_equal(
            scatter_accumulate(
                np.array([1, 2, 4, 8], dtype=np.uint16), ids, 3, "or"
            ),
            np.array([2, 8, 5], dtype=np.uint16),
        )
        np.testing.assert_array_equal(
            scatter_accumulate(np.array([5.0, 1.0, 3.0, 2.0]), ids, 3, "max"),
            [1.0, 2.0, 5.0],
        )
        with pytest.raises(ValueError):
            scatter_accumulate(np.ones(4), ids, 3, "mean")
