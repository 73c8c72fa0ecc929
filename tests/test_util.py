"""Tests for repro.util: prefix sums, hashing, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.hashing import HashTable, distinct_per_segment, next_pow2
from repro.util.prefix_sum import (
    counts_to_ptr,
    exclusive_scan,
    inclusive_scan,
    ptr_to_counts,
)
from repro.util.validation import check_1d, check_square, require


class TestPrefixSum:
    def test_exclusive_scan_basic(self):
        np.testing.assert_array_equal(exclusive_scan([3, 1, 2]), [0, 3, 4, 6])

    def test_exclusive_scan_empty(self):
        np.testing.assert_array_equal(exclusive_scan([]), [0])

    def test_inclusive_scan(self):
        np.testing.assert_array_equal(inclusive_scan([3, 1, 2]), [3, 4, 6])

    def test_ptr_counts_inverse(self):
        counts = np.array([0, 5, 2, 0, 7])
        np.testing.assert_array_equal(ptr_to_counts(counts_to_ptr(counts)), counts)

    def test_ptr_to_counts_rejects_empty(self):
        with pytest.raises(ValueError):
            ptr_to_counts(np.zeros((0,)))

    @given(st.lists(st.integers(0, 50), max_size=40))
    def test_property_scan_shapes(self, counts):
        ptr = counts_to_ptr(counts)
        assert ptr.shape == (len(counts) + 1,)
        assert ptr[0] == 0
        assert ptr[-1] == sum(counts)
        assert np.all(np.diff(ptr) >= 0)


class TestNextPow2:
    @pytest.mark.parametrize(
        "n,expected", [(0, 1), (1, 1), (2, 2), (3, 4), (128, 128), (129, 256)]
    )
    def test_values(self, n, expected):
        assert next_pow2(n) == expected


class TestHashTable:
    def test_insert_reports_new(self):
        t = HashTable(8)
        assert t.insert(5) is True
        assert t.insert(5) is False
        assert t.insert(13) is True  # 13 & 7 == 5: collision path
        assert len(t) == 2

    def test_contains(self):
        t = HashTable(16)
        for k in [1, 17, 33]:
            t.insert(k)
        assert 17 in t
        assert 2 not in t

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            HashTable(4).insert(-1)

    def test_overflow_raises(self):
        t = HashTable(2)
        t.insert(0)
        t.insert(1)
        with pytest.raises(RuntimeError):
            t.insert(2)

    def test_compress_sorted(self):
        t = HashTable(32)
        keys = [9, 3, 27, 3, 14]
        for k in keys:
            t.insert(k)
        np.testing.assert_array_equal(t.compress_sorted(), sorted(set(keys)))

    @given(st.lists(st.integers(0, 1000), max_size=60))
    @settings(max_examples=50)
    def test_property_behaves_like_set(self, keys):
        t = HashTable(max(len(keys) * 2, 4))
        seen = set()
        for k in keys:
            assert t.insert(k) == (k not in seen)
            seen.add(k)
        np.testing.assert_array_equal(t.compress_sorted(), sorted(seen))


class TestSegmentedDistinct:
    def _reference(self, keys, ptr):
        """Scalar HashTable reference for the vectorised helpers."""
        counts, all_keys = [], []
        for i in range(len(ptr) - 1):
            seg = keys[ptr[i]: ptr[i + 1]]
            t = HashTable(max(len(seg) * 2, 4))
            for k in seg:
                t.insert(int(k))
            counts.append(len(t))
            all_keys.append(t.compress_sorted())
        return np.array(counts), all_keys

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=10).flatmap(
            lambda sizes: st.tuples(
                st.just(sizes),
                st.lists(
                    st.integers(0, 20),
                    min_size=sum(sizes),
                    max_size=sum(sizes),
                ),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_hash_table(self, sizes_keys):
        sizes, keys = sizes_keys
        ptr = counts_to_ptr(sizes)
        keys = np.array(keys, dtype=np.int64)
        seg = np.repeat(np.arange(len(sizes)), sizes)
        ref_counts, ref_keys = self._reference(keys, ptr)
        out = distinct_per_segment(seg, keys, len(sizes), 21)
        np.testing.assert_array_equal(ptr_to_counts(out.ptr), ref_counts)
        for i, rk in enumerate(ref_keys):
            np.testing.assert_array_equal(out.keys[out.ptr[i]: out.ptr[i + 1]], rk)
        # The entries behind each distinct key, in input order.
        key_of = np.repeat(out.keys, np.diff(out.entry_ptr))
        seg_of = np.repeat(np.repeat(np.arange(len(sizes)), np.diff(out.ptr)),
                           np.diff(out.entry_ptr))
        np.testing.assert_array_equal(keys[out.order], key_of)
        np.testing.assert_array_equal(seg[out.order], seg_of)
        np.testing.assert_array_equal(out.order, np.lexsort((keys, seg)))

    def test_empty_stream(self):
        out = distinct_per_segment(np.zeros(0, np.int64), np.zeros(0, np.int64), 2, 1)
        assert out.keys.shape == (0,) and out.order.shape == (0,)
        np.testing.assert_array_equal(out.ptr, [0, 0, 0])
        np.testing.assert_array_equal(out.entry_ptr, [0])


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_check_1d(self):
        out = check_1d([1, 2, 3], "x")
        assert out.ndim == 1
        with pytest.raises(ValueError):
            check_1d(np.zeros((2, 2)), "x")

    def test_check_square(self):
        check_square((3, 3))
        with pytest.raises(ValueError):
            check_square((3, 4))
