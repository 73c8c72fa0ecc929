"""Tests for the mBSR SpGEMM pipeline: analysis, symbolic, numeric, driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.bitmap import bitmap_multiply, bitmap_popcount
from repro.formats.convert import csr_to_mbsr, mbsr_to_csr
from repro.gpu.counters import Precision
from repro.kernels.spgemm import mbsr_spgemm
from repro.kernels.spgemm_analysis import BIN_BOUNDS, NUM_BINS, analyse_and_bin
from repro.kernels.spgemm_numeric import numeric_spgemm
from repro.kernels.spgemm_symbolic import expand_candidate_pairs, symbolic_spgemm

from conftest import random_csr


def mbsr_pair(seed, m=37, k=29, n=41, da=0.12, db=0.12):
    a = random_csr(m, k, da, seed=seed)
    b = random_csr(k, n, db, seed=seed + 1000)
    return csr_to_mbsr(a), csr_to_mbsr(b), a, b


class TestAnalysis:
    def test_bin_bounds_match_paper(self):
        # "starts from a minimum of 128 and increases by powers of 2 until
        # it reaches 8192" -> 8 bins.
        np.testing.assert_array_equal(
            BIN_BOUNDS, [128, 256, 512, 1024, 2048, 4096, 8192]
        )
        assert NUM_BINS == 8

    def test_cub_counts_intermediate_products(self):
        am, bm, a, b = mbsr_pair(0)
        res = analyse_and_bin(am, bm)
        pair_a, pair_b, pair_row = expand_candidate_pairs(am, bm)
        np.testing.assert_array_equal(
            res.cub_per_row, np.bincount(pair_row, minlength=am.mb)
        )
        assert res.total_intermediate == pair_a.shape[0]

    def test_rows_partitioned_into_bins(self):
        am, bm, *_ = mbsr_pair(1)
        res = analyse_and_bin(am, bm)
        total = sum(rows.shape[0] for rows in res.rows_by_bin)
        assert total == am.mb
        for b, rows in enumerate(res.rows_by_bin):
            np.testing.assert_array_equal(res.bin_of_row[rows], b)

    def test_binning_thresholds(self):
        am, bm, *_ = mbsr_pair(2)
        res = analyse_and_bin(am, bm)
        cub = res.cub_per_row
        assert np.all(res.bin_of_row[cub < 128] == 0)
        assert np.all(res.bin_of_row[cub >= 8192] == 7) or not np.any(cub >= 8192)

    def test_table_size_covers_row(self):
        am, bm, *_ = mbsr_pair(3)
        res = analyse_and_bin(am, bm)
        # The hash table must fit the worst case of its bin.
        assert np.all(res.table_size >= np.minimum(res.cub_per_row, 8192))

    def test_dimension_mismatch(self):
        am = csr_to_mbsr(random_csr(8, 8, 0.3))
        bm = csr_to_mbsr(random_csr(12, 8, 0.3))
        with pytest.raises(ValueError):
            analyse_and_bin(am, bm)


class TestSymbolic:
    def test_structure_matches_reference(self):
        am, bm, a, b = mbsr_pair(4)
        res = symbolic_spgemm(am, bm, analyse_and_bin(am, bm))
        # Reference block structure from the dense boolean product.
        ref = (np.abs(a.to_dense()) @ np.abs(b.to_dense())) != 0
        mb, nb = am.mb, bm.nb
        pad = np.zeros((mb * 4, nb * 4), dtype=bool)
        pad[: ref.shape[0], : ref.shape[1]] = ref
        blocks_ref = pad.reshape(mb, 4, nb, 4).any(axis=(1, 3))
        row_of = np.repeat(np.arange(mb), np.diff(res.blc_ptr_c))
        got = np.zeros((mb, nb), dtype=bool)
        got[row_of, res.blc_idx_c] = True
        # Symbolic may keep tiles whose values cancel numerically, but the
        # bitmap product guarantees no structurally-empty tile survives.
        assert np.array_equal(got, blocks_ref)

    def test_columns_sorted_within_rows(self):
        am, bm, *_ = mbsr_pair(5)
        res = symbolic_spgemm(am, bm, analyse_and_bin(am, bm))
        for r in range(am.mb):
            seg = res.blc_idx_c[res.blc_ptr_c[r]: res.blc_ptr_c[r + 1]]
            assert np.all(np.diff(seg) > 0)

    def test_pair_maps_are_bitmap_products(self):
        am, bm, *_ = mbsr_pair(6)
        res = symbolic_spgemm(am, bm, analyse_and_bin(am, bm))
        pair_map = bitmap_multiply(am.blc_map[res.pair_a], bm.blc_map[res.pair_b])
        assert np.all(pair_map != 0)
        # BlcMapC is the OR of each output tile's pair bitmap products.
        np.testing.assert_array_equal(
            res.blc_map_c, np.bitwise_or.reduceat(pair_map, res.pair_ptr[:-1])
        )

    def test_counters_populated(self):
        am, bm, *_ = mbsr_pair(7)
        res = symbolic_spgemm(am, bm, analyse_and_bin(am, bm))
        assert res.counters.launches == 2
        assert res.counters.total_bytes > 0


class TestNumeric:
    def test_values_match_dense_product(self):
        am, bm, a, b = mbsr_pair(8)
        sym = symbolic_spgemm(am, bm, analyse_and_bin(am, bm))
        num = numeric_spgemm(am, bm, sym, Precision.FP64)
        # assemble C and compare
        from repro.formats.mbsr import MBSRMatrix

        c = MBSRMatrix(
            (a.nrows, b.ncols), sym.blc_ptr_c, sym.blc_idx_c,
            num.blc_val_c, num.blc_map_c, _trusted=True,
        )
        np.testing.assert_allclose(
            c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-10
        )

    def test_mode_split_obeys_threshold(self):
        am, bm, *_ = mbsr_pair(9)
        sym = symbolic_spgemm(am, bm, analyse_and_bin(am, bm))
        num = numeric_spgemm(am, bm, sym, Precision.FP64)
        pops = bitmap_popcount(am.blc_map[sym.pair_a])
        assert num.tc_pairs == int((pops >= 10).sum())
        assert num.cuda_pairs == int((pops < 10).sum())

    def test_mma_issues_pair_blocks_two_at_a_time(self):
        # Dense tiles -> every pair takes the TC path; issues = ceil(v/2)
        # per A-tile.
        a = random_csr(16, 16, 0.95, seed=10)
        b = random_csr(16, 16, 0.95, seed=11)
        am, bm = csr_to_mbsr(a), csr_to_mbsr(b)
        sym = symbolic_spgemm(am, bm, analyse_and_bin(am, bm))
        num = numeric_spgemm(am, bm, sym, Precision.FP64)
        valid_per_a = np.bincount(sym.pair_a, minlength=am.blc_num)
        expected = int(np.sum((valid_per_a + 1) // 2))
        assert num.counters.mma_issues[Precision.FP64] == expected
        assert num.cuda_pairs == 0


class TestDriver:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy(self, seed):
        am, bm, a, b = mbsr_pair(seed, m=31 + seed, k=23 + seed, n=37)
        c, rec = mbsr_spgemm(am, bm)
        ref = a.to_scipy() @ b.to_scipy()
        np.testing.assert_allclose(c.to_dense(), ref.toarray(), atol=1e-10)
        c.check_invariants()

    def test_empty_operands(self):
        from repro.formats.mbsr import MBSRMatrix

        am = MBSRMatrix.empty((8, 8))
        bm = MBSRMatrix.empty((8, 8))
        c, rec = mbsr_spgemm(am, bm)
        assert c.blc_num == 0

    def test_dimension_mismatch(self):
        am = csr_to_mbsr(random_csr(8, 8, 0.3))
        bm = csr_to_mbsr(random_csr(12, 12, 0.3))
        with pytest.raises(ValueError):
            mbsr_spgemm(am, bm)

    def test_fp32_close_to_fp64(self):
        am, bm, a, b = mbsr_pair(12)
        ref = a.to_dense() @ b.to_dense()
        c32, _ = mbsr_spgemm(am, bm, Precision.FP32)
        np.testing.assert_allclose(c32.to_dense(), ref, atol=1e-3)

    def test_fp16_accumulates_in_fp32(self):
        am, bm, a, b = mbsr_pair(13)
        c16, rec = mbsr_spgemm(am, bm, Precision.FP16)
        assert c16.dtype == np.float32
        ref = a.to_dense() @ b.to_dense()
        scale = max(np.abs(ref).max(), 1.0)
        assert np.abs(c16.to_dense() - ref).max() / scale < 0.05

    def test_out_dtype(self):
        am, bm, *_ = mbsr_pair(14)
        c, _ = mbsr_spgemm(am, bm, Precision.FP64, out_dtype=np.float32)
        assert c.dtype == np.float32

    def test_record_details(self):
        am, bm, *_ = mbsr_pair(15)
        c, rec = mbsr_spgemm(am, bm)
        assert rec.kernel == "spgemm" and rec.backend == "amgt"
        assert rec.detail["blc_num_c"] == c.blc_num
        assert rec.detail["tc_pairs"] + rec.detail["cuda_pairs"] > 0
        assert sum(rec.detail["bins"].values()) == am.mb

    def test_identity_is_neutral(self):
        a = random_csr(20, 20, 0.2, seed=16)
        am = csr_to_mbsr(a)
        from repro.formats.csr import CSRMatrix

        im = csr_to_mbsr(CSRMatrix.identity(20))
        c, _ = mbsr_spgemm(am, im)
        np.testing.assert_allclose(c.to_dense(), a.to_dense(), atol=1e-12)


@given(
    st.integers(1, 25), st.integers(1, 25), st.integers(1, 25),
    st.floats(0.05, 0.4), st.integers(0, 999),
)
@settings(max_examples=25, deadline=None)
def test_property_spgemm_equals_dense_product(m, k, n, density, seed):
    a = random_csr(m, k, density, seed=seed)
    b = random_csr(k, n, density, seed=seed + 1)
    c, _ = mbsr_spgemm(csr_to_mbsr(a), csr_to_mbsr(b))
    np.testing.assert_allclose(
        c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-9
    )
