"""Equivalence suite for the output-ordered SpGEMM plan.

The symbolic phase sorts the surviving pairs once, by output tile, and the
numeric phase reduces each tile's pairs in place over the pair pointer.
These tests pin that data flow against independent references:

* ``BlcPtrC`` / ``BlcIdxC`` against per-row :class:`HashTable` inserts,
  ``BlcMapC`` against the OR of the pair bitmap products;
* the stored pairs against a stable sort of the traversal order;
* numeric values and bitmaps, bit for bit (NaN results by position, see
  :func:`assert_same_values`), against a test-local copy of the
  position-based reduction the pointer replaced (binary search, 16-wide
  ``bincount`` for float64, stable argsort + ragged sweep for float32,
  argsort + OR), on operands holding ``-0.0``, ``±inf`` and NaN;
* zero-pair products, empty rows and ``blc_num_c == 0``;
* row-restricted and spliced plans against cold builds.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.check import ContractViolation, checked_region
from repro.formats.bitmap import TC_NNZ_THRESHOLD, bitmap_multiply, bitmap_popcount
from repro.formats.convert import csr_to_mbsr
from repro.formats.csr import CSRMatrix
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import Precision
from repro.kernels.setup_cache import SetupPlanCache, _restrict_symbolic
from repro.kernels.spgemm import (
    _verify_rows_slice,
    mbsr_spgemm,
    mbsr_spgemm_rows,
    mbsr_spgemm_symbolic_plan,
)
from repro.kernels.spgemm_analysis import analyse_and_bin
from repro.kernels.spgemm_numeric import numeric_spgemm
from repro.kernels.spgemm_symbolic import expand_candidate_pairs, symbolic_spgemm
from repro.util.hashing import HashTable

from conftest import random_csr

pytestmark = pytest.mark.contract

PRECISIONS = [Precision.FP64, Precision.FP32, Precision.FP16]
SYMBOLIC_FIELDS = ("blc_ptr_c", "blc_idx_c", "blc_map_c", "pair_a", "pair_b", "pair_ptr")


def _random_pair(seed, m=45, k=37, n=41, density=0.1):
    a = random_csr(m, k, density, seed=seed)
    b = random_csr(k, n, density, seed=seed + 500)
    return csr_to_mbsr(a), csr_to_mbsr(b)


def _suite_pair(name):
    """Level-0 ``A`` and ``P`` of a suite analog's cold hierarchy."""
    from repro.amg.hierarchy import amg_setup
    from repro.matrices import load_suite_matrix

    lvl = amg_setup(load_suite_matrix(name)).levels[0]
    return csr_to_mbsr(lvl.a), csr_to_mbsr(lvl.p), csr_to_mbsr(lvl.r)


def _with_specials(csr, seed):
    """Copy of *csr* with ``-0.0``, ``±inf`` and NaN among its stored values."""
    rng = np.random.default_rng(seed)
    data = csr.data.copy()
    picks = rng.choice(data.shape[0], size=min(12, data.shape[0]), replace=False)
    for i, idx in enumerate(picks):
        data[idx] = (-0.0, np.inf, -np.inf, np.nan)[i % 4]
    return CSRMatrix(csr.shape, csr.indptr, csr.indices, data)


OPERANDS = {
    "random": lambda: _random_pair(3),
    "random-dense": lambda: _random_pair(4, 24, 24, 24, 0.6),
    "specials": lambda: (
        csr_to_mbsr(_with_specials(random_csr(33, 29, 0.15, seed=5), 1)),
        csr_to_mbsr(_with_specials(random_csr(29, 31, 0.15, seed=6), 2)),
    ),
    "suite-thermal1": lambda: _suite_pair("thermal1")[:2],
}


@pytest.fixture(scope="module", params=sorted(OPERANDS))
def operands(request):
    return OPERANDS[request.param]()


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def _survivors(mat_a, mat_b):
    """Bitmap-surviving pairs in row-wise traversal order."""
    pair_a, pair_b, pair_row = expand_candidate_pairs(mat_a, mat_b)
    maps = bitmap_multiply(mat_a.blc_map[pair_a], mat_b.blc_map[pair_b])
    keep = maps != 0
    return pair_a[keep], pair_b[keep], pair_row[keep], maps[keep]


def _reference_numeric(mat_a, mat_b, precision):
    """The position-based numeric phase the pair pointer replaced.

    Pairs in traversal order locate their output tile by binary search;
    float64 sums go through a 16-wide ``bincount``, float32 sums through a
    stable argsort and one ragged pass per segment rank, bitmaps through an
    argsort and an OR-``reduceat``.
    """
    pair_a, pair_b, pair_row, maps = _survivors(mat_a, mat_b)
    keys_pair = pair_row * mat_b.nb + mat_b.blc_idx[pair_b]
    keys_c = np.unique(keys_pair)
    pos = np.searchsorted(keys_c, keys_pair)
    n = keys_c.shape[0]
    acc = np.dtype(precision.accum_dtype)
    tiles_a = mat_a.blc_val.astype(precision.np_dtype).astype(acc)[pair_a]
    tiles_b = mat_b.blc_val.astype(precision.np_dtype).astype(acc)[pair_b]
    prod = np.matmul(tiles_a, tiles_b)
    order = np.argsort(pos, kind="stable")
    spos = pos[order]
    bnd = np.flatnonzero(np.r_[True, spos[1:] != spos[:-1]]) if n else spos
    if acc == np.float64:
        ids = (pos[:, None] * 16 + np.arange(16)).ravel()
        val = np.bincount(ids, weights=prod.reshape(-1), minlength=n * 16)
        val = val.reshape(n, 4, 4)
    else:
        val = np.zeros((n, 4, 4), dtype=acc)
        counts = np.diff(np.append(bnd, spos.shape[0]))
        sprod = prod[order]
        for k in range(int(counts.max(initial=0))):
            live = counts > k
            val[spos[bnd[live]]] += sprod[bnd[live] + k]
    blc_map = np.zeros(n, dtype=np.uint16)
    if n:
        blc_map[spos[bnd]] = np.bitwise_or.reduceat(maps[order], bnd)
    rows = keys_c // mat_b.nb
    blc_ptr = np.zeros(mat_a.mb + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=mat_a.mb), out=blc_ptr[1:])
    return blc_ptr, keys_c % mat_b.nb, val, blc_map


def assert_same_values(got, want):
    """Bitwise equality, except that NaN results only need to be NaN.

    When two NaNs meet in a sum, IEEE 754 leaves open which one the
    addition returns, and numpy's and scipy's loops pick differently (an
    input ``nan`` against the default NaN of ``inf - inf``), so NaN sign
    and payload are not part of the contract; NaN positions are.
    """
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    unsigned = np.dtype(f"u{got.dtype.itemsize}")
    np.testing.assert_array_equal(np.where(nan, 0, got).view(unsigned),
                                  np.where(nan, 0, want).view(unsigned))


def assert_same_symbolic(got, want):
    for name in SYMBOLIC_FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)


# ----------------------------------------------------------------------
# Symbolic structure and pair order
# ----------------------------------------------------------------------
class TestSymbolic:
    def test_structure_matches_hash_table_spec(self, operands):
        mat_a, mat_b = operands
        sym = symbolic_spgemm(mat_a, mat_b, analyse_and_bin(mat_a, mat_b))
        _, pair_b, pair_row, _ = _survivors(mat_a, mat_b)
        cols = mat_b.blc_idx[pair_b]
        for row in range(mat_a.mb):
            seg = cols[pair_row == row]
            table = HashTable(max(2 * seg.shape[0], 4))
            for col in seg:
                table.insert(int(col))
            lo, hi = sym.blc_ptr_c[row], sym.blc_ptr_c[row + 1]
            assert hi - lo == len(table)
            np.testing.assert_array_equal(sym.blc_idx_c[lo:hi], table.compress_sorted())

    def test_bitmaps_are_the_pair_product_or(self, operands):
        mat_a, mat_b = operands
        sym = symbolic_spgemm(mat_a, mat_b, analyse_and_bin(mat_a, mat_b))
        _, pair_b, pair_row, maps = _survivors(mat_a, mat_b)
        tile_of = {}
        for t, row in enumerate(np.repeat(np.arange(mat_a.mb), np.diff(sym.blc_ptr_c))):
            tile_of[(int(row), int(sym.blc_idx_c[t]))] = t
        want = np.zeros(sym.blc_num_c, dtype=np.uint16)
        for row, col, m in zip(pair_row, mat_b.blc_idx[pair_b], maps):
            want[tile_of[(int(row), int(col))]] |= m
        np.testing.assert_array_equal(sym.blc_map_c, want)
        assert sym.blc_map_c.dtype == np.uint16

    def test_pairs_are_the_stable_sort_of_the_traversal(self, operands):
        mat_a, mat_b = operands
        sym = symbolic_spgemm(mat_a, mat_b, analyse_and_bin(mat_a, mat_b))
        pair_a, pair_b, pair_row, _ = _survivors(mat_a, mat_b)
        cols = mat_b.blc_idx[pair_b]
        order = np.lexsort((cols, pair_row))
        np.testing.assert_array_equal(sym.pair_a, pair_a[order])
        np.testing.assert_array_equal(sym.pair_b, pair_b[order])
        # The pointer delimits runs of equal output tiles, one per tile.
        keys = (pair_row * mat_b.nb + cols)[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if keys.size else keys
        np.testing.assert_array_equal(sym.pair_ptr, np.append(starts, keys.shape[0]))
        np.testing.assert_array_equal(sym.row_pair_ptr,
                                      sym.pair_ptr[sym.blc_ptr_c])


# ----------------------------------------------------------------------
# Numeric phase, bit for bit
# ----------------------------------------------------------------------
class TestNumeric:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_matches_position_reduction(self, operands, precision):
        mat_a, mat_b = operands
        sym = symbolic_spgemm(mat_a, mat_b, analyse_and_bin(mat_a, mat_b))
        with np.errstate(invalid="ignore", over="ignore"):
            num = numeric_spgemm(mat_a, mat_b, sym, precision)
            blc_ptr, blc_idx, val, blc_map = _reference_numeric(mat_a, mat_b, precision)
        np.testing.assert_array_equal(sym.blc_ptr_c, blc_ptr)
        np.testing.assert_array_equal(sym.blc_idx_c, blc_idx)
        np.testing.assert_array_equal(num.blc_map_c, blc_map)
        assert_same_values(num.blc_val_c, val)

    def test_specials_reach_the_output(self):
        mat_a, mat_b = OPERANDS["specials"]()
        with np.errstate(invalid="ignore", over="ignore"):
            c, _ = mbsr_spgemm(mat_a, mat_b)
        assert np.isnan(c.blc_val).any() and np.isinf(c.blc_val).any()

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_sums_start_from_positive_zero(self, precision):
        # C[0, 0] = (-0.0) * 1.0 = -0.0 alone: a sum seeded with its first
        # term would keep -0.0; the sequential sum from +0.0 gives +0.0.
        a = CSRMatrix.from_coo(np.array([0]), np.array([0]), np.array([-0.0]), (4, 4))
        b = CSRMatrix.from_coo(np.array([0]), np.array([0]), np.array([1.0]), (4, 4))
        c, _ = mbsr_spgemm(csr_to_mbsr(a), csr_to_mbsr(b), precision)
        assert c.blc_map[0] == 1
        assert c.blc_val[0, 0, 0] == 0.0 and not np.signbit(c.blc_val[0, 0, 0])

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_plan_hits_and_replays_match_cold(self, operands, precision):
        mat_a, mat_b = operands
        with np.errstate(invalid="ignore", over="ignore"):
            cold, _ = mbsr_spgemm(mat_a, mat_b, precision)
            cache = SetupPlanCache()
            miss, _ = mbsr_spgemm(mat_a, mat_b, precision, plan_cache=cache)
            hit, rec = mbsr_spgemm(mat_a, mat_b, precision, plan_cache=cache)
        assert rec.detail["symbolic_reused"]
        for out in (miss, hit):
            np.testing.assert_array_equal(out.blc_map, cold.blc_map)
            assert_same_values(out.blc_val, cold.blc_val)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def _from_dense(dense):
    return csr_to_mbsr(CSRMatrix.from_scipy(sp.csr_matrix(dense)))


class TestEdgeCases:
    def _check_empty(self, mat_a, mat_b):
        sym = symbolic_spgemm(mat_a, mat_b, analyse_and_bin(mat_a, mat_b))
        assert sym.blc_num_c == 0
        assert sym.pair_a.shape == sym.pair_b.shape == (0,)
        np.testing.assert_array_equal(sym.pair_ptr, [0])
        assert sym.blc_map_c.shape == (0,) and sym.blc_map_c.dtype == np.uint16
        for precision in PRECISIONS:
            num = numeric_spgemm(mat_a, mat_b, sym, precision)
            assert num.blc_val_c.shape == (0, 4, 4)
            assert num.blc_val_c.dtype == np.dtype(precision.accum_dtype)
            c, _ = mbsr_spgemm(mat_a, mat_b, precision)
            assert c.blc_num == 0
            c.check_invariants()

    def test_no_candidate_pairs(self):
        # A only reaches block-column 0, B has nothing in block-row 0.
        a = np.zeros((8, 8))
        a[:, :4] = 1.0
        b = np.zeros((8, 8))
        b[4:, :] = 1.0
        self._check_empty(_from_dense(a), _from_dense(b))

    def test_every_candidate_pruned_by_bitmaps(self):
        # Tiles meet, but A's column 0 never meets B's row 1.
        a = np.zeros((4, 4))
        a[:, 0] = 1.0
        b = np.zeros((4, 4))
        b[1, :] = 1.0
        mat_a, mat_b = _from_dense(a), _from_dense(b)
        assert expand_candidate_pairs(mat_a, mat_b)[0].shape == (1,)
        self._check_empty(mat_a, mat_b)

    def test_empty_operands(self):
        self._check_empty(MBSRMatrix.empty((8, 12)), MBSRMatrix.empty((12, 4)))

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_empty_block_rows(self, precision):
        dense = random_csr(24, 20, 0.3, seed=9).to_dense()
        dense[4:12] = 0.0  # block-rows 1 and 2 empty
        dense[20:] = 0.0  # the last block-row too
        mat_a = _from_dense(dense)
        mat_b = csr_to_mbsr(random_csr(20, 16, 0.3, seed=10))
        sym = symbolic_spgemm(mat_a, mat_b, analyse_and_bin(mat_a, mat_b))
        assert np.all(np.diff(sym.blc_ptr_c)[[1, 2, 5]] == 0)
        num = numeric_spgemm(mat_a, mat_b, sym, precision)
        _, _, val, blc_map = _reference_numeric(mat_a, mat_b, precision)
        np.testing.assert_array_equal(num.blc_map_c, blc_map)
        assert_same_values(num.blc_val_c, val)


# ----------------------------------------------------------------------
# Row-restricted and spliced plans against cold builds
# ----------------------------------------------------------------------
def _drift(csr, block_rows, seed):
    """*csr* with new entries in the first scalar row of the given
    block-rows; every other stored entry (explicit zeros too) kept."""
    rng = np.random.default_rng(seed)
    coo = csr.to_scipy().tocoo()
    rows, cols, vals = [coo.row], [coo.col], [coo.data]
    for br in block_rows:
        rows.append(np.full(3, 4 * br))
        cols.append(rng.choice(csr.ncols, size=3, replace=False))
        vals.append(rng.standard_normal(3))
    out = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=csr.shape)
    return CSRMatrix.from_scipy(out)


class TestRestrictedAndSplicedPlans:
    ROWS = np.array([0, 2, 3, 7, 10])

    def test_restriction_equals_the_row_ranged_build(self, operands):
        mat_a, mat_b = operands
        rows = self.ROWS[self.ROWS < mat_a.mb]
        full = symbolic_spgemm(mat_a, mat_b, analyse_and_bin(mat_a, mat_b))
        assert_same_symbolic(_restrict_symbolic(full, rows),
                             symbolic_spgemm(mat_a, mat_b, None, rows))

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_dirty_row_product_is_a_slice(self, operands, precision):
        mat_a, mat_b = operands
        rows = self.ROWS[self.ROWS < mat_a.mb]
        # Checked: the rows-slice oracle compares bytes, NaN results too.
        with np.errstate(invalid="ignore", over="ignore"), checked_region():
            full, _ = mbsr_spgemm(mat_a, mat_b, precision)
            sub, _, _ = mbsr_spgemm_rows(mat_a, mat_b, rows, precision)
        tiles = np.concatenate([np.arange(full.blc_ptr[r], full.blc_ptr[r + 1])
                                for r in rows]).astype(np.int64)
        np.testing.assert_array_equal(sub.blc_idx, full.blc_idx[tiles])
        np.testing.assert_array_equal(sub.blc_map, full.blc_map[tiles])
        assert_same_values(sub.blc_val, full.blc_val[tiles])

    def test_rows_slice_violation_names_its_operands(self):
        mat_a, mat_b = _random_pair(3)
        rows = np.array([0, 2])
        sub, _, _ = mbsr_spgemm_rows(mat_a, mat_b, rows)
        bad = MBSRMatrix(sub.shape, sub.blc_ptr, sub.blc_idx, sub.blc_val + 1.0,
                         sub.blc_map, _trusted=True)
        with pytest.raises(ContractViolation, match="rows-slice") as exc:
            _verify_rows_slice(mat_a, mat_b, bad, rows, Precision.FP64, None,
                               tc_threshold=10, storage_itemsize=None)
        assert set(exc.value.operands) == {"A", "B"}

    def test_spliced_plan_equals_cold_build(self):
        a_csr = random_csr(48, 40, 0.1, seed=21)
        b_old = csr_to_mbsr(random_csr(40, 36, 0.12, seed=22))
        a_old = csr_to_mbsr(a_csr)
        dirty = np.array([1, 4, 5, 11])
        a_new = csr_to_mbsr(_drift(a_csr, dirty, 23))
        cache = SetupPlanCache()
        prev = cache.spgemm_plan(a_old, b_old)
        spliced = cache.patch_spgemm_plan(a_new, b_old, a_old, b_old, prev, dirty)
        assert_same_symbolic(spliced.symbolic,
                             mbsr_spgemm_symbolic_plan(a_new, b_old).symbolic)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_spliced_rap_plan_and_replays_equal_cold(self, precision):
        a_csr, p, r = (m.to_csr() for m in _suite_pair("bcsstk39"))
        mb_a = -(-a_csr.nrows // 4)
        drift_rows = np.array([3, mb_a // 2, mb_a - 1])
        a_new_csr = _drift(a_csr, drift_rows, 31)
        rm, pm = csr_to_mbsr(r), csr_to_mbsr(p)
        am_old, am_new = csr_to_mbsr(a_csr), csr_to_mbsr(a_new_csr)
        # Coarse block-rows whose R tiles reach a drifted A block-row.
        reach = np.isin(rm.blc_idx, drift_rows)
        dirty = np.unique(rm.block_row_ids()[reach])
        cache = SetupPlanCache()
        prev, _ = cache.rap_plan(rm, am_old, pm)
        spliced, fresh = cache.patch_rap_plan(rm, am_new, pm, rm, am_old, pm, prev, dirty)
        cold, _ = SetupPlanCache().rap_plan(rm, am_new, pm)
        assert fresh
        assert_same_symbolic(spliced.plan_ra.symbolic, cold.plan_ra.symbolic)
        assert_same_symbolic(spliced.plan_rap.symbolic, cold.plan_rap.symbolic)
        np.testing.assert_array_equal(spliced.ra_pop_per_tile, cold.ra_pop_per_tile)
        np.testing.assert_array_equal(
            spliced.ra_pop_per_tile, bitmap_popcount(cold.plan_ra.symbolic.blc_map_c))
        assert spliced.ra_pattern_key == cold.ra_pattern_key

        full, _ = cache.rap_numeric(spliced, rm, am_new, pm, precision)
        want, _ = SetupPlanCache().rap_numeric(cold, rm, am_new, pm, precision)
        np.testing.assert_array_equal(full.blc_map, want.blc_map)
        assert_same_values(full.blc_val, want.blc_val)
        sub, _ = cache.rap_numeric_rows(spliced, rm, am_new, pm, dirty, precision)
        tiles = np.concatenate([np.arange(full.blc_ptr[b], full.blc_ptr[b + 1])
                                for b in dirty]).astype(np.int64)
        np.testing.assert_array_equal(sub.blc_idx, full.blc_idx[tiles])
        np.testing.assert_array_equal(sub.blc_map, full.blc_map[tiles])
        assert_same_values(sub.blc_val, full.blc_val[tiles])


class TestReplayPricing:
    """A full-plan replay prices the numeric phase once per (precision,
    threshold, itemsize); a row-restricted replay prices every call."""

    def test_full_replays_price_once(self, monkeypatch):
        from repro.kernels import spgemm_numeric

        # Counts the products this test runs: under REPRO_CHECK the row
        # oracle's own cold products would be priced as well.
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        priced = []
        real = spgemm_numeric._price_numeric

        def counting(*args):
            priced.append(args[3])
            return real(*args)

        monkeypatch.setattr(spgemm_numeric, "_price_numeric", counting)
        mat_a, mat_b = _random_pair(3)
        cache = SetupPlanCache()
        records = [mbsr_spgemm(mat_a, mat_b, Precision.FP64, plan_cache=cache)[1]
                   for _ in range(3)]
        assert priced == [Precision.FP64]
        plan = cache.spgemm_plan(mat_a, mat_b)
        fresh = real(mat_a, mat_b, plan.symbolic, Precision.FP64, TC_NNZ_THRESHOLD, None)
        for rec in records[1:]:
            assert rec.counters == fresh[0]
            assert rec.detail["tc_pairs"] == fresh[1]
            assert rec.detail["cuda_pairs"] == fresh[2]
        assert records[1].counters is not records[2].counters
        mbsr_spgemm(mat_a, mat_b, Precision.FP16, plan_cache=cache)
        mbsr_spgemm(mat_a, mat_b, Precision.FP16, plan_cache=cache)
        mbsr_spgemm(mat_a, mat_b, Precision.FP16, plan_cache=cache, storage_itemsize=8)
        assert priced == [Precision.FP64, Precision.FP16, Precision.FP16]

        rows = np.array([0, mat_a.mb - 1])
        for _ in range(2):
            mbsr_spgemm_rows(mat_a, mat_b, rows)
        assert len(priced) == 5
