"""Operator-cache correctness: cached paths must be *exactly* the uncached ones.

The solve-phase cache (``repro.kernels.cache.OperatorCache``) memoises the
SpMV plan, the quantised/widened tile arrays, the two-pass tile
contraction and the structural expansions.  Nothing it returns may change
a single bit of any kernel result — these tests compare cold-cache,
warm-cache and hand-built reference paths for every precision, including
the FP16 quantisation rounding the double-cast fix had to preserve, over
ragged shapes, empty block rows, empty matrices, values and vectors
spanning 1e-8..1e8, non-finite vectors and RHS panels.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from conftest import random_csr
from repro.formats.convert import csr_to_mbsr
from repro.formats.csr import CSRMatrix
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import Precision
from repro.hypre.csr_matrix import HypreCSRMatrix
from repro.kernels import spmv as spmv_mod
from repro.kernels.spmv import bind_spmv, build_spmv_plan, mbsr_spmv

PRECISIONS = [Precision.FP64, Precision.FP32, Precision.FP16]


def _naive_spmv_values(mat, x, precision):
    """The pre-cache reference dataflow: per-call double cast + einsum +
    unbuffered scatter.  Defines the numeric semantics the cached kernel
    must reproduce exactly."""
    in_dtype = precision.np_dtype
    acc_dtype = precision.accum_dtype
    from repro.formats.bitmap import BLOCK_SIZE

    xp = np.zeros(mat.nb * BLOCK_SIZE, dtype=in_dtype)
    xp[: mat.ncols] = x.astype(in_dtype)
    y = np.zeros(mat.mb * BLOCK_SIZE, dtype=acc_dtype)
    if mat.blc_num:
        xblk = xp.reshape(mat.nb, BLOCK_SIZE)[mat.blc_idx]
        tiles = mat.blc_val.astype(in_dtype)
        contrib = np.einsum(
            "bij,bj->bi", tiles.astype(acc_dtype), xblk.astype(acc_dtype)
        )
        counts = np.diff(mat.blc_ptr)
        rows = np.repeat(np.arange(mat.mb, dtype=np.int64), counts)
        np.add.at(y.reshape(mat.mb, BLOCK_SIZE), rows, contrib)
    return y[: mat.nrows]


#: The wide-magnitude and non-finite inputs overflow FP16 and produce
#: inf - inf by design; the kernels and the reference both warn.
_EXPECTED_FP_WARNINGS = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)


def _assert_same_bits(y, ref):
    """Bit-for-bit equality on finite entries (zero signs included);
    non-finite entries must match as values, NaN by position."""
    y, ref = np.asarray(y), np.asarray(ref)
    assert y.dtype == ref.dtype and y.shape == ref.shape
    assert np.array_equal(y, ref, equal_nan=True)
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(np.signbit(y[finite]), np.signbit(ref[finite]))


def _wide(rng, shape):
    """Normal samples scaled by magnitudes spanning 1e-8..1e8."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


def _empty_block_rows_case():
    """Ragged rows and columns, with two all-zero block rows."""
    dense = np.where(
        np.random.default_rng(9).random((45, 38)) < 0.2,
        np.random.default_rng(10).normal(size=(45, 38)), 0.0,
    )
    dense[4:8] = 0.0
    dense[20:24] = 0.0
    return csr_to_mbsr(CSRMatrix.from_dense(dense))


@pytest.fixture(params=[0, 1, 2, 3, 4])
def mbsr_case(request):
    """0: square, 1: ragged columns, 2: sparse, 3: ragged with empty
    block rows, 4: no tiles at all."""
    if request.param == 3:
        return _empty_block_rows_case()
    seeds = {0: (60, 60, 0.08), 1: (37, 53, 0.2), 2: (128, 128, 0.02),
             4: (13, 22, 0.0)}
    m, n, dens = seeds[request.param]
    return csr_to_mbsr(random_csr(m, n, dens, seed=request.param + 7))


class TestCachedSpMVExactness:
    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    def test_warm_cache_equals_cold_cache(self, mbsr_case, precision):
        x = np.random.default_rng(3).normal(size=mbsr_case.ncols)
        cold, _ = mbsr_spmv(mbsr_case.copy(), x, precision)  # fresh cache
        warm_mat = mbsr_case
        warm_mat.cache.tiles(precision.np_dtype, precision.accum_dtype)
        first, _ = mbsr_spmv(warm_mat, x, precision)
        second, _ = mbsr_spmv(warm_mat, x, precision)
        np.testing.assert_array_equal(cold, first)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    def test_cached_plan_equals_explicit_plan(self, mbsr_case, precision):
        x = np.random.default_rng(4).normal(size=mbsr_case.ncols)
        explicit = build_spmv_plan(mbsr_case)
        y_explicit, rec1 = mbsr_spmv(mbsr_case, x, precision, plan=explicit)
        y_cached, rec2 = mbsr_spmv(mbsr_case, x, precision, plan=None)
        np.testing.assert_array_equal(y_explicit, y_cached)
        assert rec1.detail["path"] == rec2.detail["path"]

    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    def test_matches_naive_reference_semantics(self, mbsr_case, precision):
        """FP16/FP32 quantisation rounding must survive the cast fusion."""
        x = np.random.default_rng(5).normal(size=mbsr_case.ncols)
        y, _ = mbsr_spmv(mbsr_case, x, precision)
        ref = _naive_spmv_values(mbsr_case, x, precision)
        np.testing.assert_array_equal(np.asarray(y), ref)

    @_EXPECTED_FP_WARNINGS
    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    def test_wide_magnitudes_match_reference(self, mbsr_case, precision):
        """Values and x across 1e-8..1e8 (FP16 over- and underflows)."""
        rng = np.random.default_rng(6)
        m = mbsr_case
        mat = MBSRMatrix(m.shape, m.blc_ptr, m.blc_idx,
                         m.blc_val * 10.0 ** rng.uniform(-8, 8, m.blc_val.shape),
                         m.blc_map)
        x = _wide(rng, mat.ncols)
        ref = _naive_spmv_values(mat, x, precision)
        y, _ = mbsr_spmv(mat, x, precision)
        _assert_same_bits(y, ref)
        _assert_same_bits(bind_spmv(mat, precision).run(x),
                          ref.astype(np.float64))

    @_EXPECTED_FP_WARNINGS
    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    def test_nonfinite_x_matches_reference(self, mbsr_case, precision):
        """inf/NaN in x reach exactly the outputs the dense tile product
        sends them to, structural zeros included."""
        x = np.random.default_rng(8).normal(size=mbsr_case.ncols)
        x[::7] = np.inf
        x[3::11] = -np.inf
        x[5::13] = np.nan
        ref = _naive_spmv_values(mbsr_case, x, precision)
        y, _ = mbsr_spmv(mbsr_case, x, precision)
        _assert_same_bits(y, ref)
        _assert_same_bits(bind_spmv(mbsr_case, precision).run(x),
                          ref.astype(np.float64))

    @_EXPECTED_FP_WARNINGS
    @pytest.mark.parametrize("width", [1, 3, 16])
    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    def test_panel_columns_equal_width_one(self, mbsr_case, precision, width):
        rng = np.random.default_rng(width)
        x = _wide(rng, (mbsr_case.ncols, width))
        x[0, -1] = np.nan
        y, _ = mbsr_spmv(mbsr_case, x, precision)
        rows = bind_spmv(mbsr_case, precision, width=width).run(
            np.ascontiguousarray(x.T))
        assert y.shape == (mbsr_case.nrows, width)
        assert rows.shape == (width, mbsr_case.nrows)
        for j in range(width):
            y1, _ = mbsr_spmv(mbsr_case, x[:, j], precision)
            _assert_same_bits(y[:, j], y1)
            _assert_same_bits(rows[j], y1.astype(np.float64))

    @_EXPECTED_FP_WARNINGS
    def test_matmul_fallback_is_bit_identical(self, mbsr_case, monkeypatch):
        """An accumulator dtype whose association probe finds no slot
        pairing keeps the matmul contraction — same bits as the reference
        and as the two-pass path, width 1 and panel."""
        from repro.check.structural import validate_operator_cache

        rng = np.random.default_rng(12)
        x, panel = _wide(rng, mbsr_case.ncols), _wide(rng, (mbsr_case.ncols, 3))
        expected = {
            p: (mbsr_spmv(mbsr_case, x, p)[0], mbsr_spmv(mbsr_case, panel, p)[0])
            for p in PRECISIONS
        }
        for acc in (np.float64, np.float32):
            monkeypatch.setitem(spmv_mod._SLOT_PAIRING, np.dtype(acc), None)
        mat = mbsr_case.copy()  # fresh cache, built under the fallback
        for precision in PRECISIONS:
            y, _ = mbsr_spmv(mat, x, precision)
            y_panel, _ = mbsr_spmv(mat, panel, precision)
            passes = mat.cache.tile_passes(precision.np_dtype,
                                           precision.accum_dtype)
            assert passes.pairing is None and passes.pass1 is None
            assert passes.dense is not None
            _assert_same_bits(y, _naive_spmv_values(mat, x, precision))
            _assert_same_bits(y, expected[precision][0])
            _assert_same_bits(y_panel, expected[precision][1])
            _assert_same_bits(bind_spmv(mat, precision).run(x),
                              y.astype(np.float64))
        validate_operator_cache(mat)

    def test_counters_unchanged_by_cache_state(self, mbsr_case):
        x = np.ones(mbsr_case.ncols)
        _, cold = mbsr_spmv(mbsr_case.copy(), x, Precision.FP64)
        _, warm1 = mbsr_spmv(mbsr_case, x, Precision.FP64)
        _, warm2 = mbsr_spmv(mbsr_case, x, Precision.FP64)
        for a, b in [(cold, warm1), (warm1, warm2)]:
            assert a.counters.bytes_read == b.counters.bytes_read
            assert a.counters.bytes_written == b.counters.bytes_written
            assert a.counters.imbalance == b.counters.imbalance
            assert dict(a.counters.mma_issues) == dict(b.counters.mma_issues)
            assert dict(a.counters.scalar_flops) == dict(b.counters.scalar_flops)


class TestOperatorCacheState:
    def test_structural_memoisation(self, mbsr_case):
        c = mbsr_case.cache
        assert c.pop_per_tile is c.pop_per_tile
        assert c.block_row_ids is c.block_row_ids
        assert c.blocks_per_row is c.blocks_per_row
        np.testing.assert_array_equal(
            c.block_row_ids,
            np.repeat(
                np.arange(mbsr_case.mb, dtype=np.int64), np.diff(mbsr_case.blc_ptr)
            ),
        )

    def test_tiles_cast_once_and_shared(self, mbsr_case):
        c = mbsr_case.cache
        t1 = c.tiles(np.float16, np.float32)
        t2 = c.tiles(np.float16, np.float32)
        assert t1 is t2
        assert t1.dtype == np.float32
        np.testing.assert_array_equal(
            t1, mbsr_case.blc_val.astype(np.float16).astype(np.float32)
        )
        # fp64 compute on fp64 storage shares the original array
        assert c.tiles(np.float64, np.float64) is mbsr_case.blc_val

    def test_plan_memoised_per_key(self, mbsr_case):
        c = mbsr_case.cache
        assert c.spmv_plan(True) is c.spmv_plan(True)
        assert c.spmv_plan(False) is c.spmv_plan(False)
        assert c.spmv_plan(True) is not c.spmv_plan(True, tc_threshold=1)

    def test_fresh_cache_per_derived_matrix(self, mbsr_case):
        _ = mbsr_case.cache.pop_per_tile
        for derived in (mbsr_case.copy(), mbsr_case.astype(np.float32),
                        mbsr_case.transpose()):
            assert derived._cache is None  # built lazily, not inherited

    def test_hypre_wrapper_exposes_operator_cache(self):
        w = HypreCSRMatrix(csr=random_csr(40, 40, 0.1, seed=11))
        cache = w.operator_cache
        assert cache is w.mbsr.cache
        assert w.spmv_plan(True) is cache.spmv_plan(True)

    def test_hit_miss_counters(self, mbsr_case):
        c = mbsr_case.cache
        assert (c.hits, c.misses, c.evictions) == (0, 0, 0)
        c.tiles(np.float64, np.float64)
        assert (c.hits, c.misses) == (0, 1)
        c.tiles(np.float64, np.float64)
        assert (c.hits, c.misses) == (1, 1)
        c.spmv_plan(True)
        c.spmv_plan(True)
        c.spmv_plan(False)
        assert (c.hits, c.misses) == (2, 3)
        # the operator cache is unbounded: nothing is ever evicted
        assert c.evictions == 0

    def test_hit_miss_counters_feed_metrics_registry(self, mbsr_case):
        import repro.obs as obs

        obs.reset()
        c = mbsr_case.cache
        with obs.trace_region():
            c.tiles(np.float64, np.float64)
            c.tiles(np.float64, np.float64)
        reg = obs.REGISTRY
        assert reg.value(
            "repro_operator_cache_requests_total", entry="tiles", result="miss"
        ) == 1
        assert reg.value(
            "repro_operator_cache_requests_total", entry="tiles", result="hit"
        ) == 1
        obs.reset()

    def test_tile_passes_memoised_frozen_and_coherent(self, mbsr_case):
        from repro.check.structural import validate_operator_cache

        c = mbsr_case.cache
        for precision in PRECISIONS:
            key = (precision.np_dtype, precision.accum_dtype)
            passes = c.tile_passes(*key)
            assert passes is c.tile_passes(*key)
            assert passes.pairing == spmv_mod.slot_pairing(key[1])
            tiles, dense_reduce = passes.dense_passes()
            assert not tiles.flags.writeable
            for part in (passes.pass1, passes.reduce, dense_reduce):
                if part is None:
                    continue  # no compact passes without a slot pairing
                assert part.indices.dtype == np.int32
                for arr in (part.data, part.indices, part.indptr):
                    assert not arr.flags.writeable
        validate_operator_cache(mbsr_case)

    def test_tile_passes_requests_feed_metrics_registry(self, mbsr_case):
        import repro.obs as obs
        from repro.obs import names as obs_names

        obs.reset()
        c = mbsr_case.cache
        with obs.trace_region():
            c.tile_passes(np.float64, np.float64)
            c.tile_passes(np.float64, np.float64)
        for result in ("miss", "hit"):
            assert obs.REGISTRY.value(
                obs_names.OPERATOR_CACHE_REQUESTS, entry="tile_passes",
                result=result,
            ) == 1
        obs.reset()

    def test_matrix_freed_by_refcount(self, mbsr_case):
        """The cache refers back to its matrix weakly: dropping the last
        reference frees the operator with no cyclic collection."""
        mat = mbsr_case.copy()
        cache = mat.cache
        mbsr_spmv(mat, np.ones(mat.ncols))
        bind_spmv(mat).run(np.ones(mat.ncols))
        cache.spmv_binding(Precision.FP32)
        ref = weakref.ref(mat)
        gc.disable()
        try:
            del mat
            assert ref() is None
        finally:
            gc.enable()
        with pytest.raises(ReferenceError):
            cache.pattern_key

    def test_pop_hist_matches_popcounts(self, mbsr_case):
        hist = mbsr_case.cache.pop_hist
        assert hist.shape == (17,)
        assert hist.sum() == mbsr_case.blc_num
        np.testing.assert_array_equal(
            hist, np.bincount(mbsr_case.cache.pop_per_tile, minlength=17)
        )


def test_setup_builds_no_tile_passes():
    """The two-pass structure is built on the first SpMV or bind of an
    operator, never inside ``setup()``."""
    from repro.amg.solver import AmgTSolver
    from repro.matrices import poisson2d

    a = poisson2d(16)
    solver = AmgTSolver(backend="amgt", precision="mixed").setup(a)

    def built():
        return sum(
            len(m._cache._tile_passes)
            for entry in solver._driver._wrapped
            for w in entry.values()
            for m in (w.mbsr, *w._casts.values())
            if m is not None and m._cache is not None
        )

    assert built() == 0
    solver.solve(np.ones(a.nrows), max_iterations=1)
    assert built() > 0


def test_dropped_solver_frees_operators_without_gc(monkeypatch):
    """No reference cycle keeps a dropped solver's operators alive: after
    setup, interpreted, taped, panel and PCG solves and an exact re-setup,
    the level-0 mBSR form is freed by reference counting alone."""
    from repro.amg.solver import AmgTSolver
    from repro.matrices import poisson2d

    # Checked bindings hold their operator for the differential oracle;
    # this test pins the production (unchecked) path.
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    a = poisson2d(16)
    b = np.ones(a.nrows)
    gc.collect()
    gc.disable()
    try:
        solver = AmgTSolver(backend="amgt", precision="mixed").setup(a)
        solver.solve(b, max_iterations=2)
        solver.solve(b, max_iterations=2, tape=True)
        solver.solve_multi(np.ones((a.nrows, 3)), max_iterations=2)
        solver.solve_krylov(b, "pcg", max_iterations=3)
        solver.setup(a, reuse=True)
        solver.solve(b, max_iterations=2, tape=True)
        ref = weakref.ref(solver._driver._wrapped[0]["A"].mbsr)
        del solver
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.perf_smoke
def test_segops_not_slower_than_ufunc_at():
    """The engine must beat (or at worst match) ``np.add.at`` on the
    1e6-element scatter shape the kernels actually produce: per-block
    4-vector contributions reduced into block rows (the SpMV epilogue)."""
    import time

    rng = np.random.default_rng(0)
    n, k = 1_000_000, 50_000
    ids = rng.integers(0, k, size=n)
    vals = rng.normal(size=(n, 4))

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    from repro.util.segops import segment_sum

    def ufunc_path():
        out = np.zeros((k, 4))
        np.add.at(out, ids, vals)
        return out

    seg_t = best_of(lambda: segment_sum(vals, ids, k))
    at_t = best_of(ufunc_path)
    # Identical results and no slowdown (generous 1.0x bound: the segops
    # path is typically >10x faster here).
    np.testing.assert_array_equal(segment_sum(vals, ids, k), ufunc_path())
    assert seg_t <= at_t, f"segops {seg_t:.4f}s slower than ufunc.at {at_t:.4f}s"
