"""Layout reuse and direct kernel calls of the compact host contraction.

``kernels/spmv.py::TilePasses`` is a :class:`PassLayout` — the pattern-only
half: index arrays, ``full_rows`` and flat gather positions — filled with
one operator's quantised values.  An operator carrying the structure
arrays of a live one (a fill-template hit, or a precision cast of such a
matrix) refills that operator's layout when its values fit it.  These
tests pin:

* a refill is bytewise a cold build and shares the layout's index arrays;
* a value change that moves the nonzero slots (a slot that becomes 0, an
  FP16 underflow at the mixed schedule, a stored zero that becomes
  nonzero) rebuilds, and the rebuild is a cold build;
* a different dtype pair or row count never reuses a layout, and a
  layout dies with its last operator although its template lives;
* the passes call scipy's CSR kernels directly, bit for bit what
  ``csr_array @`` computes, behind a guard that rejects any operand the
  kernels could read out of bounds;
* checked mode validates every refilled level operator of a re-setup.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.check import ContractViolation, checked_region, validate_operator_cache
from repro.formats.csr import CSRMatrix
from repro.formats.mbsr import MBSRMatrix
from repro.kernels import spmv
from repro.kernels.cache import widened_tiles
from repro.kernels.setup_cache import SetupPlanCache
from repro.kernels.spmv import TilePasses, slot_pairing

pytestmark = pytest.mark.contract

FP64 = (np.dtype(np.float64), np.dtype(np.float64))
FP32 = (np.dtype(np.float32), np.dtype(np.float32))
FP16 = (np.dtype(np.float16), np.dtype(np.float32))


def _csr(seed: int, n: int = 61, density: float = 0.12) -> CSRMatrix:
    """A random CSR operator with wide-magnitude values, some stored
    entries explicitly zero; the pattern depends only on *n*/*density*."""
    rng = np.random.default_rng(0)
    dense = rng.random((n, n)) < density
    rows, cols = np.nonzero(dense)
    vals = np.random.default_rng(seed).normal(size=rows.shape[0])
    vals *= 10.0 ** np.random.default_rng(seed + 1).uniform(-2, 2, rows.shape[0])
    vals[::17] = 0.0
    return CSRMatrix.from_coo(rows, cols, vals, (n, n))


def _with_values(csr: CSRMatrix, data: np.ndarray) -> CSRMatrix:
    """*csr*'s pattern (the same arrays) with other values."""
    return CSRMatrix(csr.shape, csr.indptr, csr.indices, data, _canonical=True)


def _cold(mat: MBSRMatrix, key) -> TilePasses:
    return TilePasses(mat, widened_tiles(mat.blc_val, *key), *key,
                      slot_pairing(key[1]))


def _assert_equal_passes(got: TilePasses, want: TilePasses) -> None:
    assert got.full_rows == want.full_rows
    for part in ("pass1", "reduce"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.shape == w.shape
        for field in ("data", "indices", "indptr"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), f"{part}.{field}"


def _pair(data2, key=FP64, n: int = 61):
    """Two operators of one CSR pattern through one setup cache: the
    first's passes built cold, the second's requested after it."""
    cache = SetupPlanCache()
    csr1 = _csr(1, n)
    m1, _ = cache.csr2mbsr(csr1)
    first = m1.cache.tile_passes(*key)
    m2, _ = cache.csr2mbsr(_with_values(csr1, data2(csr1.data.copy())))
    assert m2.blc_ptr is m1.blc_ptr and m2.blc_idx is m1.blc_idx
    return m1, first, m2, m2.cache.tile_passes(*key)


# ======================================================================
# Layout reuse
# ======================================================================
@pytest.mark.parametrize("key", [FP64, FP32, FP16])
def test_same_structure_new_values_refills_a_cold_build(key):
    rng = np.random.default_rng(7)

    def rescale(d):
        return d * rng.uniform(0.5, 2.0, d.shape[0])

    m1, first, m2, second = _pair(rescale, key)
    assert not first.refilled and second.refilled
    assert second.layout is first.layout
    _assert_equal_passes(second, _cold(m2, key))
    for part in ("pass1", "reduce"):
        for field in ("indices", "indptr"):
            assert np.shares_memory(getattr(getattr(second, part), field),
                                    getattr(getattr(first, part), field))
    x = rng.normal(size=m2.ncols)
    assert second(x).tobytes() == _cold(m2, key)(x).tobytes()


def _set_first_stored(value):
    def edit(d):
        d[np.flatnonzero(d)[3]] = value
        return d
    return edit


def _fill_explicit_zero(d):
    d[np.flatnonzero(d == 0)[0]] = 3.0
    return d


@pytest.mark.parametrize("edit, key", [
    (_set_first_stored(0.0), FP64),
    (_set_first_stored(-0.0), FP32),
    # Below FP16's smallest subnormal: the slot is zero at the mixed
    # schedule's FP16 levels only.
    (_set_first_stored(1e-9), FP16),
    (_fill_explicit_zero, FP64),
    (_fill_explicit_zero, FP16),
], ids=["to-zero", "to-minus-zero", "fp16-underflow", "zero-to-nonzero",
        "zero-to-nonzero-fp16"])
def test_moved_nonzero_slot_rebuilds_cold(edit, key):
    m1, first, m2, second = _pair(edit, key)
    assert not second.refilled
    assert second.layout is not first.layout
    _assert_equal_passes(second, _cold(m2, key))
    # The rebuilt layout replaces the old one in the structure's map.
    assert m2.cache.layout_pool[key] is second.layout


def test_fp16_underflow_is_a_refill_at_fp64():
    """The same value change keeps every slot nonzero at FP64."""
    m1, first, m2, second = _pair(_set_first_stored(1e-9), FP64)
    assert second.refilled
    _assert_equal_passes(second, _cold(m2, FP64))


@pytest.mark.parametrize("built, asked", [(FP32, FP16), (FP64, FP32), (FP16, FP64)])
def test_other_dtype_pair_never_reuses(built, asked):
    """Even where the slots and the pairing agree (FP32 and FP16 tiles of
    in-range values, both accumulating in float32)."""
    cache = SetupPlanCache()
    csr = _csr(1)
    m1, _ = cache.csr2mbsr(csr)
    first = m1.cache.tile_passes(*built)
    m2, _ = cache.csr2mbsr(_with_values(csr, csr.data * 1.5))
    second = m2.cache.tile_passes(*asked)
    assert not second.refilled
    assert second.layout is not first.layout
    _assert_equal_passes(second, _cold(m2, asked))


def test_other_row_count_never_reuses():
    """Same structure arrays, one row fewer (same block rows): the layout
    cuts the reduction at ``nrows``, so it must not serve."""
    cache = SetupPlanCache()
    csr = _csr(1, n=62)
    keep = csr.row_ids() < 61
    m1, _ = cache.csr2mbsr(CSRMatrix.from_coo(
        csr.row_ids()[keep], csr.indices[keep], csr.data[keep], (62, 62)))
    first = m1.cache.tile_passes(*FP64)
    m2 = MBSRMatrix((61, 62), m1.blc_ptr, m1.blc_idx, m1.blc_val, m1.blc_map)
    m2.cache.seed_layouts(m1.cache.layout_pool)
    assert m2.cache._layouts[FP64] is first.layout
    second = m2.cache.tile_passes(*FP64)
    assert not second.refilled
    _assert_equal_passes(second, _cold(m2, FP64))


@pytest.mark.parametrize("old_alive", [True, False])
def test_casts_seed_from_the_canonical_form(old_alive):
    """A precision cast of a template-hit operator refills the layout of
    the previous operator's cast, also when that operator died between
    the conversion and the cast: the converted form holds the layout."""
    from repro.gpu.counters import Precision
    from repro.hypre.csr_matrix import HypreCSRMatrix

    cache = SetupPlanCache()
    csr = _csr(1)
    w1 = HypreCSRMatrix(csr=csr, setup_cache=cache)
    ref = weakref.ref(
        w1.mbsr_at_precision(Precision.FP16).cache.tile_passes(*FP16).layout)
    w2 = HypreCSRMatrix(csr=_with_values(csr, csr.data * 0.75),
                        setup_cache=cache)
    w2.amgt_csr2mbsr()
    if not old_alive:
        del w1
        gc.collect()
    cast = w2.mbsr_at_precision(Precision.FP16)
    second = cast.cache.tile_passes(*FP16)
    assert second.refilled and second.layout is ref()
    _assert_equal_passes(second, _cold(cast, FP16))


def test_layout_outcomes_feed_metrics_registry():
    import repro.obs as obs
    from repro.obs import names as obs_names

    obs.reset()
    with obs.trace_region():
        _pair(lambda d: d * 2.0)
        _pair(_set_first_stored(0.0))
    for result, count in (("build", 3), ("refill", 1)):
        assert obs.REGISTRY.value(obs_names.TILE_PASS_LAYOUTS,
                                  result=result) == count
    obs.reset()


def test_layout_dies_with_its_last_operator():
    """The template keeps its layouts weakly: a layout lives while some
    operator's passes or seeded cache hold it, not while the template
    does."""
    cache = SetupPlanCache()
    csr = _csr(1)
    m1, _ = cache.csr2mbsr(csr)
    ref = weakref.ref(m1.cache.tile_passes(*FP64).layout)
    (tmpl,) = cache._fill.values()
    m2, _ = cache.csr2mbsr(_with_values(csr, csr.data * 2.0))
    del m1
    gc.collect()
    assert ref() is not None, "a seeded operator holds the layout"
    assert m2.cache.tile_passes(*FP64).refilled
    del m2
    gc.collect()
    assert ref() is None
    assert FP64 not in tmpl.layouts
    assert cache._fill, "the template outlives the layout"


# ======================================================================
# Direct kernel calls
# ======================================================================
def _random_csr(rng, m, n, data_dtype, index_dtype) -> sp.csr_array:
    """A CSR array with unsorted rows, empty rows and explicit zeros, its
    index arrays of *index_dtype* (scipy narrows int64 on construction)."""
    counts = rng.integers(0, 5, size=m)
    counts[::7] = 0
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = rng.integers(0, n, size=indptr[-1])
    data = rng.normal(size=indptr[-1]) * 10.0 ** rng.uniform(-3, 3, indptr[-1])
    data[::5] = 0.0
    a = sp.csr_array((data.astype(data_dtype), indices, indptr), shape=(m, n))
    a.indices = indices.astype(index_dtype)
    a.indptr = indptr.astype(index_dtype)
    return a


@pytest.mark.parametrize("data_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_product_is_csr_array_matmul(data_dtype, index_dtype):
    rng = np.random.default_rng(3)
    a = _random_csr(rng, 40, 23, data_dtype, index_dtype)
    assert a.indices.dtype == index_dtype
    xs = [rng.normal(size=23), rng.normal(size=(23, 1)),
          rng.normal(size=(23, 5)), np.asfortranarray(rng.normal(size=(23, 5)))]
    for x in xs:
        x = x.astype(data_dtype)
        want = a @ x
        got = spmv._csr_product(a, np.ascontiguousarray(x))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("key", [FP64, FP32, FP16])
def test_contract_is_the_matmul_chain(key):
    """The whole compact contraction equals the same chain run through
    ``csr_array @``, for 1-D x and C- and F-ordered panels."""
    cache = SetupPlanCache()
    m, _ = cache.csr2mbsr(_csr(2, n=58))
    passes = m.cache.tile_passes(*key)
    rng = np.random.default_rng(5)

    def via_matmul(xp):
        z = passes.pass1 @ spmv._padded(xp, passes.pass1.shape[1])
        f = passes.full_rows
        z[:f] += z[f:2 * f]
        return passes.reduce @ z

    acc = key[1]
    for x in (rng.normal(size=58), rng.normal(size=(58, 4)),
              np.asfortranarray(rng.normal(size=(58, 4)))):
        xp = x.astype(acc)
        got = spmv._contract(passes.pass1, passes.full_rows, passes.reduce, xp)
        assert got.tobytes() == np.ascontiguousarray(via_matmul(xp)).tobytes()


class _NoKernel:
    """Stands in for ``_sparsetools``: any kernel call fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"kernel {name} ran on a rejected operand")


def test_guard_rejects_before_the_kernel(monkeypatch):
    a = _random_csr(np.random.default_rng(0), 12, 9, np.float64, np.int32)
    monkeypatch.setattr(spmv, "_sparsetools", _NoKernel())
    bad = [
        np.zeros(8),                       # wrong length
        np.zeros(10),
        np.zeros((8, 3)),
        np.zeros(9, dtype=np.float32),     # wrong dtype
        np.zeros(9, dtype=np.int64),
        np.zeros((9, 2, 2)),               # 3-D
        np.zeros(()),                      # 0-D
        np.zeros((9, 4))[:, ::2],          # not C-contiguous
        np.asfortranarray(np.zeros((9, 3))),
    ]
    for x in bad:
        with pytest.raises(ValueError, match="the pass takes"):
            spmv._csr_product(a, x)


class _CountingKernels:
    def __init__(self, real):
        self.real, self.calls = real, []

    def csr_matvec(self, *args):
        self.calls.append("csr_matvec")
        return self.real.csr_matvec(*args)

    def csr_matvecs(self, *args):
        self.calls.append("csr_matvecs")
        return self.real.csr_matvecs(*args)


def test_pairing_probe_runs_the_direct_kernels(monkeypatch):
    counting = _CountingKernels(spmv._sparsetools)
    monkeypatch.setattr(spmv, "_sparsetools", counting)
    assert spmv._probe_pairing(np.dtype(np.float64)) == slot_pairing(np.float64)
    assert {"csr_matvec", "csr_matvecs"} <= set(counting.calls)


def test_changed_kernel_signature_fails_at_first_use(monkeypatch):
    """A scipy whose ``csr_matvec`` takes other arguments makes the probe
    raise, instead of a silent dense fallback (``None``)."""

    class Changed:
        @staticmethod
        def csr_matvec(n_row, n_col, indptr, indices, data, x):
            raise AssertionError("unreachable")

        csr_matvecs = csr_matvec

    monkeypatch.setattr(spmv, "_sparsetools", Changed())
    monkeypatch.setattr(spmv, "_SLOT_PAIRING", {})
    with pytest.raises(TypeError):
        slot_pairing(np.float64)


# ======================================================================
# Checked mode
# ======================================================================
def _level_mbsr(solver):
    for entry in solver._driver._wrapped:
        for w in entry.values():
            for m in (w.mbsr, *w._casts.values()):
                if m is not None and m._cache is not None:
                    yield m


@pytest.mark.parametrize("precision", ["fp64", "mixed"])
def test_checked_resetup_validates_refilled_operators(precision):
    """A patched re-setup, then a taped solve under the check gate: every
    SpMV validates its operator's cache, refilled passes included, and
    every level operator validates afterwards."""
    from repro.amg.solver import AmgTSolver
    from repro.matrices.generators import evolving_sequence

    seq = evolving_sequence("newton", nx=24, steps=2, dirty_frac=0.02, seed=1)
    with checked_region():
        solver = AmgTSolver(precision=precision).setup(seq[0])
        solver.solve_krylov(np.ones(seq[0].nrows), "pcg", tolerance=1e-6,
                            max_iterations=50, tape=True)
        solver.setup(seq[1], reuse=True, patch=True)
        res = solver.solve_krylov(np.ones(seq[1].nrows), "pcg",
                                  tolerance=1e-6, max_iterations=50, tape=True)
    assert res.converged
    passes = [p for m in _level_mbsr(solver)
              for p in m._cache._tile_passes.values()]
    # Every precision the schedule runs refills some level (the mixed
    # schedule's FP32/FP16 levels through their casts).
    assert ({p.in_dtype for p in passes if p.refilled}
            == {p.in_dtype for p in passes})
    for m in _level_mbsr(solver):
        validate_operator_cache(m)


def test_violation_names_a_refill():
    cache = SetupPlanCache()
    csr = _csr(1)
    m1, _ = cache.csr2mbsr(csr)
    m1.cache.tile_passes(*FP64)
    m2, _ = cache.csr2mbsr(_with_values(csr, csr.data * 2.0))
    passes = m2.cache.tile_passes(*FP64)
    assert passes.refilled
    data = passes.pass1.data.copy()
    data[0] *= 3.0
    data.setflags(write=False)
    passes.pass1.data = data
    with pytest.raises(ContractViolation, match="refilled"):
        validate_operator_cache(m2)
