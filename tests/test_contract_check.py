"""Tests for the repro.check contract checker and the bugs it pinned.

The ``contract``-marked tests drive every kernel entry point under the
differential oracle (all three precisions, both SpMV plan paths), assert
the oracle's stamp on every record a kernel returns, and run the bounded
fuzz smoke; the unmarked tests are tier-1 regression tests for the
satellite fixes (``check_dtype``, paper-mode convergence reporting,
empty-matrix SpMV dtype, plan-cache keying, ranks > n partitions) and
for the charge point's unchecked-record guard.
"""

import numpy as np
import pytest

from repro.check import (
    ContractViolation,
    checked_region,
    disable,
    enable,
    is_active,
    validate_csr,
    validate_hierarchy,
    validate_mbsr,
    validate_operator_cache,
    validate_partition,
)
from repro.check import oracle
from repro.formats.convert import csr_to_mbsr
from repro.formats.csr import CSRMatrix
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import Precision
from repro.kernels.spmv import build_spmv_plan, mbsr_spmv
from repro.matrices import poisson2d

PRECISIONS = [Precision.FP64, Precision.FP32, Precision.FP16]


# ======================================================================
# Checked-mode runtime
# ======================================================================
def test_checked_mode_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    assert not is_active()
    with checked_region():
        assert is_active()
        with checked_region():  # nesting
            assert is_active()
        assert is_active()
    assert not is_active()
    with checked_region(enabled=False):
        assert not is_active()


def test_env_var_activation(monkeypatch):
    for value in ("1", "true", "ON", "yes"):
        monkeypatch.setenv("REPRO_CHECK", value)
        assert is_active()
    for value in ("0", "", "off", "no"):
        monkeypatch.setenv("REPRO_CHECK", value)
        assert not is_active()


def test_disable_never_goes_negative(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    disable()
    disable()
    enable()
    assert is_active()
    disable()
    assert not is_active()


# ======================================================================
# Violation structure + validators catch corruption
# ======================================================================
def _corrupt_value_outside_bitmap(mat: MBSRMatrix) -> MBSRMatrix:
    from repro.formats.bitmap import bitmap_to_mask

    mask = bitmap_to_mask(mat.blc_map)
    assert not mask.all(), "need a partially-filled tile to corrupt"
    val = mat.blc_val.copy()
    t, r, c = np.argwhere(~mask)[0]
    val[t, r, c] = 1.0
    return MBSRMatrix(mat.shape, mat.blc_ptr, mat.blc_idx, val, mat.blc_map,
                      _trusted=True)


def test_contract_violation_structure():
    mat = csr_to_mbsr(poisson2d(6))
    bad = _corrupt_value_outside_bitmap(mat)
    with pytest.raises(ContractViolation) as exc_info:
        validate_mbsr(bad, kernel="mbsr_spmv")
    exc = exc_info.value
    assert isinstance(exc, AssertionError)  # violations are library bugs
    assert exc.kernel == "mbsr_spmv"
    assert exc.invariant == "mbsr/bitmap-value-agreement"
    assert "A" in exc.operands and exc.operands["A"].startswith("mbsr")
    assert "mbsr/bitmap-value-agreement" in str(exc)
    assert exc.detail


def test_validate_csr_catches_unsorted_columns():
    bad = CSRMatrix(
        (2, 3),
        np.array([0, 2, 2]), np.array([2, 0]), np.array([1.0, 2.0]),
        _canonical=True,  # lie: columns are reversed within row 0
    )
    with pytest.raises(ContractViolation, match="indices-sorted-unique"):
        validate_csr(bad)


def test_validate_mbsr_catches_empty_tile():
    mat = csr_to_mbsr(poisson2d(4))
    bmap = mat.blc_map.copy()
    bmap[0] = 0
    bad = MBSRMatrix(mat.shape, mat.blc_ptr, mat.blc_idx,
                     np.where(np.zeros_like(mat.blc_val, dtype=bool),
                              mat.blc_val, 0.0),
                     bmap, _trusted=True)
    with pytest.raises(ContractViolation, match="no-empty-tiles"):
        validate_mbsr(bad)


def test_validate_operator_cache_catches_poisoned_field():
    mat = csr_to_mbsr(poisson2d(5))
    cache = mat.cache
    cache.pop_per_tile  # populate
    wrong = cache.pop_per_tile.copy() + 1
    wrong.setflags(write=False)
    cache._pop_per_tile = wrong
    with pytest.raises(ContractViolation, match="cache/coherent"):
        validate_operator_cache(mat)


def test_validate_hierarchy_catches_r_not_transpose():
    from repro.amg.hierarchy import amg_setup

    h = amg_setup(poisson2d(8))
    lvl = h.levels[0]
    r = lvl.r
    lvl.r = CSRMatrix(r.shape, r.indptr, r.indices, r.data * 2.0,
                      _canonical=True)
    with pytest.raises(ContractViolation, match="restriction-is-transpose"):
        validate_hierarchy(h)


def test_validate_partition_catches_bad_cover():
    from types import SimpleNamespace

    from repro.dist.partition import partition_rows

    validate_partition(partition_rows(9, 16), 9)  # ranks > n is legal
    validate_partition(partition_rows(0, 4), 0)
    with pytest.raises(ContractViolation, match="partition-cover"):
        validate_partition(SimpleNamespace(starts=np.array([0, 3, 8])), 9)
    with pytest.raises(ContractViolation, match="partition-monotone"):
        validate_partition(SimpleNamespace(starts=np.array([0, 5, 3, 9])), 9)


def test_oracle_rejects_wrong_result_dtype_and_plan():
    mat = csr_to_mbsr(poisson2d(6))
    x = np.linspace(-1, 1, mat.ncols)
    y, _ = mbsr_spmv(mat, x, Precision.FP64)
    with pytest.raises(ContractViolation, match="spmv/differential"):
        oracle.verify_spmv(mat, x, y + 1e-3, Precision.FP64)
    with pytest.raises(ContractViolation, match="spmv/output-dtype"):
        oracle.verify_spmv(mat, x, y.astype(np.float32), Precision.FP64)
    other = csr_to_mbsr(poisson2d(7))
    stale = build_spmv_plan(other)
    with pytest.raises(ContractViolation, match="spmv/plan-coherent"):
        oracle.verify_spmv(mat, x, y, Precision.FP64, plan=stale)


# ======================================================================
# Contract suite: kernels under the oracle, all precisions + plan paths
# ======================================================================
@pytest.mark.contract
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("allow_tc", [True, False])
@pytest.mark.parametrize("threshold", [0.0, 1.0e9])
def test_spmv_under_oracle(precision, allow_tc, threshold):
    """Both plan paths (TC forced / CUDA forced) x all precisions."""
    for mat_csr in (poisson2d(7), poisson2d(8)):
        mat = csr_to_mbsr(mat_csr)
        plan = mat.cache.spmv_plan(allow_tc, threshold)
        x = np.linspace(-2, 2, mat.ncols)
        with checked_region():
            y, rec = mbsr_spmv(mat, x, precision, plan,
                               allow_tensor_cores=allow_tc)
            _, panel_rec = mbsr_spmv(mat, np.stack([x, -x], axis=1),
                                     precision, plan,
                                     allow_tensor_cores=allow_tc)
        assert rec.detail.get(oracle.STAMP) and panel_rec.detail.get(oracle.STAMP)
        assert y.dtype == np.dtype(precision.accum_dtype)
        assert rec.detail["path"].startswith(
            "tc" if plan.use_tensor_cores else "cuda"
        )


@pytest.mark.contract
@pytest.mark.parametrize("precision", PRECISIONS)
def test_spgemm_under_oracle(precision):
    from repro.kernels.spgemm import mbsr_spgemm, mbsr_spgemm_rows

    a = csr_to_mbsr(poisson2d(6))
    p = poisson2d(6)
    rng = np.random.default_rng(7)
    r = csr_to_mbsr(CSRMatrix(p.shape, p.indptr, p.indices,
                              rng.standard_normal(p.nnz)))
    with checked_region():
        c, rec = mbsr_spgemm(a, a, precision)
        _, wide_rec = mbsr_spgemm(a, a, precision, out_dtype=np.float64)
        # A narrower output dtype rounds once more after accumulating;
        # the oracle's band must cover that, not flag it.
        narrow, narrow_rec = mbsr_spgemm(r, r, precision,
                                         out_dtype=np.float16)
        _, _, rows_rec = mbsr_spgemm_rows(a, a, np.array([0, 2, 3]),
                                          precision)
    for record in (rec, wide_rec, narrow_rec, rows_rec):
        assert record.detail.get(oracle.STAMP)
    assert c.dtype == np.dtype(precision.accum_dtype)
    assert narrow.dtype == np.float16


@pytest.mark.contract
@pytest.mark.parametrize("precision", PRECISIONS)
def test_csr_kernels_under_oracle(precision):
    from repro.kernels.baseline import csr_spgemm, csr_spmv

    a = poisson2d(7)
    x = np.linspace(-1, 1, a.ncols)
    with checked_region():
        _, spmv_rec = csr_spmv(a, x, precision)
        _, spmm_rec = csr_spmv(a, np.stack([x, 2 * x], axis=1), precision)
        _, spgemm_rec = csr_spgemm(a, a, precision)
    for record in (spmv_rec, spmm_rec, spgemm_rec):
        assert record.detail.get(oracle.STAMP)


@pytest.mark.contract
@pytest.mark.parametrize("width", [1, 3])
def test_bindings_stamp_their_record_at_bind_time(monkeypatch, width):
    """A binding's record is the template every replay charges: bound
    under the gate it carries the stamp before its first call (and every
    call is verified); bound outside, it is built exactly as before."""
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    from repro.kernels.baseline import bind_csr_spmv
    from repro.kernels.spmv import bind_spmv

    a = poisson2d(7)
    mat = csr_to_mbsr(a)
    x = np.linspace(-1, 1, a.ncols)
    panel = np.stack([x * (j + 1) for j in range(width)])
    for bind, op in ((bind_spmv, mat), (bind_csr_spmv, a)):
        plain = bind(op, Precision.FP32, width=width)
        with checked_region():
            checked = bind(op, Precision.FP32, width=width)
            assert checked.record.detail.get(oracle.STAMP)
            checked.run(panel if width > 1 else x)
        assert oracle.STAMP not in plain.record.detail
        assert plain.record.detail == {
            k: v for k, v in checked.record.detail.items()
            if k != oracle.STAMP
        }


@pytest.mark.contract
def test_rap_replays_under_oracle():
    """Both fused Galerkin replays, full and dirty-row, stamp the two
    stage records they return."""
    from repro.kernels.setup_cache import SetupPlanCache

    a_csr = poisson2d(8)
    p_csr = CSRMatrix.from_scipy(a_csr.to_scipy()[:, ::2].tocsr())
    r, a, p = (csr_to_mbsr(m) for m in (p_csr.transpose(), a_csr, p_csr))
    cache = SetupPlanCache()
    plan, _ = cache.rap_plan(r, a, p)
    with checked_region():
        _, full = cache.rap_numeric(plan, r, a, p, Precision.FP32,
                                    out_dtype=np.float64)
        _, rows = cache.rap_numeric_rows(plan, r, a, p, np.array([0, 2]),
                                         Precision.FP32, out_dtype=np.float64)
    assert len(full) == len(rows) == 2
    for record in full + rows:
        assert record.detail.get(oracle.STAMP)


@pytest.mark.contract
def test_kernel_without_its_oracle_is_refused_at_the_charge_point(
        monkeypatch):
    """An SpGEMM whose oracle never runs (a no-op in its place) leaves its
    record unstamped, and a checked setup refuses to charge it."""
    monkeypatch.setattr(oracle, "verify_spgemm", lambda *a, **k: None)
    from repro.amg.solver import AmgTSolver

    solver = AmgTSolver(backend="amgt", checked=True)
    with pytest.raises(ContractViolation, match="perf/unchecked-record"):
        solver.setup(poisson2d(8))


def test_charge_point_refuses_unstamped_kernel_records(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    from repro.kernels.record import KernelRecord
    from repro.perf.timeline import PerformanceLog

    def record(kernel, stamped=False):
        rec = KernelRecord(kernel=kernel, backend="amgt",
                           precision=Precision.FP64)
        if stamped:
            oracle.stamp(rec)
        return rec

    log = PerformanceLog()
    log.extend([record(k) for k in ("spgemm", "spmv", "spmm")])  # gate off
    with checked_region():
        # Conversions and "other" work have no kernel oracle.
        log.extend([record("csr2mbsr"), record("mbsr2csr"),
                    record("coarsen")])
        log.extend([record(k, stamped=True)
                    for k in ("spgemm", "spmv", "spmm")])
        for kernel in ("spgemm", "spmv", "spmm"):
            with pytest.raises(ContractViolation,
                               match="perf/unchecked-record"):
                log.append(record(kernel))
    assert len(log.records) == 9


@pytest.mark.contract
@pytest.mark.parametrize("backend", ["amgt", "hypre"])
@pytest.mark.parametrize("precision", ["fp64", "mixed"])
def test_checked_solver_end_to_end(backend, precision):
    """checked=True wraps setup + solve: conversions, Galerkin, SpGEMM,
    SpMV and the smoother all run under the oracle without violations."""
    from repro.amg.solver import AmgTSolver

    a = poisson2d(12)
    solver = AmgTSolver(backend=backend, precision=precision, checked=True)
    solver.setup(a)
    result = solver.solve(np.ones(a.nrows), max_iterations=3)
    assert result.stats.spmv_calls > 0


@pytest.mark.contract
@pytest.mark.parametrize("backend", ["amgt", "hypre"])
@pytest.mark.parametrize("precision", ["fp64", "mixed"])
def test_checked_solver_stamps_every_kernel_record(backend, precision):
    """checked=True covers every entry point, the Krylov one included:
    each SpGEMM/SpMV/SpMM record the solver charges across setup, a
    patched re-setup, solve, solve_multi and solve_krylov carries its
    oracle's stamp."""
    from repro.amg.solver import AmgTSolver
    from repro.perf.timeline import kernel_class

    a = poisson2d(12)
    b = np.ones(a.nrows)
    solver = AmgTSolver(backend=backend, precision=precision, checked=True)
    solver.setup(a)
    drifted = CSRMatrix(a.shape, a.indptr, a.indices, a.data * 1.5)
    solver.setup(drifted, reuse=True, patch=True)
    charged = {}
    for entry, call in (
        ("solve", lambda: solver.solve(b, max_iterations=2)),
        ("solve_multi", lambda: solver.solve_multi(
            np.stack([b, -b], axis=1), max_iterations=2)),
        ("solve_krylov", lambda: solver.solve_krylov(b, max_iterations=3)),
    ):
        before = len(solver.performance.records)
        call()
        charged[entry] = solver.performance.records[before:]
    kernels = [r for r in solver.performance.records
               if kernel_class(r.kernel) in ("spgemm", "spmv")]
    assert {r.kernel for r in kernels} == {"spgemm", "spmv", "spmm"}
    assert all(r.detail.get(oracle.STAMP) for r in kernels)
    assert all(any(kernel_class(r.kernel) == "spmv" for r in recs)
               for recs in charged.values())


@pytest.mark.contract
def test_checked_distributed_pcg_runs_its_oracle(monkeypatch):
    from repro.dist.par_solver import ParAMGSolver

    calls = []
    verify = oracle.verify_distributed_spmv

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return verify(*args, **kwargs)

    monkeypatch.setattr(oracle, "verify_distributed_spmv", counted)
    a = poisson2d(8)
    solver = ParAMGSolver(num_ranks=2, backend="amgt", precision="mixed",
                          checked=True)
    solver.setup(a)
    _, report = solver.solve_pcg(np.ones(a.nrows), max_iterations=3)
    assert len(calls) == report.spmv_calls > 0


@pytest.mark.contract
def test_checked_distributed_solver():
    from repro.dist.par_solver import ParAMGSolver

    a = poisson2d(8)
    solver = ParAMGSolver(num_ranks=8, backend="amgt", precision="mixed",
                          checked=True)
    solver.setup(a)
    x, report = solver.solve(np.ones(a.nrows), max_iterations=2)
    assert report.spmv_calls > 0


@pytest.mark.contract
def test_fuzz_smoke():
    """The bounded fuzz driver: >= 200 cases, zero ContractViolations."""
    from repro.check import fuzz

    rc = fuzz.main(["--smoke"])
    assert rc == 0
    assert fuzz._cases >= 200


# ======================================================================
# Satellite (b): paper-mode convergence reporting
# ======================================================================
def test_paper_mode_reports_machine_precision_convergence():
    """tolerance=0.0 runs all iterations but still reports converged once
    the residual underflows the float64 machine-precision floor."""
    from repro.amg.cycle import amg_solve
    from repro.amg.hierarchy import amg_setup

    a = poisson2d(4)
    h = amg_setup(a)
    x, stats = amg_solve(h, np.ones(a.nrows))
    # all 50 iterations ran (the fixed-cycle timing methodology) ...
    assert stats.iterations == 50
    assert min(stats.residual_history[1:]) <= (
        stats.residual_history[0] * np.finfo(np.float64).eps
    )
    # ... and the machine-precision residual is reported as converged.
    assert stats.converged


def test_positive_tolerance_still_breaks_early():
    from repro.amg.cycle import SolveParams, amg_solve
    from repro.amg.hierarchy import amg_setup

    a = poisson2d(8)
    h = amg_setup(a)
    x, stats = amg_solve(h, np.ones(a.nrows),
                         params=SolveParams(tolerance=1e-8))
    assert stats.converged
    assert stats.iterations < 50


def test_unconverged_solve_still_reports_false():
    from repro.amg.cycle import SolveParams, amg_solve
    from repro.amg.hierarchy import amg_setup

    a = poisson2d(16)
    h = amg_setup(a)
    x, stats = amg_solve(h, np.ones(a.nrows),
                         params=SolveParams(max_iterations=2))
    assert not stats.converged


# ======================================================================
# Satellite (c): blc_num == 0 early-exit dtype pin
# ======================================================================
@pytest.mark.parametrize("precision", PRECISIONS)
def test_empty_matrix_spmv_dtype(precision):
    empty = csr_to_mbsr(CSRMatrix.zeros((6, 6)))
    assert empty.blc_num == 0
    y, _ = mbsr_spmv(empty, np.ones(6), precision)
    assert y.shape == (6,)
    assert y.dtype == np.dtype(precision.accum_dtype)
    assert not y.any()


@pytest.mark.parametrize("precision", PRECISIONS)
def test_zero_row_matrix_spmv_dtype(precision):
    empty = csr_to_mbsr(CSRMatrix.zeros((0, 5)))
    y, _ = mbsr_spmv(empty, np.ones(5), precision)
    assert y.shape == (0,)
    assert y.dtype == np.dtype(precision.accum_dtype)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_all_zero_values_matrix_spmv_dtype(precision):
    """Stored tiles whose values are numerically zero (structural nonzeros
    from SpGEMM cancellation) still return the accumulator dtype."""
    base = poisson2d(5)
    zeroed = CSRMatrix(base.shape, base.indptr, base.indices,
                       np.zeros_like(base.data), _canonical=True)
    mat = csr_to_mbsr(zeroed)
    y, _ = mbsr_spmv(mat, np.ones(mat.ncols), precision)
    assert y.dtype == np.dtype(precision.accum_dtype)
    assert not np.asarray(y, dtype=np.float64).any()


# ======================================================================
# Satellite (a): check_dtype rejects unsafe casts
# ======================================================================
def test_check_dtype_passthrough_and_safe_casts():
    from repro.util.validation import check_dtype

    arr = np.arange(4, dtype=np.float64)
    assert check_dtype(arr, np.float64, "x") is arr  # no copy
    out = check_dtype(np.arange(4, dtype=np.int64), np.float64, "x")
    assert out.dtype == np.float64


def test_check_dtype_rejects_kind_changes():
    from repro.util.validation import check_dtype

    with pytest.raises(ValueError, match="cannot cast"):
        check_dtype(np.array([1.5, 2.5]), np.int64, "x")  # float -> int
    with pytest.raises(ValueError, match="cannot cast"):
        check_dtype(np.array([1 + 2j]), np.float64, "x")  # complex -> float
    with pytest.raises(ValueError, match="cannot cast"):
        check_dtype(np.array(["a", "b"]), np.float64, "x")  # strings


def test_check_dtype_strict_casting_rule():
    from repro.util.validation import check_dtype

    # same_kind (default) permits narrowing within floats ...
    out = check_dtype(np.array([1.0]), np.float16, "x")
    assert out.dtype == np.float16
    # ... the "safe" rule rejects it.
    with pytest.raises(ValueError, match="cannot cast"):
        check_dtype(np.array([1.0]), np.float16, "x", casting="safe")


def test_check_dtype_wraps_conversion_failure_as_valueerror():
    from repro.util.validation import check_dtype

    obj = np.array([object()], dtype=object)
    with pytest.raises(ValueError):
        check_dtype(obj, np.float64, "x")


# ======================================================================
# Satellite (d): plan-cache keying + ranks > n round-trip
# ======================================================================
def test_storage_itemsize_does_not_leak_through_plan_reuse():
    """storage_itemsize affects per-call traffic pricing only — repeated
    calls through the same cached plan must produce identical counters."""
    mat = csr_to_mbsr(poisson2d(8))
    x = np.linspace(0, 1, mat.ncols)
    plan = mat.cache.spmv_plan(True)

    def traffic(storage_itemsize):
        _, rec = mbsr_spmv(mat, x, Precision.FP16, plan,
                           storage_itemsize=storage_itemsize)
        return rec.counters.bytes_read, rec.counters.bytes_written

    first_native = traffic(None)
    wide = traffic(8)
    assert wide[0] > first_native[0]  # FP64-resident data costs more
    # Same plan key, interleaved overrides: no stale traffic carried over.
    assert traffic(None) == first_native
    assert traffic(8) == wide
    assert len(mat.cache._spmv_plans) == 1  # keyed only by (allow_tc, thr)


def test_spmv_plan_cache_keying():
    mat = csr_to_mbsr(poisson2d(8))
    p1 = mat.cache.spmv_plan(True)
    p2 = mat.cache.spmv_plan(True)
    assert p1 is p2  # memoised
    p3 = mat.cache.spmv_plan(False)
    assert p3 is not p1 and not p3.use_tensor_cores
    p4 = mat.cache.spmv_plan(True, 1.0e9)
    assert not p4.use_tensor_cores
    assert len(mat.cache._spmv_plans) == 3


def test_partition_ranks_exceed_rows_roundtrip():
    """ranks > n: surplus ranks own empty ranges, numerics unchanged."""
    from repro.amg.cycle import SolveParams, amg_solve
    from repro.dist.par_solver import ParAMGSolver
    from repro.dist.partition import partition_rows

    a = poisson2d(3)  # 9 rows
    part = partition_rows(a.nrows, 16)
    validate_partition(part, a.nrows)
    assert np.diff(part.starts).min() == 0  # some ranks really are empty

    solver = ParAMGSolver(num_ranks=16, backend="amgt")
    solver.setup(a)
    b = np.ones(a.nrows)
    x_par, report = solver.solve(b, max_iterations=5)
    x_ser, _ = amg_solve(solver.hierarchy, b,
                         params=SolveParams(max_iterations=5))
    np.testing.assert_allclose(x_par, x_ser, rtol=1e-12, atol=1e-12)
    assert report.spmv_calls > 0
