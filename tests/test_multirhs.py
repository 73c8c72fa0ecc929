"""Multi-RHS panels: the SpMV kernels and bindings over ``(ncols, k)``
panels, the widened tape replay and the RHS shape-handling fixes that
rode along.

The load-bearing contract everywhere: column ``j`` of any panel result
is **bit-identical** to the width-1 call on column ``j`` — a single
right-hand side is a panel of one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amg.cycle import SolveParams, amg_solve
from repro.amg.hierarchy import amg_setup
from repro.amg.solver import AmgTSolver, MultiSolveResult
from repro.check import ContractViolation, checked_region
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import Precision
from repro.kernels.baseline import bind_csr_spmv, csr_spmv
from repro.kernels.spmv import bind_spmv, mbsr_spmv
from repro.matrices import poisson2d
from repro.tape import record_cycle, taped_solve
from repro.util.validation import normalize_rhs, normalize_rhs_panel

from conftest import random_csr


def _solver(backend="amgt", precision="fp64", n=32):
    s = AmgTSolver(backend=backend, precision=precision)
    s.setup(poisson2d(n))
    return s


def _panel(n, k, seed=7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, k))


def _dense_block(n=24, seed=0):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < 0.25, rng.normal(size=(n, n)), 0.0)
    dense[np.arange(n), np.arange(n)] += n
    return dense


# ---------------------------------------------------------------------------
# Kernel level: panel SpMV vs column-by-column vector SpMV
# ---------------------------------------------------------------------------


class TestSpMMKernels:
    @pytest.mark.parametrize("precision",
                             [Precision.FP64, Precision.FP32, Precision.FP16])
    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_mbsr_spmm_columns_match_spmv(self, precision, width):
        mat = MBSRMatrix.from_dense(_dense_block())
        x = _panel(mat.ncols, width)
        y, record = mbsr_spmv(mat, x, precision=precision)
        assert y.shape == (mat.nrows, width)
        assert record.detail["width"] == width
        assert record.kernel == ("spmv" if width == 1 else "spmm")
        for j in range(width):
            yj, _ = mbsr_spmv(mat, x[:, j], precision=precision)
            np.testing.assert_array_equal(y[:, j], yj)

    @pytest.mark.parametrize("backend", ["cusparse", "rocsparse"])
    @pytest.mark.parametrize("precision", [Precision.FP64, Precision.FP32])
    def test_csr_spmm_columns_match_spmv(self, backend, precision):
        a = random_csr(20, 26, density=0.3, seed=3)
        x = _panel(a.ncols, 5)
        y, rec = csr_spmv(a, x, precision=precision, backend=backend)
        assert y.shape == (a.nrows, 5) and rec.kernel == "spmm"
        rows = bind_csr_spmv(a, precision, backend, width=5).run(
            np.ascontiguousarray(x.T))
        for j in range(5):
            yj, _ = csr_spmv(a, x[:, j], precision=precision,
                             backend=backend)
            np.testing.assert_array_equal(y[:, j], yj)
            np.testing.assert_array_equal(rows[j], yj.astype(np.float64))

    def test_bind_spmm_width1_matches_spmv_binding(self):
        """A one-row panel runs the vector kernel on its row view."""
        mat = MBSRMatrix.from_dense(_dense_block())
        b1 = bind_spmv(mat)
        x = _panel(mat.ncols, 1)
        row = b1.run(np.ascontiguousarray(x.T))
        assert row.shape == (1, mat.nrows)
        np.testing.assert_array_equal(row[0], b1.run(x[:, 0]))

    def test_spmm_empty_matrix(self):
        mat = MBSRMatrix.empty((8, 8))
        y, _ = mbsr_spmv(mat, np.ones((8, 3)))
        assert y.shape == (8, 3)
        assert not y.any()

    def test_spmm_record_charges_bytes_once_flops_per_column(self):
        mat = MBSRMatrix.from_dense(_dense_block(n=32, seed=1))
        b1 = bind_spmv(mat)
        b8 = bind_spmv(mat, width=8)
        assert b8.record.detail["width"] == 8
        assert (b1.record.kernel, b8.record.kernel) == ("spmv", "spmm")
        c1, c8 = b1.record.counters, b8.record.counters
        work1 = sum(c1.scalar_flops.values()) + sum(c1.mma_issues.values())
        work8 = sum(c8.scalar_flops.values()) + sum(c8.mma_issues.values())
        assert work8 == 8 * work1  # compute scales with width...
        assert c8.bytes_read < 8 * c1.bytes_read  # ...matrix bytes do not

    def test_spmm_checked_region_differential(self):
        mat = MBSRMatrix.from_dense(_dense_block())
        with checked_region(enabled=True):
            mbsr_spmv(mat, _panel(mat.ncols, 4))
            bind_spmv(mat, width=4).run(_panel(4, mat.ncols))

    def test_spmm_rejects_bad_panel_shapes(self):
        mat = MBSRMatrix.from_dense(_dense_block())
        with pytest.raises(ValueError):
            mbsr_spmv(mat, np.ones((3, mat.ncols)))  # transposed panel
        with pytest.raises(ValueError):
            mbsr_spmv(mat, np.ones((mat.ncols, 2, 2)))  # not a panel
        with pytest.raises(ValueError):
            bind_spmv(mat, width=0)


# ---------------------------------------------------------------------------
# Tape level: batched replay vs width-1 replay
# ---------------------------------------------------------------------------


class TestBatchedTape:
    @settings(deadline=None, max_examples=8)
    @given(
        width=st.integers(min_value=1, max_value=6),
        cycle=st.sampled_from(["V", "W", "F"]),
        smoother=st.sampled_from(["l1-jacobi", "chebyshev", "gauss-seidel"]),
    )
    def test_taped_solve_multi_bit_identical_per_column(
        self, width, cycle, smoother
    ):
        h = amg_setup(poisson2d(16))
        params = SolveParams(max_iterations=3, cycle_type=cycle,
                             smoother=smoother)
        b = _panel(h.levels[0].n, width)
        tape = record_cycle(h, params, batch=width)
        x, stats = taped_solve(tape, b, params=params)
        tape1 = record_cycle(h, params)
        for j in range(width):
            xj, sj = taped_solve(tape1, b[:, j], params=params)
            np.testing.assert_array_equal(x[:, j], xj)
            assert stats[j].residual_history == sj.residual_history
            assert stats[j].spmv_calls == sj.spmv_calls

    def test_tolerance_freezes_converged_columns(self):
        h = amg_setup(poisson2d(24))
        n = h.levels[0].n
        params = SolveParams(max_iterations=60, tolerance=1e-8)
        b = _panel(n, 3, seed=11)
        b[:, 1] = 0.0  # zero column: converged at iteration 0
        tape = record_cycle(h, params, batch=3)
        x, stats = taped_solve(tape, b, params=params)
        assert stats[1].iterations == 0 and stats[1].converged
        tape1 = record_cycle(h, params)
        for j in range(3):
            xj, sj = taped_solve(tape1, b[:, j], params=params)
            np.testing.assert_array_equal(x[:, j], xj)
            assert stats[j].iterations == sj.iterations
            assert stats[j].converged == sj.converged

    def test_checked_region_verifies_batched_replay(self):
        h = amg_setup(poisson2d(16))
        params = SolveParams(max_iterations=2)
        tape = record_cycle(h, params, batch=3)
        with checked_region(enabled=True):
            taped_solve(tape, _panel(h.levels[0].n, 3), params=params)

    def test_corrupted_batch_tape_caught_by_oracle(self):
        h = amg_setup(poisson2d(16))
        params = SolveParams(max_iterations=2)
        tape = record_cycle(h, params, batch=2)
        ops = list(tape.ops)
        ws = tape.workspace

        def corrupt() -> None:
            ws.x[0][1] += 1e-3  # only column 1 drifts

        object.__setattr__(tape, "ops", tuple(ops) + (type(ops[0])(
            "smooth", 0, corrupt, 0),))
        object.__setattr__(tape, "_fns", tape._fns + (corrupt,))
        with checked_region(enabled=True):
            with pytest.raises(ContractViolation, match="column 1"):
                taped_solve(tape, _panel(h.levels[0].n, 2), params=params)

    def test_width_mismatch_and_width1_guard(self):
        h = amg_setup(poisson2d(16))
        n = h.levels[0].n
        tape = record_cycle(h, batch=3)
        with pytest.raises(ValueError, match="width"):
            taped_solve(tape, _panel(n, 4))
        with pytest.raises(ValueError, match="width"):
            taped_solve(tape, np.ones(n))
        tape1 = record_cycle(h)
        with pytest.raises(ValueError, match="width"):
            taped_solve(tape1, _panel(n, 3))
        # A one-column panel is a width-1 solve, returned as a panel.
        x, stats = taped_solve(tape1, _panel(n, 1), params=SolveParams(
            max_iterations=2))
        xv, sv = taped_solve(tape1, _panel(n, 1)[:, 0],
                             params=SolveParams(max_iterations=2))
        assert x.shape == (n, 1) and len(stats) == 1
        np.testing.assert_array_equal(x[:, 0], xv)
        assert stats[0].residual_history == sv.residual_history

    def test_record_cycle_rejects_bad_batch(self):
        h = amg_setup(poisson2d(16))
        with pytest.raises(ValueError):
            record_cycle(h, batch=0)
        with pytest.raises(ValueError):
            record_cycle(h, batch=-2)


# ---------------------------------------------------------------------------
# Driver level: BoomerAMG / AmgTSolver
# ---------------------------------------------------------------------------


class TestDriverMultiRHS:
    @pytest.mark.parametrize("backend", ["amgt", "hypre"])
    @pytest.mark.parametrize("precision", ["fp64", "mixed"])
    def test_solve_multi_columns_match_taped_solve(self, backend, precision):
        s = _solver(backend, precision)
        b = _panel(s.hierarchy.levels[0].n, 4)
        res = s.solve_multi(b, max_iterations=4)
        assert isinstance(res, MultiSolveResult)
        assert res.num_rhs == 4
        for j in range(4):
            sj = _solver(backend, precision)
            rj = sj.solve(b[:, j], max_iterations=4, tape=True)
            np.testing.assert_array_equal(res.x[:, j], rj.x)
            assert res.stats[j].residual_history == \
                rj.stats.residual_history

    def test_tapes_keyed_by_cycle_shape_and_width(self):
        s = _solver()
        d = s._driver
        n = s.hierarchy.levels[0].n
        s.solve(np.ones(n), max_iterations=1, tape=True)
        s.solve_multi(_panel(n, 1), max_iterations=1)  # a panel of one
        s.solve_multi(_panel(n, 2), max_iterations=1)
        s.solve_multi(_panel(n, 5), max_iterations=1)
        s.solve_multi(_panel(n, 5), max_iterations=1)  # cache hit
        assert sorted(t.batch for t in d._tapes.values()) == [1, 2, 5]

    def test_setup_invalidates_batch_tapes(self):
        s = _solver()
        n = s.hierarchy.levels[0].n
        s.solve_multi(_panel(n, 2), max_iterations=1)
        s.setup(poisson2d(32))
        assert not s._driver._tapes

    def test_precondition_multi_matches_columns(self):
        s = _solver()
        d = s._driver
        r = _panel(s.hierarchy.levels[0].n, 3)
        z = d.precondition(r)  # a panel replays the width-3 tape
        for j in range(3):
            sj = _solver()
            zj = sj._driver.precondition(r[:, j])
            np.testing.assert_array_equal(z[:, j], zj)

    def test_solve_multi_perf_records_spmm(self):
        s = _solver()
        s.solve_multi(_panel(s.hierarchy.levels[0].n, 4), max_iterations=2)
        spmm = [r for r in s.performance.records if r.kernel == "spmm"]
        assert spmm and all(r.detail["width"] == 4 for r in spmm)
        assert all(r.sim_time_us > 0 for r in spmm)

    def test_amg_solve_multi_matches_amg_solve(self):
        h = amg_setup(poisson2d(16))
        b = _panel(h.levels[0].n, 3)
        params = SolveParams(max_iterations=3)
        x, stats = amg_solve(h, b, params=params)
        for j in range(3):
            xj, sj = amg_solve(h, b[:, j], params=params)
            np.testing.assert_array_equal(x[:, j], xj)
            assert stats[j].residual_history == sj.residual_history


# ---------------------------------------------------------------------------
# RHS shape handling (the bugfixes)
# ---------------------------------------------------------------------------


class TestRHSShapes:
    def test_normalize_rhs_accepts_column_vector(self):
        b = np.arange(5.0).reshape(5, 1)
        out = normalize_rhs(b, 5)
        assert out.shape == (5,)
        np.testing.assert_array_equal(out, np.arange(5.0))

    def test_normalize_rhs_rejects_wide_panel(self):
        with pytest.raises(ValueError, match="multi"):
            normalize_rhs(np.ones((5, 2)), 5)

    def test_normalize_rhs_panel_rejects_transposed(self):
        with pytest.raises(ValueError, match="transpose"):
            normalize_rhs_panel(np.ones((3, 8)), 8)

    @pytest.mark.parametrize("entry", ["solve", "krylov"])
    def test_column_vector_rhs_accepted_end_to_end(self, entry):
        s = _solver(n=16)
        n = s.hierarchy.levels[0].n
        b = np.ones((n, 1))
        if entry == "solve":
            r2 = s.solve(b, max_iterations=2)
            r1 = _solver(n=16).solve(np.ones(n), max_iterations=2)
            np.testing.assert_array_equal(r2.x, r1.x)
        else:
            r2 = s.solve_krylov(b, tolerance=1e-6, max_iterations=30)
            assert r2.converged

    def test_krylov_rejects_wide_rhs_with_pointer(self):
        s = _solver(n=16)
        n = s.hierarchy.levels[0].n
        with pytest.raises(ValueError, match="multi"):
            s.solve_krylov(np.ones((n, 2)))

    def test_solve_multi_accepts_1d_as_width1(self):
        s = _solver(n=16)
        n = s.hierarchy.levels[0].n
        res = s.solve_multi(np.ones(n), max_iterations=2)
        assert res.x.shape == (n, 1)


class TestKrylovBreakdownAndNormRef:
    def test_pcg_breakdown_labelled_on_indefinite_operator(self):
        from repro.solvers import pcg

        n = 8
        d = np.ones(n)
        d[n // 2:] = -1.0  # indefinite diagonal

        res = pcg(lambda v: d * v, np.ones(n), tolerance=1e-12,
                  max_iterations=50)
        assert not res.converged
        assert res.breakdown == "indefinite-operator"

    def test_pcg_clean_run_has_no_breakdown(self):
        from repro.solvers import pcg

        res = pcg(lambda v: 2.0 * v, np.ones(8), tolerance=1e-10)
        assert res.converged and res.breakdown is None

    def test_bicgstab_breakdown_is_string_label(self):
        from repro.solvers import bicgstab

        # x0 solves the shifted system exactly after one step such that
        # rho = r_hat . r hits zero: easiest to trigger with r0 = 0-adjacent
        # constructions; a singular operator reliably degenerates.
        res = bicgstab(lambda v: 0.0 * v, np.ones(4), tolerance=1e-12,
                       max_iterations=10)
        assert not res.converged
        assert res.breakdown in {"rho-zero", "rhat-orthogonal", "tt-zero",
                                 "omega-zero"}
        assert bool(res.breakdown)  # truthy, like the old boolean field

    @pytest.mark.parametrize("method", ["pcg", "gmres", "bicgstab"])
    def test_final_relative_residual_uses_stopping_norm_ref(self, method):
        from repro.solvers import bicgstab, gmres, pcg

        solvers = {"pcg": pcg, "gmres": gmres, "bicgstab": bicgstab}
        n = 12
        rng = np.random.default_rng(5)
        b = rng.normal(size=n)
        x0 = 100.0 * rng.normal(size=n)  # makes ||r0|| >> ||b||
        res = solvers[method](lambda v: 3.0 * v, b, x0=x0,
                              tolerance=1e-8, max_iterations=200)
        assert res.converged
        assert res.norm_ref == pytest.approx(float(np.linalg.norm(b)))
        # the reported ratio is measured against the stopping reference,
        # hence really below the tolerance
        assert res.final_relative_residual <= 1e-8 * (1 + 1e-12)
        assert res.final_relative_residual == pytest.approx(
            res.residual_history[-1] / res.norm_ref)
