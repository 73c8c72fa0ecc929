"""Tests for the setup phase (hierarchy) and the solve phase (V-cycle)."""

import numpy as np
import pytest

from repro.amg.coarse import CoarseSolver
from repro.amg.cycle import SolveParams, SolveStats, amg_solve, v_cycle
from repro.amg.hierarchy import SetupParams, amg_setup
from repro.amg.smoothers import (
    jacobi_sweep,
    l1_jacobi_diagonal,
    weighted_jacobi_diagonal,
)
from repro.formats.csr import CSRMatrix
from repro.matrices import anisotropic_diffusion_2d, poisson2d, poisson3d

from conftest import random_spd_csr


class TestSmoothers:
    def test_l1_diagonal(self):
        a = poisson2d(4)
        d = l1_jacobi_diagonal(a)
        np.testing.assert_allclose(d, np.abs(a.to_dense()).sum(axis=1))

    def test_l1_diagonal_zero_row_guard(self):
        a = CSRMatrix.zeros((3, 3))
        np.testing.assert_array_equal(l1_jacobi_diagonal(a), np.ones(3))

    def test_weighted_jacobi_diagonal(self):
        a = poisson2d(4)
        d = weighted_jacobi_diagonal(a, 0.5)
        np.testing.assert_allclose(d, np.diag(a.to_dense()) / 0.5)

    def test_sweep_reduces_residual(self):
        a = poisson2d(8)
        b = np.ones(a.nrows)
        dinv = 1.0 / l1_jacobi_diagonal(a)
        x = np.zeros(a.nrows)
        r0 = np.linalg.norm(b)
        x = jacobi_sweep(a.matvec, dinv, x, b, num_sweeps=5)
        assert np.linalg.norm(b - a.matvec(x)) < r0

    def test_sweep_counts_spmv(self):
        a = poisson2d(4)
        calls = []

        def spmv(v):
            calls.append(1)
            return a.matvec(v)

        jacobi_sweep(spmv, 1.0 / l1_jacobi_diagonal(a),
                     np.zeros(a.nrows), np.ones(a.nrows), num_sweeps=3)
        assert len(calls) == 3

    def test_sweep_does_not_mutate_input(self):
        a = poisson2d(4)
        x = np.zeros(a.nrows)
        jacobi_sweep(a.matvec, 1.0 / l1_jacobi_diagonal(a), x, np.ones(a.nrows))
        np.testing.assert_array_equal(x, 0)

    def test_exact_solution_is_fixed_point(self):
        a = poisson2d(6)
        xstar = np.linalg.solve(a.to_dense(), np.ones(a.nrows))
        out = jacobi_sweep(a.matvec, 1.0 / l1_jacobi_diagonal(a), xstar,
                           np.ones(a.nrows))
        np.testing.assert_allclose(out, xstar, atol=1e-10)


class TestCoarseSolver:
    def test_direct_solves_exactly(self, rng):
        a = random_spd_csr(12, 0.4, seed=1)
        cs = CoarseSolver(a, "direct")
        b = rng.normal(size=12)
        x = cs.solve(b)
        np.testing.assert_allclose(a.matvec(x), b, atol=1e-8)

    def test_jacobi_converges(self, rng):
        a = random_spd_csr(10, 0.3, seed=2)
        cs = CoarseSolver(a, "jacobi")
        b = rng.normal(size=10)
        x = cs.solve(b, sweeps=200)
        assert np.linalg.norm(a.matvec(x) - b) < 0.1 * np.linalg.norm(b)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            CoarseSolver(poisson2d(2), "cholesky")

    def test_empty_system(self):
        cs = CoarseSolver(CSRMatrix.zeros((0, 0)), "direct")
        assert cs.solve(np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("n", [2, 3, 9, 37])
    def test_direct_bit_equal_to_lu_solve(self, rng, n):
        import scipy.linalg

        a = random_spd_csr(n, 0.4, seed=n)
        cs = CoarseSolver(a, "direct")
        for b in rng.normal(size=(50, n)) * 10.0 ** rng.uniform(-8, 8, (50, 1)):
            np.testing.assert_array_equal(
                cs.solve(b).view(np.int64),
                scipy.linalg.lu_solve(cs._lu, b).view(np.int64),
            )


class TestSetup:
    def test_paper_defaults(self):
        p = SetupParams()
        assert p.strength_threshold == 0.25
        assert p.max_row_sum == 0.8
        assert p.max_levels == 7
        assert p.max_coarse_size == 3
        assert p.interp_method == "extended+i"
        assert p.trunc_factor == 0.1
        assert p.max_elmts == 4

    def test_level_cap(self):
        h = amg_setup(poisson2d(32), SetupParams(max_levels=3))
        assert h.num_levels <= 3

    def test_levels_shrink(self):
        h = amg_setup(poisson2d(16))
        sizes = [lvl.n for lvl in h.levels]
        assert all(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1))

    def test_operators_present(self):
        h = amg_setup(poisson2d(12))
        for lvl in h.levels[:-1]:
            assert lvl.p is not None and lvl.r is not None
            assert lvl.p.shape == (lvl.n, h.levels[lvl.index + 1].n)
            # R = P^T
            np.testing.assert_allclose(
                lvl.r.to_dense(), lvl.p.to_dense().T, atol=1e-12
            )
        assert h.levels[-1].p is None

    def test_galerkin_consistency(self):
        h = amg_setup(poisson2d(10))
        for k in range(h.num_levels - 1):
            lvl = h.levels[k]
            ref = lvl.r.to_dense() @ lvl.a.to_dense() @ lvl.p.to_dense()
            got = h.levels[k + 1].a.to_dense()
            np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_spgemm_call_count(self):
        h = amg_setup(poisson2d(16))
        # 3 SpGEMM per non-coarsest level: 1 interp + 2 Galerkin.
        assert h.spgemm_calls == 3 * (h.num_levels - 1)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            amg_setup(CSRMatrix.zeros((3, 4)))

    def test_operator_complexity(self):
        h = amg_setup(poisson2d(16))
        assert 1.0 < h.operator_complexity() < 4.0

    def test_describe(self):
        h = amg_setup(poisson2d(8))
        text = h.describe()
        assert "levels" in text and "level 0" in text

    def test_tiny_matrix_single_level(self):
        h = amg_setup(poisson2d(1))
        assert h.num_levels == 1

    def test_on_level_built_callback(self):
        seen = []
        amg_setup(poisson2d(12), on_level_built=lambda k, a: seen.append(k))
        assert seen == list(range(1, len(seen) + 1))


class TestSolve:
    @pytest.mark.parametrize(
        "gen", [lambda: poisson2d(16), lambda: poisson3d(6),
                lambda: anisotropic_diffusion_2d(16, epsilon=0.05)]
    )
    def test_converges_on_model_problems(self, gen):
        a = gen()
        h = amg_setup(a)
        x, stats = amg_solve(h, np.ones(a.nrows),
                             params=SolveParams(max_iterations=60, tolerance=1e-8))
        assert stats.converged
        assert stats.final_relative_residual <= 1e-8

    def test_residual_monotone_tail(self):
        a = poisson2d(16)
        h = amg_setup(a)
        _, stats = amg_solve(h, np.ones(a.nrows),
                             params=SolveParams(max_iterations=20))
        hist = stats.residual_history
        # after the initial transient, residuals decrease
        assert all(hist[i + 1] < hist[i] for i in range(2, len(hist) - 1))

    def test_spmv_count_formula(self):
        """Sec. V.A: iters * (5 * (levels-1) + 1) + 1 SpMV calls."""
        a = poisson2d(16)
        h = amg_setup(a)
        iters = 7
        _, stats = amg_solve(h, np.ones(a.nrows),
                             params=SolveParams(max_iterations=iters))
        levels = h.num_levels
        assert stats.spmv_calls == iters * (5 * (levels - 1) + 1) + 1

    def test_zero_rhs_immediate(self):
        a = poisson2d(8)
        h = amg_setup(a)
        x, stats = amg_solve(h, np.zeros(a.nrows))
        assert stats.converged
        np.testing.assert_array_equal(x, 0)

    def test_initial_guess_respected(self):
        a = poisson2d(8)
        h = amg_setup(a)
        xstar = np.linalg.solve(a.to_dense(), np.ones(a.nrows))
        x, stats = amg_solve(h, np.ones(a.nrows), x0=xstar,
                             params=SolveParams(max_iterations=2, tolerance=1e-12))
        assert stats.residual_history[0] < 1e-8

    def test_rhs_length_validation(self):
        h = amg_setup(poisson2d(8))
        with pytest.raises(ValueError):
            amg_solve(h, np.ones(5))

    def test_v_cycle_single_application(self):
        a = poisson2d(12)
        h = amg_setup(a)
        b = np.ones(a.nrows)
        stats = SolveStats()
        x = v_cycle(h, b, np.zeros(a.nrows), stats=stats)
        assert np.linalg.norm(b - a.matvec(x)) < np.linalg.norm(b)
        assert stats.spmv_calls == 5 * (h.num_levels - 1)

    def test_iteration_cap_respected(self):
        a = poisson2d(16)
        h = amg_setup(a)
        _, stats = amg_solve(h, np.ones(a.nrows),
                             params=SolveParams(max_iterations=3, tolerance=1e-15))
        assert stats.iterations == 3
        assert not stats.converged
