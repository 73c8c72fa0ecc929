"""Tests for the extended AmgTSolver facade: cycles, smoothers, Krylov."""

import numpy as np
import pytest

from repro import AmgTSolver
from repro.matrices import convection_diffusion_2d, poisson2d
from repro.obs.profile import attribute_log
from repro.perf.export import to_csv, to_json


class TestCycleAndSmootherOptions:
    @pytest.fixture(scope="class")
    def setup_solver(self):
        a = poisson2d(16)
        s = AmgTSolver(backend="amgt", device="A100")
        s.setup(a)
        return a, s

    @pytest.mark.parametrize("cycle_type", ["V", "W", "F"])
    def test_cycles_through_facade(self, setup_solver, cycle_type):
        a, s = setup_solver
        res = s.solve(np.ones(a.nrows), max_iterations=40, tolerance=1e-8,
                      cycle_type=cycle_type)
        assert res.converged

    @pytest.mark.parametrize("smoother", ["l1-jacobi", "chebyshev"])
    def test_smoothers_through_facade(self, setup_solver, smoother):
        a, s = setup_solver
        res = s.solve(np.ones(a.nrows), max_iterations=40, tolerance=1e-8,
                      smoother=smoother)
        assert res.converged

    def test_invalid_cycle_rejected(self, setup_solver):
        a, s = setup_solver
        with pytest.raises(ValueError):
            s.solve(np.ones(a.nrows), cycle_type="Z")

    def test_w_cycle_records_more_spmv(self, setup_solver):
        a, s = setup_solver
        before = s.performance.count("spmv")
        s.solve(np.ones(a.nrows), max_iterations=1, cycle_type="V")
        v_calls = s.performance.count("spmv") - before
        mid = s.performance.count("spmv")
        s.solve(np.ones(a.nrows), max_iterations=1, cycle_type="W")
        w_calls = s.performance.count("spmv") - mid
        assert w_calls > v_calls


class TestSolveKrylov:
    def test_requires_setup(self):
        s = AmgTSolver()
        with pytest.raises(RuntimeError):
            s.solve_krylov(np.ones(4))

    def test_unknown_method(self):
        a = poisson2d(8)
        s = AmgTSolver(backend="amgt", device="A100")
        s.setup(a)
        with pytest.raises(ValueError):
            s.solve_krylov(np.ones(a.nrows), method="minres")

    @pytest.mark.parametrize("method", ["pcg", "gmres", "bicgstab"])
    def test_converges(self, method):
        a = poisson2d(14)
        s = AmgTSolver(backend="amgt", device="A100")
        s.setup(a)
        res = s.solve_krylov(np.ones(a.nrows), method=method,
                             tolerance=1e-9, max_iterations=100)
        assert res.converged
        np.testing.assert_allclose(a.matvec(res.x), np.ones(a.nrows),
                                   atol=1e-5)

    def test_outer_matvec_tracked(self):
        """solve_krylov must record the outer SpMVs, not just the
        preconditioner's (the Sec. II.B accounting)."""
        a = poisson2d(12)
        s = AmgTSolver(backend="amgt", device="A100")
        s.setup(a)
        before = s.performance.count("spmv")
        res = s.solve_krylov(np.ones(a.nrows), method="pcg",
                             tolerance=1e-8, max_iterations=50)
        recorded = s.performance.count("spmv") - before
        per_cycle = 5 * (s.hierarchy.num_levels - 1)
        # every iteration: 1 outer matvec + 1 V-cycle; plus initial work
        assert recorded > res.iterations * per_cycle
        assert recorded >= res.iterations * (per_cycle + 1)

    def test_nonsymmetric_gmres(self):
        a = convection_diffusion_2d(16, velocity=(1.0, 0.2))
        s = AmgTSolver(backend="amgt", device="H100", precision="mixed")
        s.setup(a)
        res = s.solve_krylov(np.ones(a.nrows), method="gmres",
                             tolerance=1e-8, max_iterations=200)
        assert res.converged


class TestPerfExport:
    @pytest.fixture(scope="class")
    def solved(self):
        a = poisson2d(10)
        s = AmgTSolver(backend="amgt", device="H100")
        s.setup(a)
        s.solve(np.ones(a.nrows), max_iterations=3)
        return s

    def test_to_csv(self, solved, tmp_path):
        path = to_csv(solved.performance, tmp_path / "log.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == len(solved.performance.records) + 1
        assert lines[0].startswith("index,phase,kernel")

    def test_to_json_roundtrip(self, solved, tmp_path):
        import json

        path = tmp_path / "log.json"
        data = to_json(solved.performance, path)
        assert json.loads(path.read_text()) == data
        assert data[0]["kernel"]
        assert all(r["sim_time_us"] >= 0 for r in data)

    def test_level_attribution(self, solved):
        """The per-level table (Fig. 8's bands) is attribute_log's cells."""
        cells = [c for c in attribute_log(solved.performance)
                 if c.phase == "solve"]
        levels = solved.hierarchy.num_levels
        # every non-coarsest level ran SpMV calls
        for k in range(levels - 1):
            spmv = [c for c in cells if c.level == k and c.kernel == "spmv"]
            assert spmv and all(c.calls > 0 for c in spmv)
        total = sum(c.sim_us for c in cells)
        assert total == pytest.approx(
            sum(r.sim_time_us for r in solved.performance.by_phase("solve"))
        )

    def test_level_attribution_all_phases(self, solved):
        kernels = {c.kernel for c in attribute_log(solved.performance)}
        assert {"spgemm", "spmv"} <= kernels


class TestAggregationFamily:
    def test_sa_through_facade(self):
        from repro import SetupParams

        a = poisson2d(16)
        s = AmgTSolver(backend="amgt", device="H100",
                       setup_params=SetupParams(amg_family="aggregation"))
        s.setup(a)
        res = s.solve_krylov(np.ones(a.nrows), method="pcg",
                             tolerance=1e-9, max_iterations=80)
        assert res.converged
        # SA setup also runs 3 SpGEMMs per coarse level through the backend
        levels = s.hierarchy.num_levels
        assert s.performance.count("spgemm") == 3 * (levels - 1)

    def test_unknown_family_rejected(self):
        from repro import SetupParams
        from repro.amg.hierarchy import amg_setup

        with pytest.raises(ValueError):
            amg_setup(poisson2d(8), SetupParams(amg_family="geometric"))

    def test_cli_amg_family(self, capsys):
        from repro.cli import main

        rc = main(["solve", "--matrix", "poisson2d:12",
                   "--amg-family", "aggregation", "--krylov", "pcg",
                   "--max-iterations", "80"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged=True" in out
