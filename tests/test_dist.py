"""Tests for the multi-GPU simulation layer (repro.dist)."""

import numpy as np
import pytest

from repro.amg.cycle import SolveParams, amg_solve
from repro.amg.hierarchy import amg_setup
from repro.dist.comm import CommCost, SimComm
from repro.dist.par_csr import ParCSRMatrix
from repro.dist.par_solver import ParAMGSolver
from repro.dist.partition import partition_rows
from repro.matrices import poisson2d

from conftest import random_csr


class TestPartition:
    def test_balanced(self):
        p = partition_rows(10, 3)
        assert p.num_ranks == 3
        sizes = [p.local_size(r) for r in range(3)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_owner_of(self):
        p = partition_rows(12, 4)
        assert p.owner_of(0) == 0
        assert p.owner_of(11) == 3
        np.testing.assert_array_equal(p.owner_of(np.array([0, 3, 6, 9])), [0, 1, 2, 3])

    def test_more_ranks_than_rows(self):
        p = partition_rows(2, 5)
        assert sum(p.local_size(r) for r in range(5)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_rows(4, 0)
        with pytest.raises(ValueError):
            partition_rows(-1, 2)


class TestComm:
    def test_message_cost_alpha_beta(self):
        cost = CommCost(alpha_us=5.0, beta_bytes_per_us=100.0)
        assert cost.message_us(0) == 0.0
        assert cost.message_us(1000) == pytest.approx(5.0 + 10.0)

    def test_exchange_max_over_ranks(self):
        comm = SimComm(2, CommCost(alpha_us=1.0, beta_bytes_per_us=1.0))
        bytes_matrix = np.array([[0.0, 4.0], [0.0, 0.0]])
        step = comm.exchange(bytes_matrix)
        # one message of 4 bytes: cost 5us charged to both endpoints
        assert step == pytest.approx(5.0)
        assert comm.messages == 1
        assert comm.bytes_moved == 4.0

    def test_exchange_shape_check(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.exchange(np.zeros((3, 3)))

    def test_allreduce_scales_with_ranks(self):
        c2 = SimComm(2).allreduce_us(8)
        c8 = SimComm(8).allreduce_us(8)
        assert c8 > c2


class TestParCSR:
    def test_blocks_partition_the_row_slice(self, rng):
        a = random_csr(20, 20, 0.25, seed=1)
        part = partition_rows(20, 4)
        x = rng.normal(size=20)
        ref = a.to_dense() @ x
        for r in range(4):
            sl = ParCSRMatrix.from_global(a, part, r)
            lo, hi = part.local_range(r)
            y = sl.local_matvec(x[lo:hi], sl.gather_halo(x))
            np.testing.assert_allclose(y, ref[lo:hi], atol=1e-12)
            assert sl.nnz == a.extract_rows(np.arange(lo, hi)).nnz

    def test_rectangular_with_col_partition(self, rng):
        a = random_csr(12, 20, 0.3, seed=2)
        rpart = partition_rows(12, 3)
        cpart = partition_rows(20, 3)
        x = rng.normal(size=20)
        ref = a.to_dense() @ x
        for r in range(3):
            sl = ParCSRMatrix.from_global(a, rpart, r, col_partition=cpart)
            clo, chi = cpart.local_range(r)
            y = sl.local_matvec(x[clo:chi], sl.gather_halo(x))
            lo, hi = rpart.local_range(r)
            np.testing.assert_allclose(y, ref[lo:hi], atol=1e-12)

    def test_partition_size_validation(self):
        a = random_csr(10, 10, 0.3)
        with pytest.raises(ValueError):
            ParCSRMatrix.from_global(a, partition_rows(8, 2), 0)

    def test_col_map_sorted_and_external(self):
        a = random_csr(16, 16, 0.3, seed=3)
        part = partition_rows(16, 4)
        sl = ParCSRMatrix.from_global(a, part, 1)
        lo, hi = part.local_range(1)
        assert np.all(np.diff(sl.col_map_offd) > 0)
        assert not np.any((sl.col_map_offd >= lo) & (sl.col_map_offd < hi))

    def test_halo_bytes_exclude_self(self):
        a = random_csr(16, 16, 0.4, seed=4)
        part = partition_rows(16, 4)
        sl = ParCSRMatrix.from_global(a, part, 2)
        hb = sl.halo_bytes_from()
        assert hb[2] == 0.0
        assert hb.shape == (4,)


class TestParSolver:
    def test_matches_serial_numerics(self):
        a = poisson2d(16)
        b = np.ones(a.nrows)
        h = amg_setup(a)
        x_serial, _ = amg_solve(h, b, params=SolveParams(max_iterations=8))
        for ranks in (1, 3, 8):
            s = ParAMGSolver(num_ranks=ranks, backend="hypre", device="A100")
            s.setup(a)
            x_par, rep = s.solve(b, max_iterations=8)
            np.testing.assert_allclose(x_par, x_serial, atol=1e-10)

    def test_amgt_and_hypre_agree(self):
        a = poisson2d(12)
        b = np.ones(a.nrows)
        xs = {}
        for backend in ("hypre", "amgt"):
            s = ParAMGSolver(num_ranks=4, backend=backend, device="A100")
            s.setup(a)
            xs[backend], _ = s.solve(b, max_iterations=6)
        np.testing.assert_allclose(xs["hypre"], xs["amgt"], atol=1e-9)

    def test_report_fields(self):
        a = poisson2d(12)
        s = ParAMGSolver(num_ranks=4, backend="amgt", device="A100")
        s.setup(a)
        _, rep = s.solve(np.ones(a.nrows), max_iterations=4)
        assert rep.local_kernel_us > 0
        assert rep.comm_us > 0
        assert rep.total_us == rep.local_kernel_us + rep.comm_us
        assert rep.spmv_calls > 0

    def test_more_ranks_more_comm(self):
        a = poisson2d(16)
        comms = []
        for ranks in (2, 8):
            s = ParAMGSolver(num_ranks=ranks, backend="hypre", device="A100")
            s.setup(a)
            _, rep = s.solve(np.ones(a.nrows), max_iterations=4)
            comms.append(rep.comm_us)
        assert comms[1] > comms[0]

    def test_single_rank_no_halo_comm(self):
        a = poisson2d(10)
        s = ParAMGSolver(num_ranks=1, backend="hypre", device="A100")
        s.setup(a)
        _, rep = s.solve(np.ones(a.nrows), max_iterations=3)
        # only the allreduce term remains
        assert rep.comm_us == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParAMGSolver(backend="mpi")
        with pytest.raises(ValueError):
            ParAMGSolver(precision="int8")
        with pytest.raises(ValueError):
            ParAMGSolver(num_ranks=0)
        s = ParAMGSolver(num_ranks=2)
        with pytest.raises(RuntimeError):
            s.solve(np.ones(4))

    def test_mixed_precision_still_converges(self):
        a = poisson2d(16)
        s = ParAMGSolver(num_ranks=4, backend="amgt", device="A100",
                         precision="mixed")
        s.setup(a)
        _, rep = s.solve(np.ones(a.nrows), max_iterations=40, tolerance=1e-8)
        assert rep.converged


    def test_mi210_mixed_prices_local_spmv_like_the_serial_backend(self):
        """MI210 keeps FP64-resident storage under the mixed schedule
        (Sec. V.F): a one-rank distributed solve prices each level's local
        SpMV exactly as the serial AmgT backend's binding does."""
        import repro.obs as obs
        from repro.gpu.specs import get_device
        from repro.hypre.backends import AmgTBackend
        from repro.hypre.csr_matrix import HypreCSRMatrix
        from repro.obs import trace as obs_trace
        from repro.perf.timeline import PerformanceLog

        a = poisson2d(24)
        s = ParAMGSolver(num_ranks=1, backend="amgt", device="MI210",
                         precision="mixed")
        s.setup(a)
        obs.reset()
        try:
            with obs.trace_region():
                s.solve(np.ones(a.nrows), max_iterations=1)
            priced: dict[int, set[float]] = {}
            for root in obs_trace.TRACER.roots:
                for sp in root.find(kind="kernel", name="spmv"):
                    if sp.attrs.get("op") == "A":
                        priced.setdefault(sp.attrs["level"], set()).add(
                            sp.attrs["sim_us"])
        finally:
            obs.reset()
        backend = AmgTBackend(get_device("MI210"), precision="mixed")
        levels = s.hierarchy.levels[:-1]
        assert sorted(priced) == list(range(len(levels)))
        for k, lvl in enumerate(levels):
            binding = backend.bind_matvec(HypreCSRMatrix(csr=lvl.a),
                                          PerformanceLog(), "solve", k)
            assert priced[k] == {binding.record.sim_time_us}, k


class TestParPCG:
    def test_converges_and_matches_direct(self):
        a = poisson2d(14)
        b = np.ones(a.nrows)
        s = ParAMGSolver(num_ranks=4, backend="amgt", device="A100")
        s.setup(a)
        x, rep = s.solve_pcg(b, max_iterations=60, tolerance=1e-10)
        assert rep.converged
        np.testing.assert_allclose(a.matvec(x), b, atol=1e-6)
        assert rep.comm_us > 0
        assert rep.local_kernel_us > 0

    def test_requires_setup(self):
        s = ParAMGSolver(num_ranks=2)
        with pytest.raises(RuntimeError):
            s.solve_pcg(np.ones(4))

    def test_fewer_iterations_than_vcycling(self):
        a = poisson2d(14)
        b = np.ones(a.nrows)
        s = ParAMGSolver(num_ranks=2, backend="hypre", device="A100")
        s.setup(a)
        _, rep_v = s.solve(b, max_iterations=60, tolerance=1e-8)
        s2 = ParAMGSolver(num_ranks=2, backend="hypre", device="A100")
        s2.setup(a)
        _, rep_p = s2.solve_pcg(b, max_iterations=60, tolerance=1e-8)
        assert rep_p.converged
        assert rep_p.iterations <= rep_v.iterations


class TestDistributedSetupReport:
    def test_requires_setup(self):
        s = ParAMGSolver(num_ranks=2)
        with pytest.raises(RuntimeError):
            s.setup_report()

    def test_reports_kernel_and_comm(self):
        a = poisson2d(16)
        s = ParAMGSolver(num_ranks=8, backend="amgt", device="A100")
        s.setup(a)
        rep = s.setup_report()
        assert rep.local_kernel_us > 0
        assert rep.comm_us > 0

    def test_amgt_setup_cheaper_than_hypre(self):
        a = poisson2d(20)
        reports = {}
        for backend in ("hypre", "amgt"):
            s = ParAMGSolver(num_ranks=8, backend=backend, device="A100")
            s.setup(a)
            reports[backend] = s.setup_report()
        assert (reports["amgt"].local_kernel_us
                < reports["hypre"].local_kernel_us)
        # the comm term is common to both configurations
        assert reports["amgt"].comm_us == pytest.approx(
            reports["hypre"].comm_us, rel=1e-9
        )

    def test_more_ranks_less_local_work(self):
        a = poisson2d(16)
        kern = []
        for ranks in (2, 8):
            s = ParAMGSolver(num_ranks=ranks, backend="amgt", device="A100")
            s.setup(a)
            kern.append(s.setup_report().local_kernel_us)
        assert kern[1] < kern[0]
