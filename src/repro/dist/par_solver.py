"""Distributed AMG solve simulation (the Fig. 9 experiment).

The simulated multi-GPU run mirrors how HYPRE executes AMG on eight
GPUs: the hierarchy is built once (setup is identical across solver
configurations — Fig. 9 compares solve-dominated totals), every level's
operators are partitioned into ParCSR slices, and each V-cycle SpMV
becomes: halo exchange -> per-rank local SpMV (priced on the rank's own
device model) -> barrier.  The per-call simulated time is

``max over ranks (local kernel time) + halo exchange time``

so the configuration differences (HYPRE CSR kernels vs AmgT mBSR kernels,
FP64 vs mixed) act on the local-kernel term, while the communication term
is common — which is exactly why the paper's multi-GPU speedups (1.35x)
are lower than the single-GPU ones (1.32-1.46x): Amdahl on the comm share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amg.hierarchy import AMGHierarchy, SetupParams, amg_setup
from repro.dist.comm import CommCost, SimComm
from repro.dist.par_csr import ParCSRMatrix
from repro.dist.partition import RowPartition, partition_rows
from repro.formats.csr import CSRMatrix
from repro.gpu.cost import CostModel
from repro.gpu.counters import Precision
from repro.gpu.specs import DeviceSpec, get_device
from repro.hypre.csr_matrix import HypreCSRMatrix
from repro.kernels.baseline import csr_spmv
from repro.kernels.spmv import mbsr_spmv
from repro.obs import trace as obs_trace

__all__ = ["ParAMGSolver", "ParSolveReport"]


@dataclass
class ParSolveReport:
    """Simulated outcome of a distributed solve."""

    iterations: int
    converged: bool
    relative_residual: float
    local_kernel_us: float = 0.0
    comm_us: float = 0.0
    spmv_calls: int = 0

    @property
    def total_us(self) -> float:
        return self.local_kernel_us + self.comm_us


class ParAMGSolver:
    """AMG over simulated ranks with per-call comm + max-rank pricing."""

    def __init__(
        self,
        num_ranks: int = 8,
        backend: str = "amgt",
        device: str | DeviceSpec = "A100",
        precision: str = "fp64",
        comm_cost: CommCost | None = None,
        setup_params: SetupParams | None = None,
        checked: bool = False,
    ):
        if backend not in ("amgt", "hypre"):
            raise ValueError(f"unknown backend {backend!r}")
        if precision not in ("fp64", "mixed"):
            raise ValueError(f"unknown precision {precision!r}")
        self.num_ranks = int(num_ranks)
        if self.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.backend = backend
        self.device = device if isinstance(device, DeviceSpec) else get_device(device)
        self.cost = CostModel(self.device)
        self.precision_mode = precision
        self.comm = SimComm(self.num_ranks, comm_cost or CommCost())
        self.setup_params = setup_params or SetupParams()
        #: When True, setup/solve run under the :mod:`repro.check`
        #: contract checker (same effect as ``REPRO_CHECK=1``, scoped).
        self.checked = bool(checked)
        self.hierarchy: AMGHierarchy | None = None
        #: Per level, per operator: list of rank slices + wrapped locals.
        self._slices: list[dict[str, list[ParCSRMatrix]]] = []
        self._wrapped: dict[tuple[int, str, int, str], HypreCSRMatrix] = {}
        from repro.amg.precision import PrecisionSchedule

        if precision == "mixed":
            self.schedule = PrecisionSchedule.mixed(self.device)
        else:
            self.schedule = PrecisionSchedule.uniform(Precision.FP64)

    # ------------------------------------------------------------------
    def setup(self, a: CSRMatrix) -> "ParAMGSolver":
        """Build the hierarchy, then partition every level's operators.

        ``num_ranks`` may exceed a level's row count (coarse levels
        routinely have fewer rows than ranks); the surplus ranks own empty
        row ranges and the numerics are unchanged.
        """
        with obs_trace.span("ParAMGSolver.setup", "solver"):
            return self._setup_impl(a)

    def _setup_impl(self, a: CSRMatrix) -> "ParAMGSolver":
        from repro.check import runtime as check_runtime

        with check_runtime.checked_region(enabled=self.checked):
            self.hierarchy = amg_setup(a, self.setup_params)
        parts = [
            partition_rows(lvl.a.nrows, self.num_ranks) for lvl in self.hierarchy.levels
        ]
        if self.checked or check_runtime.is_active():
            from repro.check.structural import validate_partition

            for part, lvl in zip(parts, self.hierarchy.levels):
                validate_partition(part, lvl.a.nrows)
        self._slices = []
        for k, lvl in enumerate(self.hierarchy.levels):
            part = parts[k]
            entry: dict[str, object] = {"partition": part}
            entry["A"] = [
                ParCSRMatrix.from_global(lvl.a, part, r) for r in range(self.num_ranks)
            ]
            if lvl.r is not None:
                # R^k maps level k -> k+1: coarse rows, fine columns.
                cpart = parts[k + 1]
                entry["R"] = [
                    ParCSRMatrix.from_global(lvl.r, cpart, r, col_partition=part)
                    for r in range(self.num_ranks)
                ]
                entry["R_partition"] = cpart
            if lvl.p is not None:
                # P^k maps level k+1 -> k: fine rows, coarse columns.
                entry["P"] = [
                    ParCSRMatrix.from_global(lvl.p, part, r, col_partition=parts[k + 1])
                    for r in range(self.num_ranks)
                ]
            self._slices.append(entry)
        return self

    # ------------------------------------------------------------------
    def _wrapped_block(
        self, level: int, op: str, rank: int, block: str, csr: CSRMatrix
    ) -> HypreCSRMatrix:
        """Persistent wrapper per (level, op, rank, diag|offd) block.

        The wrapper's operator cache carries the mBSR form, the SpMV plan
        and the per-precision tile casts across the whole solve — one
        preprocessing per block, reused by every V-cycle SpMV that rank
        issues (the solve phase hits each block hundreds of times).
        """
        key = (level, op, rank, block)
        wrapped = self._wrapped.get(key)
        if wrapped is None:
            wrapped = HypreCSRMatrix(csr=csr)
            self._wrapped[key] = wrapped
        return wrapped

    def _local_spmv_us(
        self, level: int, op: str, sl: ParCSRMatrix, x_local, x_halo
    ) -> tuple[np.ndarray, float]:
        """Run + price one rank's local SpMV (diag and offd blocks)."""
        prec = self.schedule.for_level(level)
        total_us = 0.0
        if self.backend == "hypre":
            vendor = "cusparse" if self.device.vendor == "NVIDIA" else "rocsparse"
            y, rec = csr_spmv(sl.diag, x_local, Precision.FP64, backend=vendor)
            total_us += rec.price(self.cost)
            if sl.offd.nnz:
                y2, rec2 = csr_spmv(sl.offd, x_halo, Precision.FP64, backend=vendor)
                total_us += rec2.price(self.cost)
                y = y + y2
            return np.asarray(y, dtype=np.float64), total_us

        allow_tc = self.device.mma_shape_compatible
        storage = self.device.storage_itemsize
        wrapped = self._wrapped_block(level, op, sl.rank, "diag", sl.diag)
        m = wrapped.mbsr_at_precision(prec)
        y, rec = mbsr_spmv(m, np.asarray(x_local, dtype=np.float64), prec,
                           wrapped.spmv_plan(allow_tc), allow_tensor_cores=allow_tc,
                           storage_itemsize=storage)
        total_us += rec.price(self.cost)
        y = np.asarray(y, dtype=np.float64)
        if sl.offd.nnz:
            wrapped = self._wrapped_block(level, op, sl.rank, "offd", sl.offd)
            m = wrapped.mbsr_at_precision(prec)
            y2, rec2 = mbsr_spmv(m, np.asarray(x_halo, dtype=np.float64), prec,
                                 wrapped.spmv_plan(allow_tc),
                                 allow_tensor_cores=allow_tc,
                                 storage_itemsize=storage)
            total_us += rec2.price(self.cost)
            y = y + np.asarray(y2, dtype=np.float64)
        return y, total_us

    def _par_spmv(self, level: int, op: str, x: np.ndarray, report: ParSolveReport) -> np.ndarray:
        """One distributed SpMV: halo exchange + max-over-ranks local time."""
        entry = self._slices[level]
        slices: list[ParCSRMatrix] = entry[op]
        prec = self.schedule.for_level(level)
        # Halo exchange: bytes each rank receives from each owner.
        bytes_matrix = np.zeros((self.num_ranks, self.num_ranks))
        for sl in slices:
            recv = sl.halo_bytes_from(itemsize=prec.itemsize)
            bytes_matrix[:, sl.rank] += recv
        report.comm_us += self.comm.exchange(bytes_matrix)

        # Local kernels, bulk-synchronous: the step takes as long as the
        # slowest rank.
        part: RowPartition = entry["R_partition"] if op == "R" else entry["partition"]
        y = np.zeros(part.n)
        worst = 0.0
        traced = obs_trace.is_active()
        for sl in slices:
            lo, hi = part.local_range(sl.rank)
            col_lo, col_hi = sl.col_partition.local_range(sl.rank)
            x_local = x[col_lo:col_hi]
            x_halo = sl.gather_halo(x)
            if traced:
                # Each rank's local kernel gets its own span, stamped with
                # the rank tag so exporters can lay ranks on separate rows.
                with obs_trace.TRACER.tagged(rank=sl.rank):
                    sp = obs_trace.TRACER.open(
                        "spmv", "kernel", {"phase": "solve", "level": level,
                                           "op": op},
                    )
                    with sp:
                        y_local, us = self._local_spmv_us(
                            level, op, sl, x_local, x_halo
                        )
                    if sp:
                        sp.set(sim_us=us, backend=self.backend)
            else:
                y_local, us = self._local_spmv_us(level, op, sl, x_local, x_halo)
            worst = max(worst, us)
            y[lo:hi] = y_local
        report.local_kernel_us += worst
        report.spmv_calls += 1
        from repro.check import runtime as check_runtime

        if check_runtime.is_active():
            from repro.check import oracle

            lvl = self.hierarchy.levels[level]
            global_op = {"A": lvl.a, "R": lvl.r, "P": lvl.p}[op]
            oracle.verify_distributed_spmv(
                global_op, x, y,
                Precision.FP64 if self.backend == "hypre" else prec,
                self.num_ranks,
            )
        return y

    # ------------------------------------------------------------------
    def setup_report(self) -> ParSolveReport:
        """Simulated cost of the *distributed* setup phase.

        The hierarchy itself is built serially (numerics are partition
        independent); this prices what the eight-GPU setup would cost:
        each level's three SpGEMMs split across ranks by block-row
        ownership (bulk-synchronous, so per-call time is the slowest
        rank's share scaled by the partition imbalance) plus the halo
        broadcast of B-rows that a distributed SpGEMM performs before
        multiplying.
        """
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before setup_report()")
        from repro.formats.convert import csr_to_mbsr
        from repro.gpu.counters import Precision
        from repro.kernels.baseline import csr_spgemm
        from repro.kernels.spgemm import mbsr_spgemm

        report = ParSolveReport(iterations=0, converged=True, relative_residual=0.0)
        vendor = "cusparse" if self.device.vendor == "NVIDIA" else "rocsparse"
        for k, lvl in enumerate(self.hierarchy.levels[:-1]):
            prec = self.schedule.for_level(k)
            # The two Galerkin products; the interpolation-internal
            # SpGEMM operates on F-F/F-C slices of A of comparable size,
            # which the A @ P pair covers at this model's granularity.
            pairs = [(lvl.r, lvl.a), (lvl.a, lvl.p)]
            for left, right in pairs:
                if self.backend == "hypre":
                    _, rec = csr_spgemm(left, right, Precision.FP64,
                                        backend=vendor)
                else:
                    lm, rm = csr_to_mbsr(left), csr_to_mbsr(right)
                    _, rec = mbsr_spgemm(
                        lm, rm, prec,
                        storage_itemsize=self.device.storage_itemsize,
                    )
                    if not self.device.mma_shape_compatible:
                        mma = rec.counters.mma_issues[prec]
                        rec.counters.mma_issues[prec] = 0.0
                        rec.counters.add_flops(prec, mma * 2 * 2 * 64.0)
                serial_us = rec.price(self.cost)
                # per-rank share + ragged-partition imbalance
                report.local_kernel_us += serial_us / self.num_ranks * 1.1
                # halo broadcast: each rank fetches the external B rows it
                # multiplies against (~ (p-1)/p of B's entries touched once)
                halo_bytes = right.nnz * 12.0 * (self.num_ranks - 1) / max(
                    self.num_ranks, 1
                )
                bpp = np.zeros((self.num_ranks, self.num_ranks))
                per_pair = halo_bytes / max(self.num_ranks * (self.num_ranks - 1), 1)
                bpp[:] = per_pair
                np.fill_diagonal(bpp, 0.0)
                report.comm_us += self.comm.exchange(bpp)
        return report

    # ------------------------------------------------------------------
    def solve_pcg(
        self,
        b: np.ndarray,
        max_iterations: int = 200,
        tolerance: float = 1e-8,
    ) -> tuple[np.ndarray, ParSolveReport]:
        """Distributed PCG preconditioned by one distributed V-cycle.

        Both the outer matvec and the preconditioner run through the
        per-rank kernels and the halo-exchange cost model, plus the two
        dot-product allreduces per PCG iteration that the distributed
        algorithm requires.
        """
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before solve_pcg()")
        from repro.check import runtime as check_runtime

        with obs_trace.span("ParAMGSolver.solve_pcg", "solver"):
            with check_runtime.checked_region(enabled=self.checked):
                return self._solve_pcg_impl(b, max_iterations, tolerance)

    def _solve_pcg_impl(
        self, b: np.ndarray, max_iterations: int, tolerance: float
    ) -> tuple[np.ndarray, ParSolveReport]:
        from repro.solvers import pcg
        from repro.tape import record_cycle

        report = ParSolveReport(iterations=0, converged=False, relative_residual=1.0)

        def spmv(level: int, op: str, x: np.ndarray) -> np.ndarray:
            return self._par_spmv(level, op, x, report)

        def matvec(v: np.ndarray) -> np.ndarray:
            return spmv(0, "A", v)

        # One zero-guess V-cycle per application, replayed from a tape
        # whose bindings are the distributed SpMV closure: every replayed
        # SpMV still prices its halo exchange and local kernels per call.
        tape = record_cycle(self.hierarchy, spmv=spmv)
        result = pcg(matvec, b, preconditioner=tape,
                     tolerance=tolerance, max_iterations=max_iterations)
        report.iterations = result.iterations
        report.converged = result.converged
        report.relative_residual = result.final_relative_residual
        # Two dot-product allreduces per iteration + residual norms.
        for _ in range(2 * max(result.iterations, 1) + 1):
            report.comm_us += self.comm.allreduce_us(8.0)
        return result.x, report

    # ------------------------------------------------------------------
    def solve(
        self,
        b: np.ndarray,
        max_iterations: int = 50,
        tolerance: float = 0.0,
    ) -> tuple[np.ndarray, ParSolveReport]:
        """Distributed V-cycles; numerics match the single-device solve.

        The default ``tolerance=0.0`` is *paper mode*: all
        ``max_iterations`` cycles run (Fig. 9 times fixed-cycle solves),
        and ``report.converged`` still reports True when the residual
        reaches the requested tolerance or underflows the float64
        machine-precision floor ``norm0 * eps``.  Pass a positive
        *tolerance* to also stop early.
        """
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before solve()")
        with obs_trace.span("ParAMGSolver.solve", "solver"):
            return self._solve_impl(b, max_iterations, tolerance)

    def _solve_impl(
        self, b: np.ndarray, max_iterations: int, tolerance: float
    ) -> tuple[np.ndarray, ParSolveReport]:
        from repro.amg.cycle import SolveParams, amg_solve
        from repro.check import runtime as check_runtime

        report = ParSolveReport(iterations=0, converged=False, relative_residual=1.0)

        def spmv(level: int, op: str, x: np.ndarray) -> np.ndarray:
            return self._par_spmv(level, op, x, report)

        with check_runtime.checked_region(enabled=self.checked):
            x, stats = amg_solve(
                self.hierarchy, b,
                spmv=spmv,
                params=SolveParams(max_iterations=max_iterations, tolerance=tolerance),
            )
        report.iterations = stats.iterations
        report.converged = stats.converged
        report.relative_residual = stats.final_relative_residual
        # Residual-norm allreduce once per iteration.
        for _ in range(max(stats.iterations, 1) + 1):
            report.comm_us += self.comm.allreduce_us(8.0)
        return x, report
