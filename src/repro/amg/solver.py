"""The standalone AmgT solver — the library's primary public API.

``AmgTSolver`` bundles the setup and solve phases behind one object:

>>> from repro import AmgTSolver
>>> from repro.matrices import poisson2d
>>> import numpy as np
>>> A = poisson2d(32)
>>> solver = AmgTSolver(backend="amgt", device="H100", precision="fp64")
>>> solver.setup(A)                                     # doctest: +ELLIPSIS
<repro.amg.solver.AmgTSolver object at ...>
>>> b = np.ones(A.nrows)
>>> result = solver.solve(b, tolerance=1e-8)
>>> result.converged
True

Backends:

* ``"amgt"`` — the paper's solver: mBSR format, hybrid tensor-core /
  CUDA-core SpGEMM and SpMV, with the Fig. 6 format-conversion data flow.
* ``"hypre"`` — the baseline: HYPRE-style CSR data flow calling
  vendor-style (cuSPARSE/rocSPARSE) kernels.

``precision="fp64"`` runs everything in double precision;
``precision="mixed"`` applies the Tsai et al. schedule (FP64 / FP32 /
FP16..., FP32 on devices without FP16 support).

Every simulated kernel call is recorded with its analytical cost on the
chosen device; ``solver.performance`` exposes the phase breakdowns the
paper's figures are built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amg.cycle import SolveParams, SolveStats
from repro.amg.hierarchy import AMGHierarchy, SetupParams
from repro.formats.csr import CSRMatrix
from repro.gpu.specs import DeviceSpec, get_device
from repro.hypre.backends import make_backend
from repro.hypre.boomeramg import BoomerAMG
from repro.perf.timeline import PerformanceLog

__all__ = ["AmgTSolver", "MultiSolveResult", "SolveResult"]


@dataclass
class SolveResult:
    """Outcome of :meth:`AmgTSolver.solve`."""

    x: np.ndarray
    stats: SolveStats
    performance: PerformanceLog

    @property
    def converged(self) -> bool:
        return self.stats.converged

    @property
    def iterations(self) -> int:
        return self.stats.iterations

    @property
    def relative_residual(self) -> float:
        return self.stats.final_relative_residual


@dataclass
class MultiSolveResult:
    """Outcome of :meth:`AmgTSolver.solve_multi`: an ``(n, k)`` solution
    panel with one :class:`~repro.amg.cycle.SolveStats` per column."""

    x: np.ndarray
    stats: list[SolveStats]
    performance: PerformanceLog

    @property
    def num_rhs(self) -> int:
        return self.x.shape[1]

    @property
    def converged(self) -> bool:
        """True when *every* column converged."""
        return all(s.converged for s in self.stats)

    @property
    def iterations(self) -> int:
        """Iterations of the slowest column."""
        return max(s.iterations for s in self.stats)

    @property
    def relative_residuals(self) -> list[float]:
        return [s.final_relative_residual for s in self.stats]


class AmgTSolver:
    """Algebraic multigrid solver with pluggable (simulated) GPU backends."""

    def __init__(
        self,
        backend: str = "amgt",
        device: str | DeviceSpec = "H100",
        precision: str = "fp64",
        setup_params: SetupParams | None = None,
        checked: bool = False,
    ):
        if backend not in ("amgt", "hypre"):
            raise ValueError(f"unknown backend {backend!r}; use 'amgt' or 'hypre'")
        if precision not in ("fp64", "mixed"):
            raise ValueError(f"unknown precision {precision!r}; use 'fp64' or 'mixed'")
        self.device = device if isinstance(device, DeviceSpec) else get_device(device)
        self.backend_name = backend
        self.precision_name = precision
        self.setup_params = setup_params or SetupParams()
        #: When True, every kernel call of this solver's setup/solve runs
        #: under the :mod:`repro.check` contract checker (same effect as
        #: ``REPRO_CHECK=1``, scoped to this solver).
        self.checked = bool(checked)
        self._driver: BoomerAMG | None = None

    # ------------------------------------------------------------------
    def setup(
        self, a: CSRMatrix, reuse: bool = False, patch: bool = False
    ) -> "AmgTSolver":
        """Run the setup phase (Alg. 1) on *a*.

        With ``reuse=True`` (after an earlier :meth:`setup`) the previous
        hierarchy's coarsening and interpolation are frozen and only the
        Galerkin rows whose inputs changed replay (an unchanged matrix
        replays nothing), provided the sparsity pattern of *a* matches; on
        any mismatch the full setup runs — see
        :meth:`repro.hypre.boomeramg.BoomerAMG.setup`.  With ``patch=True``
        as well, the engine's patch policy runs instead: the dirty
        interpolation rows are rebuilt too, so the result is bit-identical
        to a cold setup.  *a* may be a new matrix or the previous one with
        its values updated in place: the re-setup diffs it against the
        value digests recorded when the hierarchy was built.  Cached solve
        tapes are invalidated either way (the hierarchy's
        generation moves), so the next taped solve re-records.
        """
        from repro.check import checked_region
        from repro.obs import trace as obs_trace

        with obs_trace.span("AmgTSolver.setup", "solver"):
            if reuse and self._driver is not None:
                with checked_region(enabled=self.checked):
                    self._driver.setup(a, reuse=True, patch=patch)
                return self
            backend = make_backend(
                self.backend_name, self.device, precision=self.precision_name
            )
            self._driver = BoomerAMG(backend, self.setup_params)
            with checked_region(enabled=self.checked):
                self._driver.setup(a)
        return self

    @property
    def hierarchy(self) -> AMGHierarchy:
        if self._driver is None or self._driver.hierarchy is None:
            raise RuntimeError("call setup() before accessing the hierarchy")
        return self._driver.hierarchy

    @property
    def performance(self) -> PerformanceLog:
        if self._driver is None:
            raise RuntimeError("call setup() first")
        return self._driver.perf

    # ------------------------------------------------------------------
    def solve(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        max_iterations: int = 50,
        tolerance: float = 0.0,
        cycle_type: str = "V",
        smoother: str = "l1-jacobi",
        tape: bool = False,
    ) -> SolveResult:
        """Run multigrid cycles (Alg. 2) until *tolerance* or the cap.

        The default ``tolerance=0.0`` is *paper mode*: all
        ``max_iterations`` cycles run (the evaluation times fixed 50-cycle
        solves), and ``result.converged`` reports whether the residual
        reached the float64 machine-precision floor ``norm0 * eps`` — so a
        solve that drives the residual to ~1e-17 relative is reported as
        converged even though no positive tolerance stopped it early.
        Pass a positive *tolerance* to stop as soon as
        ``||r|| <= tolerance * ||r0||``.

        ``cycle_type`` selects V (the paper's configuration), W or F
        cycles; ``smoother`` selects ``'l1-jacobi'`` (paper default),
        ``'chebyshev'`` or ``'gauss-seidel'``.

        Every solve records the cycle once into a kernel tape
        (:mod:`repro.tape`) and replays it with zero per-iteration
        dispatch — one tape per cycle shape cached on the driver until
        the hierarchy changes.  ``tape`` is accepted and ignored: the
        tape is the only solve path.
        """
        from repro.util.validation import normalize_rhs

        x, stats = self._solve(
            "solve", normalize_rhs, b, x0,
            dict(max_iterations=max_iterations, tolerance=tolerance,
                 cycle_type=cycle_type, smoother=smoother),
        )
        return SolveResult(x=x, stats=stats, performance=self._driver.perf)

    # ------------------------------------------------------------------
    def solve_multi(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        max_iterations: int = 50,
        tolerance: float = 0.0,
        cycle_type: str = "V",
        smoother: str = "l1-jacobi",
    ) -> MultiSolveResult:
        """Solve ``A X = B`` for an ``(n, k)`` block of right-hand sides.

        The same path as :meth:`solve`, on a panel: one kernel tape is
        recorded per (cycle shape, width) and replayed over the whole
        panel, every SpMV of the cycle becoming one blocked SpMM, so the
        matrix's tiles, indices and bitmaps stream from memory once per
        *panel* instead of once per RHS.  Column ``j`` of the result is
        bit-identical to ``solve(B[:, j])`` with the same parameters —
        columns whose convergence test fires freeze exactly where their
        own solve would have stopped (see :func:`repro.tape.taped_solve`).
        A 1-D *b* is a panel of one.
        """
        from repro.util.validation import normalize_rhs_panel

        x, stats = self._solve(
            "solve_multi", normalize_rhs_panel, b, x0,
            dict(max_iterations=max_iterations, tolerance=tolerance,
                 cycle_type=cycle_type, smoother=smoother),
        )
        return MultiSolveResult(x=x, stats=stats,
                                performance=self._driver.perf)

    def _solve(self, entry: str, normalize, b, x0, params: dict):
        """One driver solve — :meth:`solve` on a vector, :meth:`solve_multi`
        on a panel — inside the entry point's span and this solver's
        checked region."""
        if self._driver is None:
            raise RuntimeError(f"call setup() before {entry}()")
        from repro.check import checked_region
        from repro.obs import trace as obs_trace

        b = normalize(b, self.hierarchy.levels[0].n)
        with obs_trace.span(f"AmgTSolver.{entry}", "solver"):
            with checked_region(enabled=self.checked):
                return self._driver.solve(b, x0=x0,
                                          params=SolveParams(**params))

    # ------------------------------------------------------------------
    def solve_krylov(
        self,
        b: np.ndarray,
        method: str = "pcg",
        tolerance: float = 1e-8,
        max_iterations: int = 500,
        x0: np.ndarray | None = None,
        tape: bool = False,
    ):
        """Krylov solve preconditioned by one V-cycle per application.

        Unlike composing :func:`repro.solvers.pcg` with
        :meth:`as_preconditioner` manually, this routes the *outer* matvec
        through the backend kernels as well, so the performance log
        accounts for every SpMV of the preconditioned iteration — the
        "preconditioners often include a number of SpMV calls" scenario of
        Sec. II.B.  Both the outer matvec and every preconditioner
        application replay through recorded kernel bindings; ``tape`` is
        accepted and ignored.  Returns the Krylov result object.
        """
        if self._driver is None:
            raise RuntimeError("call setup() before solve_krylov()")
        from repro.check import checked_region
        from repro.obs import trace as obs_trace
        from repro.solvers import bicgstab, gmres, pcg

        solvers = {"pcg": pcg, "gmres": gmres, "bicgstab": bicgstab}
        if method not in solvers:
            raise ValueError(
                f"unknown Krylov method {method!r}; use one of {sorted(solvers)}"
            )
        driver = self._driver
        with obs_trace.span("AmgTSolver.solve_krylov", "solver"):
            with checked_region(enabled=self.checked):
                binding = driver.backend.bind_matvec(driver._wrapped[0]["A"],
                                                     driver.perf, "solve", 0)
                run, records, perf = binding.run, (binding.record,), driver.perf

                def matvec(v: np.ndarray) -> np.ndarray:
                    perf.extend(records)
                    return run(v)

                return solvers[method](
                    matvec,
                    np.asarray(b, dtype=np.float64),
                    preconditioner=self.as_preconditioner(),
                    x0=x0,
                    tolerance=tolerance,
                    max_iterations=max_iterations,
                )

    # ------------------------------------------------------------------
    def as_preconditioner(self, tape: bool = False):
        """Return ``M(r) -> z``: one V-cycle applied to *r* (for PCG).

        The returned object is callable and also exposes ``.apply(r)``,
        the protocol the Krylov solvers accept directly; every application
        replays the recorded cycle tape.  ``tape`` is accepted and
        ignored.
        """
        if self._driver is None:
            raise RuntimeError("call setup() before building a preconditioner")
        from repro.solvers.preconditioners import VCyclePreconditioner

        return VCyclePreconditioner(self._driver)
