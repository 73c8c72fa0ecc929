"""BoomerAMG-style driver running on a pluggable kernel backend.

The driver executes the shared AMG algorithms (setup Alg. 1, solve Alg. 2)
while routing every SpGEMM through ``backend.matmul_device`` and every SpMV
through ``backend.matvec_device``, so the baseline HYPRE configuration and
both AmgT configurations are timed on *identical* algebra, coarsening and
call counts — the alignment the paper enforces in Sec. V.A.

Per level the setup performs exactly three SpGEMM calls when extended+i
interpolation is used: one inside interpolation and two in the Galerkin
product; the third call of a level is the RAP result, whose MBSR2CSR
conversion (Fig. 6 step 5) the AmgT backend records.  The driver also
charges the non-kernel work (strength + PMIS coarsening + truncation in
setup; vector updates and the coarsest direct solve in solve) to the
``other`` budget with O(nnz)/O(n) traffic estimates so the phase
breakdowns of Figs. 1 and 2 have their denominators.
"""

from __future__ import annotations

import numpy as np

from repro.amg.cycle import SolveParams, SolveStats, amg_solve, v_cycle
from repro.amg.hierarchy import AMGHierarchy, SetupParams, amg_setup
from repro.formats.csr import CSRMatrix
from repro.hypre.backends import KernelBackend
from repro.hypre.csr_matrix import HypreCSRMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.obs import trace as obs_trace
from repro.perf.timeline import PerformanceLog

__all__ = ["BoomerAMG"]

#: Bytes of non-kernel setup work per stored entry of a level matrix.
#: Coarsening alone is tens of GPU kernels (strength pass, PMIS rounds with
#: neighbour sweeps, C/F marking, interpolation assembly, truncation,
#: compression), each streaming the level's entries; the constant is
#: calibrated so SpGEMM lands at the paper's ~59% share of HYPRE's setup
#: phase (Fig. 1).
_SETUP_OTHER_BYTES_PER_NNZ = 7500.0
#: Bytes of non-kernel solve work per row per V-cycle level visit (the
#: axpy/residual-norm vector traffic around each SpMV), calibrated so SpMV
#: lands at the paper's ~80% share of HYPRE's solve phase (Fig. 2).
_SOLVE_OTHER_BYTES_PER_ROW = 500.0


class BoomerAMG:
    """AMG driver with HYPRE-style phase accounting."""

    def __init__(self, backend: KernelBackend, params: SetupParams | None = None):
        self.backend = backend
        self.params = params or SetupParams()
        self.perf = PerformanceLog()
        self.hierarchy: AMGHierarchy | None = None
        #: HypreCSRMatrix wrappers per level for A / R / P, so mBSR
        #: conversions and SpMV plans are cached across the solve phase.
        self._wrapped: list[dict[str, HypreCSRMatrix]] = []
        #: Recorded solve tapes keyed by cycle shape (cycle type, smoother,
        #: sweep counts, Chebyshev degree).  Cleared on every setup; a
        #: stale entry (hierarchy mutated after recording) re-records.
        self._tapes: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # setup phase
    # ------------------------------------------------------------------
    def setup(
        self,
        a: CSRMatrix,
        reuse: AMGHierarchy | bool | None = None,
        *,
        patch: bool = False,
        patch_threshold: float = 0.5,
    ) -> AMGHierarchy:
        """Build (or numerically rebuild) the hierarchy for *a*.

        Parameters
        ----------
        a:
            The fine-level matrix.
        reuse:
            ``True`` reuses this solver's previous hierarchy; an
            :class:`AMGHierarchy` reuses that one.  When the sparsity
            patterns match, coarsening and interpolation are frozen and
            only the numeric Galerkin passes replay (through the AmgT
            backend's fused RAP plans); on any mismatch the full setup
            runs — see :func:`repro.amg.hierarchy.amg_setup`.
        patch:
            With *reuse*, try the incremental patch path first: diff
            per-row fingerprints level by level, replay SpGEMMs on the
            dirty rows only and splice them into the cached operators —
            bit-identical to a cold setup, unlike the frozen-coarsening
            exact path.  The AmgT backend patches in the mBSR domain
            through its spliced plan cache.  Falls back to a full setup
            (counted in ``setup_reuse_total``) when the dirt exceeds
            *patch_threshold* or the coarsening drifts.
        patch_threshold:
            Cumulative dirty-row budget of the patch path, as a fraction
            of the fine-level rows (see :func:`repro.amg.hierarchy.\
amg_setup`).
        """
        perf = self.perf
        backend = self.backend
        state = {"level": 0, "calls_in_level": 0}
        wrapped_cache: dict[int, HypreCSRMatrix] = {}
        if reuse is True:
            reuse = self.hierarchy
        if reuse is not None and self._wrapped:
            # Seed the wrappers of the frozen operators so their mBSR
            # twins (and plans) carry over to the re-setup.
            for entry in self._wrapped:
                for w in entry.values():
                    wrapped_cache.setdefault(id(w.csr), w)
        patcher = None
        if reuse is not None and patch:
            patcher = backend.hierarchy_patcher(reuse, perf)
            if patcher is not None:
                # Old operands convert through the carried-over wrappers.
                for key, w in wrapped_cache.items():
                    patcher.wrapped.setdefault(key, w)

        def wrap(mat: CSRMatrix) -> HypreCSRMatrix:
            w = wrapped_cache.get(id(mat))
            if w is None:
                w = HypreCSRMatrix(csr=mat)
                wrapped_cache[id(mat)] = w
            return w

        def spgemm(x: CSRMatrix, y: CSRMatrix) -> CSRMatrix:
            state["calls_in_level"] += 1
            is_rap = state["calls_in_level"] % 3 == 0
            out = backend.matmul_device(
                wrap(x), wrap(y), perf, "setup", state["level"],
                is_rap_result=is_rap,
            )
            wrapped_cache[id(out.csr)] = out
            return out.csr

        def on_level_built(level_index: int, coarse: CSRMatrix) -> None:
            # Charge the level's non-SpGEMM setup work (strength, PMIS,
            # interpolation assembly, truncation) before moving on.
            state["level"] = level_index

        def galerkin_planner(r: CSRMatrix, cur: CSRMatrix, p: CSRMatrix):
            def register(out: HypreCSRMatrix) -> None:
                wrapped_cache[id(out.csr)] = out

            return backend.galerkin_plan(
                wrap(r), wrap(cur), wrap(p), perf, "setup", state["level"],
                on_result=register,
            )

        # The phase span is opened here (not just inside amg_setup) so the
        # driver's non-kernel charges below land inside it; amg_setup's own
        # phase_span then no-ops.
        with obs_trace.phase_span("setup"):
            hierarchy = amg_setup(a, self.params, spgemm=spgemm,
                                  on_level_built=on_level_built,
                                  reuse=reuse,
                                  galerkin_planner=galerkin_planner,
                                  patch=patch, patcher=patcher,
                                  patch_threshold=patch_threshold)
            # Non-kernel setup work per level.
            per_level = {}
            if hierarchy.patched:
                per_level = {
                    e["level"]: e for e in hierarchy.patch_stats["levels"]
                }
            for lvl in hierarchy.levels[:-1]:
                if hierarchy.patched:
                    # Fingerprint diff + full strength/PMIS on dirty
                    # levels; interpolation assembly and truncation only
                    # stream the dirty fraction of the level.
                    frac = per_level.get(lvl.index, {}).get("frac", 0.0)
                    backend.record_other(
                        perf, "setup", lvl.index, "patch",
                        bytes_moved=16.0 * max(lvl.a.nnz, 1)
                        + _SETUP_OTHER_BYTES_PER_NNZ * lvl.a.nnz * frac,
                        flops=2.0 * lvl.a.nnz,
                        launches=3,
                    )
                elif hierarchy.reused:
                    # Frozen coarsening/interpolation: only the pattern checks
                    # and the smoothing-diagonal recompute stream the level.
                    backend.record_other(
                        perf, "setup", lvl.index, "resetup",
                        bytes_moved=16.0 * max(lvl.a.nnz, 1),
                        flops=2.0 * lvl.a.nnz,
                        launches=2,
                    )
                else:
                    backend.record_other(
                        perf, "setup", lvl.index, "coarsen",
                        bytes_moved=_SETUP_OTHER_BYTES_PER_NNZ * max(lvl.a.nnz, 1),
                        flops=4.0 * lvl.a.nnz,
                        launches=6,
                    )
        if patcher is not None:
            # Patched operators keep their spliced mBSR twins for the
            # solve phase.
            for key, w in patcher.wrapped.items():
                wrapped_cache.setdefault(key, w)
        self.hierarchy = hierarchy

        # Wrap the level operators once; solve-phase SpMVs reuse the
        # wrappers (and hence the cached mBSR forms and plans).
        self._wrapped = []
        for lvl in hierarchy.levels:
            entry = {"A": wrapped_cache.get(id(lvl.a)) or HypreCSRMatrix(csr=lvl.a)}
            if lvl.r is not None:
                entry["R"] = wrapped_cache.get(id(lvl.r)) or HypreCSRMatrix(csr=lvl.r)
            if lvl.p is not None:
                entry["P"] = wrapped_cache.get(id(lvl.p)) or HypreCSRMatrix(csr=lvl.p)
            self._wrapped.append(entry)
        # Every setup invalidates recorded solve tapes: even a numeric
        # re-setup produces a new hierarchy object with new operators.
        self._tapes = {}
        self._register_postmortem_context()
        return hierarchy

    def _register_postmortem_context(self) -> None:
        """Point the flight recorder's context providers at this solver.

        Bundles dumped on a violation/breakdown then carry the hierarchy
        shape, the per-level pattern keys, and every recorded tape's
        ``describe()``.  Providers hold a weakref so a dropped solver does
        not linger in the process-wide recorder.
        """
        import weakref

        from repro.obs import blackbox as obs_blackbox

        ref = weakref.ref(self)

        def _hierarchy_context():
            solver = ref()
            if solver is None or solver.hierarchy is None:
                return None
            h = solver.hierarchy
            return {
                "describe": h.describe(),
                "pattern_keys": [str(k) for k in h.pattern_keys],
                "generation": h.generation,
                "reused": h.reused,
                "patched": h.patched,
                "patch_stats": h.patch_stats,
            }

        def _tapes_context():
            solver = ref()
            if solver is None:
                return None
            return {repr(k): t.describe() for k, t in solver._tapes.items()}

        obs_blackbox.set_context("hierarchy", _hierarchy_context)
        obs_blackbox.set_context("tapes", _tapes_context)

    # ------------------------------------------------------------------
    # solve phase
    # ------------------------------------------------------------------
    def _level_spmv(self, level: int, op: str, x: np.ndarray) -> np.ndarray:
        mat = self._wrapped[level][op]
        return self.backend.matvec_device(mat, x, self.perf, "solve", level)

    def get_tape(self, params: SolveParams | None = None,
                 batch: int | None = None):
        """Recorded cycle tape for *params*' cycle shape (record or reuse).

        One tape per cycle shape per hierarchy: the first request records
        (one instrumented pass resolving every kernel binding through
        ``backend.bind_matvec``); later requests replay the cached tape.
        A stale tape — the hierarchy mutated or its generation counter
        bumped since recording — is silently re-recorded, never replayed.

        With ``batch=k`` a *batched* tape is recorded instead, keyed by
        ``(cycle_shape, k)`` and bound through ``backend.bind_matmat`` —
        width-1 tapes keep their bare cycle-shape keys, so batch tapes of
        any width coexist with them in ``_tapes``.
        """
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before get_tape()")
        from repro.tape import record_cycle
        from repro.tape.tape import _cycle_shape

        params = params or SolveParams()
        shape = _cycle_shape(params)
        key = shape if batch is None else (shape, batch)
        tape = self._tapes.get(key)
        if tape is None or tape.is_stale():
            from repro.obs import blackbox as obs_blackbox

            obs_blackbox.record(
                "tape_record", batch=batch or 1,
                rerecord=tape is not None,
            )
            # The closures outlive recording (the tape's oracle binds
            # lazily), so they capture the wrappers, never ``self``: a
            # tape stored in ``self._tapes`` must not form a cycle back to
            # the driver, or a dropped solver waits for the cyclic GC.
            backend, perf, wrapped = self.backend, self.perf, self._wrapped

            def bindings(level: int, op: str):
                return backend.bind_matvec(
                    wrapped[level][op], perf, "solve", level
                )

            if batch is None:
                with obs_trace.span("tape.record", "solver"):
                    tape = record_cycle(self.hierarchy, params,
                                        bindings=bindings)
            else:
                def panel_bindings(level: int, op: str):
                    return backend.bind_matmat(
                        wrapped[level][op], perf, "solve", level, batch,
                    )

                with obs_trace.span("tape.record", "solver",
                                    attrs={"batch": batch}):
                    tape = record_cycle(self.hierarchy, params,
                                        bindings=panel_bindings,
                                        batch=batch,
                                        scalar_bindings=bindings)
            self._tapes[key] = tape
            obs_metrics.inc(obs_names.TAPE_RECORDS)
        return tape

    def solve(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        params: SolveParams | None = None,
        tape: bool = False,
    ) -> tuple[np.ndarray, SolveStats]:
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before solve()")
        params = params or SolveParams()
        if tape:
            from repro.tape import taped_solve

            t = self.get_tape(params)
            with obs_trace.phase_span("solve"):
                x, stats = taped_solve(t, b, x0=x0, params=params)
                self._replicate_tape_perf(t, stats)
                self._charge_solve_other(stats)
            return x, stats
        with obs_trace.phase_span("solve"):
            x, stats = amg_solve(self.hierarchy, b, x0=x0, spmv=self._level_spmv,
                                 params=params)
            self._charge_solve_other(stats)
        return x, stats

    def solve_multi(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        params: SolveParams | None = None,
    ) -> tuple[np.ndarray, list[SolveStats]]:
        """Solve an ``(n, k)`` block of right-hand sides in one widened
        tape replay per iteration.

        The batch path is tape-only by design — the whole point is the
        blocked SpMM amortising each loaded operator tile across the
        panel.  Column j of the result and its stats are bit-identical to
        ``solve(b[:, j], x0[:, j], params, tape=True)``; a width-k tape
        is recorded on first use and cached under ``(cycle_shape, k)``.
        """
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before solve_multi()")
        from repro.tape import taped_solve_multi
        from repro.util.validation import normalize_rhs_panel

        params = params or SolveParams()
        b = normalize_rhs_panel(b, self.hierarchy.levels[0].n)
        t = self.get_tape(params, batch=b.shape[1])
        with obs_trace.phase_span("solve"):
            x, stats = taped_solve_multi(t, b, x0=x0, params=params)
            self._replicate_tape_perf(
                t, max(stats, key=lambda s: s.iterations)
            )
            self._charge_solve_other(
                max(stats, key=lambda s: s.iterations), width=b.shape[1]
            )
        return x, stats

    def precondition(self, r: np.ndarray, tape: bool = False) -> np.ndarray:
        """One V-cycle with zero initial guess (the PCG preconditioner).

        With ``tape=True`` the cycle replays through the recorded kernel
        tape (recording it on first use) instead of the interpreted
        recursion — same bits, no per-application dispatch.

        A 2-D ``(n, k)`` residual block routes to the blocked
        preconditioner: one width-k tape replay whose column j is
        bit-identical to preconditioning ``r[:, j]`` alone (tape-only,
        like :meth:`solve_multi`).
        """
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before precondition()")
        r = np.asarray(r, dtype=np.float64)
        if r.ndim == 2 and r.shape[1] != 1:
            return self.precondition_multi(r, tape=tape)
        if r.ndim == 2:
            r = np.ascontiguousarray(r[:, 0])
        if tape:
            t = self.get_tape(SolveParams())
            with obs_trace.phase_span("solve"):
                z = t.apply(r)
                self.perf.records.extend(t.records)
            return z
        stats = SolveStats()
        with obs_trace.phase_span("solve"):
            z = v_cycle(
                self.hierarchy,
                np.asarray(r, dtype=np.float64),
                np.zeros(self.hierarchy.levels[0].n),
                self._level_spmv,
                SolveParams(),
                stats,
            )
        return z

    def precondition_multi(self, r: np.ndarray, tape: bool = True) -> np.ndarray:
        """Blocked preconditioner: one zero-guess widened V-cycle on an
        ``(n, k)`` residual block, returning the ``(n, k)`` correction.

        Column j is bit-identical to ``precondition(r[:, j], tape=True)``.
        The *tape* flag is accepted for interface symmetry but the batch
        path always replays a tape — there is no interpreted panel cycle.
        """
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before precondition_multi()")
        from repro.util.validation import normalize_rhs_panel

        r = normalize_rhs_panel(r, self.hierarchy.levels[0].n, name="r")
        t = self.get_tape(SolveParams(), batch=r.shape[1])
        with obs_trace.phase_span("solve"):
            z = t.cycle(np.ascontiguousarray(r.T))
            self.perf.records.extend(t.records)
        return np.ascontiguousarray(z.T)

    def _replicate_tape_perf(self, tape, stats: SolveStats) -> None:
        """Bulk-append the replayed kernels' records to the perf log.

        The tape's record templates are priced at bind time and the SpMV
        cost never depends on the operand vector, so an interpreted solve
        and a replayed one produce the same record sequence: one initial
        residual, then per iteration the cycle's records plus a residual.
        """
        records = self.perf.records
        if tape.residual_record is None:
            return
        records.append(tape.residual_record)
        for _ in range(stats.iterations):
            records.extend(tape.records)
            records.append(tape.residual_record)

    def _charge_solve_other(self, stats: SolveStats, width: int = 1) -> None:
        """Vector updates + coarse solves, proportional to the SpMV count.

        A batched solve streams *width* panels through the vector updates
        and runs *width* coarse triangular solves per visit, so the
        non-kernel traffic scales with the panel width (the matrix-side
        traffic, charged in the kernel records, does not — that is the
        arithmetic-intensity rise).
        """
        hierarchy = self.hierarchy
        iters = max(stats.iterations, 1) * width
        rows_per_cycle = sum(lvl.n for lvl in hierarchy.levels[:-1])
        self.backend.record_other(
            self.perf, "solve", 0, "vector_ops",
            bytes_moved=_SOLVE_OTHER_BYTES_PER_ROW * rows_per_cycle * iters * 2.0,
            flops=6.0 * rows_per_cycle * iters,
            launches=10 * iters,
        )
        coarse_n = hierarchy.levels[-1].n
        self.backend.record_other(
            self.perf, "solve", hierarchy.num_levels - 1, "coarse_solve",
            bytes_moved=8.0 * coarse_n * coarse_n * iters,
            flops=2.0 * coarse_n * coarse_n * iters,
            launches=iters,
        )
