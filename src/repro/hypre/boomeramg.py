"""BoomerAMG-style driver running on a pluggable kernel backend.

The driver executes the shared AMG algorithms (setup Alg. 1, solve Alg. 2)
while routing every SpGEMM through ``backend.matmul_device`` and every SpMV
through a ``backend.bind_matvec`` binding replayed by the kernel tape, so
the baseline HYPRE configuration and both AmgT configurations are timed on
*identical* algebra, coarsening and call counts — the alignment the paper
enforces in Sec. V.A.

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

from repro.amg.cycle import SolveParams, SolveStats
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
    ) -> AMGHierarchy:
        """Build (or re-set up) the hierarchy for *a*.

        Parameters
        ----------
        a:
            The fine-level matrix; with *reuse* it may be the previous
            setup's matrix with its values updated in place.
        reuse:
            ``True`` reuses this solver's previous hierarchy; an
            :class:`AMGHierarchy` reuses that one.  The re-setup engine
            diffs per-row fingerprints level by level, keeps clean levels
            as they are and replays only the dirty Galerkin rows (the AmgT
            backend through its fused, pattern-keyed RAP plans).  By
            default coarsening and interpolation stay frozen; when the
            fine or a recomputed coarse pattern drifts, the full setup
            runs — see :func:`repro.amg.hierarchy.amg_setup`.
        patch:
            With *reuse*, run the engine's patch policy instead: dirty
            interpolation rows are rebuilt too, so the result is
            bit-identical to a cold setup.  The AmgT backend patches in the
            mBSR domain through its spliced plan cache.  Falls back to a
            full setup (counted in ``setup_reuse_total``) when the dirt
            exceeds :data:`repro.amg.patch.DIRTY_FRACTION_LIMIT` of the
            fine rows or the coarsening drifts.
        """
        perf = self.perf
        backend = self.backend
        state = {"level": 0, "calls_in_level": 0}
        wrapped_cache: dict[int, HypreCSRMatrix] = {}
        if reuse is True:
            reuse = self.hierarchy
        patcher = None
        if reuse is not None:
            # Seed the wrappers of the cached operators so their mBSR
            # twins (and plans) carry over to the re-setup — except *a*'s:
            # the caller may have updated its values in place, which would
            # leave its twin stale.
            for entry in self._wrapped:
                for w in entry.values():
                    if w.csr is not a:
                        wrapped_cache.setdefault(id(w.csr), w)
            # The patcher converts through, and adds to, the same wrappers,
            # so a cold fallback reuses its conversions.
            patcher = backend.hierarchy_patcher(reuse, perf, wrapped_cache)

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

        # The phase span is opened here (not just inside amg_setup) so the
        # driver's non-kernel charges below land inside it; amg_setup's own
        # phase_span then no-ops.
        with obs_trace.phase_span("setup"):
            hierarchy = amg_setup(a, self.params, spgemm=spgemm,
                                  on_level_built=on_level_built,
                                  reuse=reuse,
                                  patch=patch, patcher=patcher)
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
                    # Frozen coarsening/interpolation: only the fingerprint
                    # checks and the smoothing-diagonal recompute stream the
                    # level.
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
    def get_tape(self, params: SolveParams | None = None, batch: int = 1):
        """Recorded cycle tape for *params*' cycle shape over panels of
        *batch* right-hand sides (record or reuse).

        One tape per (cycle shape, width, check gate) per hierarchy: the
        first request records (one instrumented pass resolving every
        kernel binding through ``backend.bind_matvec`` at the tape's
        width); later requests replay the cached tape.  The check gate is
        in the key because bindings resolve it when bound: a tape recorded
        outside a checked region must not serve one inside it.  A stale
        tape — the hierarchy mutated or its generation counter bumped
        since recording — is silently re-recorded, never replayed.
        """
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before get_tape()")
        from repro.check import runtime as check_runtime
        from repro.tape import record_cycle
        from repro.tape.tape import _cycle_shape

        params = params or SolveParams()
        key = (_cycle_shape(params), batch, check_runtime.is_active())
        tape = self._tapes.get(key)
        if tape is None or tape.is_stale():
            from repro.obs import blackbox as obs_blackbox

            obs_blackbox.record(
                "tape_record", batch=batch, rerecord=tape is not None,
            )
            # The closures outlive recording (the tape's oracle binds
            # lazily), so they capture the wrappers, never ``self``: a
            # tape stored in ``self._tapes`` must not form a cycle back to
            # the driver, or a dropped solver waits for the cyclic GC.
            backend, perf, wrapped = self.backend, self.perf, self._wrapped

            def bindings(level: int, op: str, width: int):
                return backend.bind_matvec(
                    wrapped[level][op], perf, "solve", level, width
                )

            with obs_trace.span("tape.record", "solver",
                                attrs={"batch": batch}):
                tape = record_cycle(self.hierarchy, params,
                                    bindings=bindings, batch=batch)
                perf.extend(tape.estimate_records)
            self._tapes[key] = tape
            obs_metrics.inc(obs_names.TAPE_RECORDS)
        return tape

    def solve(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        params: SolveParams | None = None,
    ) -> tuple[np.ndarray, SolveStats | list[SolveStats]]:
        """Solve for an ``(n,)`` vector or an ``(n, k)`` panel of
        right-hand sides by replaying the cached tape of that width.

        A panel advances all k columns through one widened replay per
        iteration — one blocked SpMM per operator, streaming its tiles
        once per panel — and returns one :class:`SolveStats` per column;
        column j is bit-identical to the vector solve of ``b[:, j]``.
        """
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before solve()")
        from repro.tape import taped_solve

        params = params or SolveParams()
        vector = np.ndim(b) == 1
        width = 1 if vector else np.shape(b)[1]
        with obs_trace.phase_span("solve"):
            t = self.get_tape(params, batch=width)
            x, stats = taped_solve(t, b, x0=x0, params=params)
            slowest = stats if vector else max(stats, key=lambda s: s.iterations)
            self._charge_replay(t, slowest.iterations)
            self._charge_solve_other(slowest, width=width)
        return x, stats

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """One zero-guess V-cycle on an ``(n,)`` residual or an ``(n, k)``
        residual panel (the PCG preconditioner), replayed from the cached
        tape of that width; panel column j is bit-identical to
        preconditioning ``r[:, j]`` alone."""
        if self.hierarchy is None:
            raise RuntimeError("setup() must run before precondition()")
        from repro.util.validation import normalize_rhs_panel

        r = np.asarray(r, dtype=np.float64)
        rows = r if r.ndim == 1 else normalize_rhs_panel(
            r, self.hierarchy.levels[0].n, name="r").T
        with obs_trace.phase_span("solve"):
            t = self.get_tape(SolveParams(),
                              batch=1 if r.ndim == 1 else r.shape[1])
            z = t.cycle(rows)
            self.perf.extend(t.records)
        return z if r.ndim == 1 else np.ascontiguousarray(z.T)

    def _charge_replay(self, tape, iterations: int) -> None:
        """Charge a replayed solve's kernels to the perf log (and through
        it, while tracing, the registry).

        The tape's record templates are priced at bind time and the SpMV
        cost never depends on the operand, so a solve's record sequence
        is one initial residual, then per iteration the cycle's records
        plus a residual.
        """
        if tape.residual_record is None:
            return
        res = (tape.residual_record,)
        self.perf.extend(res + (tape.records + res) * iterations)

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
