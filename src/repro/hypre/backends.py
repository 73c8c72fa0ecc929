"""Kernel backends: the baseline HYPRE path and the AmgT path.

A backend owns a device, a cost model and a precision schedule, and
exposes the two device entry points of the HYPRE integration:

* :meth:`KernelBackend.matmul_device` — ``hypre_CSRMatrixMultiplyDevice``:
  runs the product and appends its priced
  :class:`~repro.kernels.record.KernelRecord` to the supplied
  :class:`~repro.perf.timeline.PerformanceLog`;
* :meth:`KernelBackend.bind_matvec` — ``hypre_CSRMatrixMatvecDevice2``:
  resolves one operator's SpMV, over a vector or a panel of right-hand
  sides, into a replayable binding whose record is priced once; callers
  charge it per call (the kernel tape in bulk, see :mod:`repro.tape`).

:class:`HypreBackend` calls the vendor-style CSR kernels (cuSPARSE on
NVIDIA devices, rocSPARSE on AMD) in FP64 — the paper's baseline.

:class:`AmgTBackend` implements the Fig. 6 data flow: operands are
converted to mBSR once (conversion cost recorded on first touch), kernels
run at the per-level precision of the schedule, and MI210's incompatible
matrix-core shapes force the CUDA-core paths (Sec. V.F).

Host-side, every per-operator invariant the kernels need — the SpMV plan,
the quantised/widened tile arrays of each precision, tile popcounts —
lives in the wrapped matrix's :class:`~repro.kernels.cache.OperatorCache`
and is computed once per operator, mirroring the paper's
"preprocessing once per matrix, reused for every SpMV".
"""

from __future__ import annotations

import numpy as np

from repro.formats.bitmap import BLOCK_SIZE
from repro.formats.convert import mbsr_to_pruned_csr, prune_zeros
from repro.gpu.cost import CostModel
from repro.gpu.counters import Precision
from repro.gpu.specs import DeviceSpec
from repro.hypre.csr_matrix import HypreCSRMatrix
from repro.kernels.baseline import bind_csr_spmv, csr_spgemm
from repro.kernels.record import KernelRecord, span_attrs
from repro.kernels.spgemm import mbsr_spgemm
from repro.amg.precision import PrecisionSchedule
from repro.obs import trace as obs_trace
from repro.perf.timeline import PerformanceLog

__all__ = [
    "KernelBackend",
    "HypreBackend",
    "AmgTBackend",
    "AmgTPatcher",
    "make_backend",
]


def _kernel_span(name: str, phase: str, level: int):
    """Open a ``kind='kernel'`` span around real kernel work (gated)."""
    if obs_trace.is_active():
        return obs_trace.TRACER.open(name, "kernel", span_attrs(phase, level))
    return obs_trace.NULL_SPAN


class KernelBackend:
    """Common machinery of the two backends."""

    name: str = "abstract"

    def __init__(self, device: DeviceSpec, schedule: PrecisionSchedule):
        self.device = device
        self.cost = CostModel(device)
        self.schedule = schedule

    # -- interface ------------------------------------------------------
    def matmul_device(
        self,
        a: HypreCSRMatrix,
        b: HypreCSRMatrix,
        perf: PerformanceLog,
        phase: str,
        level: int,
        *,
        is_rap_result: bool = False,
    ) -> HypreCSRMatrix:
        raise NotImplementedError

    def bind_matvec(
        self,
        a: HypreCSRMatrix,
        perf: PerformanceLog,
        phase: str,
        level: int,
        width: int = 1,
    ):
        """Resolve one operator's SpMV over *width* right-hand sides into a
        replayable :class:`~repro.kernels.spmv.SpMVBinding`.

        ``run`` takes an ``(ncols,)`` vector or a ``(width, ncols)`` row
        panel and returns float64 in the same layout, row j bit-identical
        to the width-1 run on that row.  ``record`` is already stamped
        and priced for this phase/level: a panel call charges matrix
        bytes once but MMA issues/flops per column — the
        arithmetic-intensity rise the panel path exists for.  Any format
        conversion is charged here, when the operator is first bound.
        """
        raise NotImplementedError

    def hierarchy_patcher(self, reuse, perf, wrapped, phase: str = "setup"):
        """Dirty-row replay engine of the re-setup (both policies), or
        None when the backend has no block format — ``amg_setup`` then
        uses the row-local CSR patcher built on the setup's SpGEMM
        callable (see :class:`repro.amg.patch.CSRPatcher`).  *wrapped* is
        the driver's wrapper cache, keyed by ``id(csr)``."""
        return None

    # -- shared helpers ---------------------------------------------------
    def _stamp(self, rec: KernelRecord, phase: str, level: int,
               kernel_class: str | None = None) -> None:
        """Stamp *rec* with its phase and level and price it on this
        backend's cost model (*kernel_class* overrides the record's)."""
        rec.phase, rec.level = phase, level
        rec.price(self.cost, kernel_class)

    def charge(self, perf: PerformanceLog, phase: str, level: int,
               records, sp=obs_trace.NULL_SPAN,
               kernel_class: str | None = None) -> None:
        """The backends' one charge point: stamp and price *records*,
        append them to *perf* (which folds them into the metrics registry
        while a trace is active) and stamp the kernel span *sp* with their
        facts.  *sp* may already be closed — its attrs stay mutable."""
        for rec in records:
            self._stamp(rec, phase, level, kernel_class)
        perf.extend(records)
        if sp:
            sp.set(**span_attrs(phase, level, records))

    def record_other(
        self,
        perf: PerformanceLog,
        phase: str,
        level: int,
        name: str,
        *,
        bytes_moved: float,
        flops: float = 0.0,
        launches: int = 1,
    ) -> KernelRecord:
        """Charge non-kernel AMG work (coarsening, vector ops, ...)."""
        rec = KernelRecord(kernel=name, backend=self.name, precision=Precision.FP64)
        rec.counters.add_bytes(read=bytes_moved * 0.6, written=bytes_moved * 0.4)
        rec.counters.add_flops(Precision.FP64, flops)
        rec.counters.launches = launches
        self.charge(perf, phase, level, (rec,), kernel_class="generic")
        return rec


class HypreBackend(KernelBackend):
    """The baseline: HYPRE calling vendor CSR kernels in FP64."""

    def __init__(self, device: DeviceSpec):
        super().__init__(device, PrecisionSchedule.uniform(Precision.FP64))
        self.vendor = "cusparse" if device.vendor == "NVIDIA" else "rocsparse"
        self.name = "hypre"

    def matmul_device(self, a, b, perf, phase, level, *, is_rap_result=False):
        a = HypreCSRMatrix.wrap(a)
        b = HypreCSRMatrix.wrap(b)
        sp = _kernel_span("spgemm", phase, level)
        with sp:
            c, rec = csr_spgemm(a.csr, b.csr, Precision.FP64, backend=self.vendor)
        self.charge(perf, phase, level, (rec,), sp)
        return HypreCSRMatrix(csr=c)

    def bind_matvec(self, a, perf, phase, level, width=1):
        a = HypreCSRMatrix.wrap(a)
        binding = bind_csr_spmv(a.csr, Precision.FP64, backend=self.vendor,
                                width=width)
        self._stamp(binding.record, phase, level)
        return binding


class AmgTBackend(KernelBackend):
    """The AmgT path: mBSR kernels on tensor + CUDA cores."""

    def __init__(self, device: DeviceSpec, precision: str = "fp64"):
        if precision == "mixed":
            schedule = PrecisionSchedule.mixed(device)
        elif precision == "fp64":
            schedule = PrecisionSchedule.uniform(Precision.FP64)
        else:
            raise ValueError(f"unknown precision mode {precision!r}")
        super().__init__(device, schedule)
        self.name = "amgt"
        self.precision_mode = precision
        #: Matrix-core availability decides the kernels' core selection.
        self.allow_tensor_cores = device.mma_shape_compatible
        #: FP64-resident storage on devices without FP16 (MI210).
        self.storage_itemsize = device.storage_itemsize
        #: Setup-phase engine: pattern-keyed SpGEMM plans, fused RAP plans
        #: and conversion templates, shared across every setup this
        #: backend runs (the alpha-Setup / SPGEMM_REUSE scenario).
        from repro.kernels.setup_cache import SetupPlanCache

        self.setup_cache = SetupPlanCache()

    def _stamp(self, rec: KernelRecord, phase: str, level: int,
               kernel_class: str | None = None) -> None:
        """As the base, but on MI210 the fragment shapes do not fit the
        matrix cores, so an SpGEMM's warp-level pairs execute on scalar
        cores instead: its MMA issues are repriced as scalar tile products
        (2*4*4*4 flops each) first."""
        if not self.allow_tensor_cores and rec.detail.get("tc_pairs"):
            prec = self.schedule.for_level(level)
            mma = rec.counters.mma_issues[prec]
            rec.counters.mma_issues[prec] = 0.0
            rec.counters.add_flops(prec, mma * 2 * 2 * 64.0)
        super()._stamp(rec, phase, level, kernel_class)

    # -- conversions ------------------------------------------------------
    def _charge_conversion(self, perf, phase, level, sp, kernel: str,
                           read: float, written: float) -> None:
        """Charge one format conversion: two launches (analysis + fill, as
        in cuSPARSE csr2bsr) of FP64 traffic."""
        rec = KernelRecord(kernel=kernel, backend=self.name, precision=Precision.FP64)
        rec.counters.add_bytes(read=read, written=written)
        rec.counters.launches = 2
        self.charge(perf, phase, level, (rec,), sp, "amgt_convert")

    def _ensure_mbsr(self, mat: HypreCSRMatrix, perf, phase, level):
        """AmgT_CSR2mBSR with one-time cost recording (unified format)."""
        if mat.setup_cache is None:
            mat.setup_cache = self.setup_cache
        sp = _kernel_span("csr2mbsr", phase, level)
        with sp:
            mbsr, stats = mat.amgt_csr2mbsr()
        if stats is not None:
            self._charge_conversion(perf, phase, level, sp, "csr2mbsr",
                                    stats.bytes_read, stats.bytes_written)
        elif sp:
            sp.set(cached=True)
        return mbsr

    def _charge_mbsr2csr(self, perf, phase, level, sp, mbsr, csr) -> None:
        """Charge one MBSR2CSR expansion (Fig. 6 step 5) of *mbsr* into
        *csr* — a whole RAP result or its replayed block-rows."""
        itemsize = 8
        self._charge_conversion(
            perf, phase, level, sp, "mbsr2csr",
            read=mbsr.blc_num * (16 * itemsize + 8 + 2),
            written=csr.nnz * (itemsize + 8) + (csr.nrows + 1) * 8,
        )

    # -- kernels ----------------------------------------------------------
    def matmul_device(self, a, b, perf, phase, level, *, is_rap_result=False):
        a = HypreCSRMatrix.wrap(a)
        b = HypreCSRMatrix.wrap(b)
        am = self._ensure_mbsr(a, perf, phase, level)
        bm = self._ensure_mbsr(b, perf, phase, level)
        prec = self.schedule.for_level(level)
        am = a.mbsr_at_precision(prec)
        bm = b.mbsr_at_precision(prec)
        sp = _kernel_span("spgemm", phase, level)
        with sp:
            cm, rec = mbsr_spgemm(am, bm, prec, out_dtype=np.float64,
                                  storage_itemsize=self.storage_itemsize,
                                  plan_cache=self.setup_cache)
        self.charge(perf, phase, level, (rec,), sp)
        # The product is born in mBSR and leaves it once: one expansion
        # yields the pruned CSR for the CSR components, and the mBSR twin
        # is the product minus its cancelled entries.  Only RAP results
        # pay a recorded MBSR2CSR (Fig. 6 step 5); other products stay on
        # the device in mBSR.
        cache = self.setup_cache
        csp = _kernel_span("mbsr2csr", phase, level)
        with csp:
            csr, gather = prune_zeros(*cache.expansion(cm))
            out = HypreCSRMatrix(csr=csr, mbsr=cache.product_twin(cm, csr, gather),
                                 setup_cache=cache)
        if is_rap_result:
            self._charge_mbsr2csr(perf, phase, level, csp, out.mbsr, out.csr)
        return out

    def hierarchy_patcher(self, reuse, perf, wrapped, phase: str = "setup"):
        """Block-aligned mBSR patch engine over the spliced plan cache."""
        return AmgTPatcher(self, reuse, perf, wrapped, phase)

    def bind_matvec(self, a, perf, phase, level, width=1):
        a = HypreCSRMatrix.wrap(a)
        self._ensure_mbsr(a, perf, phase, level)
        prec = self.schedule.for_level(level)
        am = a.mbsr_at_precision(prec)
        # The memoised binding freezes plan, casts and index arrays; its
        # numeric result never depends on the plan, so the cast matrix's
        # own plan (structurally identical to the canonical form's) is
        # exact.
        binding = am.cache.spmv_binding(
            prec,
            width=width,
            allow_tensor_cores=self.allow_tensor_cores,
            storage_itemsize=self.storage_itemsize,
        )
        self._stamp(binding.record, phase, level)
        return binding


class AmgTPatcher:
    """Block-aligned re-setup engine for the AmgT backend (both policies).

    Implements the ``interp_rows`` / ``galerkin_rows`` protocol of
    :func:`repro.amg.patch.patched_resetup` in the mBSR domain: products
    replay only the dirty block-rows (each tile bytewise equal to the same
    tile of the full product, so the spliced operators keep the bits of
    the full products), conversion templates and fused RAP plans are spliced
    through the pattern-keyed :class:`~repro.kernels.setup_cache.\
SetupPlanCache`, and every kernel is priced like its cold counterpart.

    The driver's scalar dirty sets arrive block-expanded (see
    ``repro.amg.patch._expand_blocks``), which is what keeps clean
    block-rows of a spliced plan from referencing operand block-rows whose
    tile lists changed.
    """

    def __init__(self, backend: AmgTBackend, reuse, perf: PerformanceLog,
                 wrapped: dict[int, HypreCSRMatrix], phase: str = "setup"):
        self.backend = backend
        self.reuse = reuse
        self.perf = perf
        self.phase = phase
        #: The driver's wrapper cache, keyed by ``id(csr)``: it holds the
        #: previous setup's wrappers (old operands convert template-free)
        #: and receives every wrapper this patcher converts.
        self.wrapped = wrapped

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _valid_scalars(blocks: np.ndarray, nrows: int):
        """Scalar rows of the given block-rows (clipped to the matrix) and
        their positions within the compact 4*len(blocks)-row result."""
        scal = (blocks[:, None] * BLOCK_SIZE
                + np.arange(BLOCK_SIZE, dtype=np.int64)).ravel()
        pos = np.flatnonzero(scal < nrows)
        return scal[pos], pos

    def _wrap(self, csr) -> HypreCSRMatrix:
        """Wrapper for an operand of the *cached* hierarchy (mBSR twins
        usually carried over from the setup that built it)."""
        w = self.wrapped.get(id(csr))
        if w is None:
            w = HypreCSRMatrix(csr=csr, setup_cache=self.backend.setup_cache)
            self.wrapped[id(csr)] = w
        if w.setup_cache is None:
            w.setup_cache = self.backend.setup_cache
        return w

    def _patched_wrap(self, csr_new, csr_old, dirty_blocks: np.ndarray,
                      level: int) -> HypreCSRMatrix:
        """Wrapper for a drifted operand, converted through a spliced
        CSR->mBSR template (clean block-rows keep the cached layout)."""
        w = self.wrapped.get(id(csr_new))
        if w is not None and w.mbsr is not None:
            return w
        backend = self.backend
        cache = backend.setup_cache
        w = HypreCSRMatrix(csr=csr_new, setup_cache=cache)
        if csr_new is csr_old:
            backend._ensure_mbsr(w, self.perf, self.phase, level)
        else:
            sp = _kernel_span("csr2mbsr", self.phase, level)
            with sp:
                mbsr, stats, _ = cache.patch_csr2mbsr(
                    csr_new, csr_old.pattern_key(), dirty_blocks
                )
            w.mbsr = mbsr
            w.conversion_stats = stats
            backend._charge_conversion(self.perf, self.phase, level, sp,
                                       "csr2mbsr", stats.bytes_read,
                                       stats.bytes_written)
        self.wrapped[id(csr_new)] = w
        return w

    # -- patcher protocol -------------------------------------------------
    def convert_level(self, level, r_new, a_new, p_new, rows, dirt):
        """Convert the level's re-set-up ``R``, ``A`` and ``P`` to mBSR
        through spliced fill templates, charged to *level* in this phase.

        The conversion templates' dirty block-rows are the coarse *rows*
        for ``R``, the value-dirty rows for ``A`` and the rebuilt ``P``
        rows for ``P``; operands that did not change keep their cached
        twins.  Returns the ``(R, A, P)`` wrappers.
        """
        cached = self.reuse.levels[level]
        wa = self._patched_wrap(a_new, cached.a,
                                np.unique(dirt.dv // 4), level)
        wp = self._patched_wrap(p_new, cached.p,
                                np.unique(dirt.covered // 4), level)
        wr = self._patched_wrap(r_new, cached.r,
                                np.unique(np.asarray(rows, dtype=np.int64) // 4),
                                level)
        return wr, wa, wp

    def interp_rows(self, level, a_op, b_op, fpos):
        """Dirty block-rows of the extended+i product ``a_op @ b_op``.

        The operands are full (their conversions hit the pattern-keyed
        templates after the first patch); only the product is restricted.
        Returns the compact CSR over the covered F positions — every
        block-row's tiles bytewise equal to the full mBSR product's, hence
        every row bit-identical to the cold interpolation's.
        """
        from repro.kernels.spgemm import mbsr_spgemm_rows

        backend = self.backend
        wa = self._wrap(a_op)
        wb = self._wrap(b_op)
        backend._ensure_mbsr(wa, self.perf, self.phase, level)
        backend._ensure_mbsr(wb, self.perf, self.phase, level)
        prec = backend.schedule.for_level(level)
        am = wa.mbsr_at_precision(prec)
        bm = wb.mbsr_at_precision(prec)
        blocks = np.unique(np.asarray(fpos, dtype=np.int64) // 4)
        sp = _kernel_span("spgemm", self.phase, level)
        with sp:
            sub, _, rec = mbsr_spgemm_rows(
                am, bm, blocks, prec, out_dtype=np.float64,
                storage_itemsize=backend.storage_itemsize,
            )
        backend.charge(self.perf, self.phase, level, (rec,), sp)
        if sp:
            sp.set(patched_rows=int(blocks.shape[0]))
        csr, _ = mbsr_to_pruned_csr(sub)
        covered, pos = self._valid_scalars(blocks, a_op.nrows)
        return csr.extract_rows(pos), covered

    def galerkin_rows(self, level, r_new, a_new, p_new, rows, dirt):
        """Dirty coarse block-rows of ``R @ A @ P`` via the (spliced) fused
        plan: two numeric passes, no CSR round-trip of the intermediate.

        When the dirt covers every coarse block-row the full fused replay
        runs and its result converts through the pattern-keyed MBSR2CSR
        template, so a fully dirty level costs no slicing or splicing;
        otherwise both passes are restricted to the dirty block-rows.
        """
        backend = self.backend
        cache = backend.setup_cache
        cached = self.reuse.levels[level]
        rows = np.asarray(rows, dtype=np.int64)
        blocks_c = np.unique(rows // 4)
        wr, wa, wp = self.convert_level(level, r_new, a_new, p_new, rows, dirt)

        prec = backend.schedule.for_level(level)
        rm, am, pm = (w.mbsr_at_precision(prec) for w in (wr, wa, wp))

        plan = cache.rap_plan_if_cached(rm, am, pm)
        if plan is None:
            olds = [self._wrap(m) for m in (cached.r, cached.a, cached.p)]
            for w in olds:
                backend._ensure_mbsr(w, self.perf, self.phase, level)
            rmo, amo, pmo = (w.mbsr_at_precision(prec) for w in olds)
            prev = cache.rap_plan_if_cached(rmo, amo, pmo)
            if prev is not None:
                plan, _ = cache.patch_rap_plan(
                    rm, am, pm, rmo, amo, pmo, prev, blocks_c
                )
            else:
                # No cached plan to splice (cold setup ran elsewhere):
                # build one — later re-setups of this pattern replay it.
                plan, _ = cache.rap_plan(rm, am, pm)
        full = blocks_c.shape[0] == rm.mb
        sp = _kernel_span("spgemm", self.phase, level)
        with sp:
            if full:
                rap, records = cache.rap_numeric(
                    plan, rm, am, pm, prec, out_dtype=np.float64,
                    storage_itemsize=backend.storage_itemsize,
                )
            else:
                rap, records = cache.rap_numeric_rows(
                    plan, rm, am, pm, blocks_c, prec, out_dtype=np.float64,
                    storage_itemsize=backend.storage_itemsize,
                )
        backend.charge(self.perf, self.phase, level, records, sp)
        if sp:
            sp.set(fused="rap", patched_rows=int(blocks_c.shape[0]))
        csp = _kernel_span("mbsr2csr", self.phase, level)
        with csp:
            csr, _ = (prune_zeros(*cache.expansion(rap)) if full
                      else mbsr_to_pruned_csr(rap))
        backend._charge_mbsr2csr(self.perf, self.phase, level, csp, rap, csr)
        covered, pos = self._valid_scalars(blocks_c, r_new.nrows)
        return (csr if full else csr.extract_rows(pos)), covered


def make_backend(name: str, device: DeviceSpec, precision: str = "fp64") -> KernelBackend:
    """Factory: ``'hypre'`` (always FP64) or ``'amgt'`` (fp64 / mixed)."""
    if name == "hypre":
        return HypreBackend(device)
    if name == "amgt":
        return AmgTBackend(device, precision=precision)
    raise ValueError(f"unknown backend {name!r}")
