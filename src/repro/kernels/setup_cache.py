"""Setup-phase plan cache: pattern-keyed SpGEMM plans, fused RAP plans and
CSR<->mBSR conversion templates.

The AMG setup phase is pattern-dominated: the analysis + symbolic SpGEMM
phases, the Galerkin chain's intermediate structure and both format
conversions depend only on the operands' *sparsity structure*, never on
the values.  When the same structure recurs — the alpha-Setup scenario the
paper cites (re-running setup after coefficient updates), or cuSPARSE's
``SPGEMM_REUSE`` API — all of it can be replayed.

:class:`SetupPlanCache` memoises that structural work behind pattern
fingerprints (:func:`repro.check.fingerprint.pattern_fingerprint`):

* :meth:`spgemm_plan` — a :class:`~repro.kernels.spgemm.SpGEMMPlan` per
  operand-pattern pair; a hit lets :func:`~repro.kernels.spgemm.mbsr_spgemm`
  skip straight to the numeric phase (one launch instead of four).
* :meth:`rap_plan` / :meth:`rap_numeric` — the fused Galerkin product:
  both symbolic phases of ``R@A`` and ``(RA)@P`` are chained once,
  including the intermediate's structure (derivable from bitmaps alone);
  a replay runs only the two numeric passes and never materialises the
  intermediate in CSR.  The intermediate's bitmap is the first stage
  plan's ``BlcMapC``.  :meth:`rap_numeric_rows` restricts both passes to
  dirty block-rows — the re-setup engine's (:mod:`repro.amg.patch`)
  Galerkin replay.
* :meth:`csr2mbsr` / :meth:`expansion` — conversion templates: the tile
  layout (``AmgT_CSR2mBSR`` pass 1) and the bitmap expansion are computed
  once per pattern, replays only move values.  A product's mBSR twin is
  derived from the product (:meth:`product_twin`) and stores the fill
  template the conversion of its pruned CSR would.
* ``patch_*`` — splices of cached plans and templates for operands whose
  pattern drifted in a few block-rows.

Plan charging has one rule: a plan's analysis + symbolic cost lands on
the first kernel record that runs it (:meth:`SpGEMMPlan.charge`), whether
a cold product, a fused RAP assembly or a dirty-row splice built it.

Every replay is bit-identical to the cold path: the fill/gather templates
reproduce the exact scatter order of :mod:`repro.formats.convert`, and the
fused intermediate differs from the cold path's numerically-pruned one
only by exact-zero entries, which add exact-zero terms to the IEEE sums
and are eliminated from the final CSR either way.

Entries are kept per pattern key in LRU order (``max_entries`` per kind)
so long-running solvers with churning hierarchies stay bounded.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.check import runtime as check_runtime
from repro.formats.bitmap import (
    BLOCK_SIZE,
    TC_NNZ_THRESHOLD,
    TILE_SLOTS,
    bitmap_popcount,
    bitmap_to_mask,
)
from repro.formats.convert import (
    ConversionStats,
    _csr_to_mbsr,
    csr_in_order,
    expand_bits,
    prune_twin,
)
from repro.formats.csr import CSRMatrix
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import KernelCounters, Precision
from repro.kernels.record import KernelRecord
from repro.kernels.spgemm import SpGEMMPlan, mbsr_spgemm_symbolic_plan
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.kernels.spgemm_analysis import analyse_and_bin
from repro.kernels.spgemm_numeric import numeric_spgemm
from repro.kernels.spgemm_symbolic import SymbolicResult, symbolic_spgemm
from repro.util.prefix_sum import counts_to_ptr

__all__ = ["RAPPlan", "SetupPlanCache", "splice_segments"]


def splice_segments(
    old_ptr: np.ndarray, dirty_rows: np.ndarray, dirty_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge geometry for per-row segment splices.

    ``old_ptr`` delimits per-row segments of some entry array (tiles of a
    block-row, candidate pairs of a block-row, CSR entries of a scalar
    row); ``dirty_rows`` (sorted) are the rows being replaced by segments
    of ``dirty_counts[i]`` entries each.  Returns

    a :class:`SpliceGeometry` whose ``old_src`` / ``old_dst`` copy every
    clean row's segment (``out[old_dst] = old_entries[old_src]``) and
    whose ``dirty_dst`` lays the replacement segments (concatenated in
    ``dirty_rows`` order) into place.  Entry order within every segment is
    preserved — the property that keeps a spliced plan bit-identical to
    the cold one.
    """
    old_ptr = np.asarray(old_ptr, dtype=np.int64)
    dirty_rows = np.asarray(dirty_rows, dtype=np.int64)
    dirty_counts = np.asarray(dirty_counts, dtype=np.int64)
    nrows = old_ptr.shape[0] - 1
    counts = np.diff(old_ptr)
    new_counts = counts.copy()
    new_counts[dirty_rows] = dirty_counts
    new_ptr = counts_to_ptr(new_counts)
    dirty_mask = np.zeros(nrows, dtype=bool)
    dirty_mask[dirty_rows] = True
    row_of_old = np.repeat(np.arange(nrows, dtype=np.int64), counts)
    old_src = np.flatnonzero(~dirty_mask[row_of_old])
    rows_kept = row_of_old[old_src]
    old_dst = new_ptr[rows_kept] + (old_src - old_ptr[rows_kept])
    total_dirty = int(dirty_counts.sum())
    row_of_dirty = np.repeat(dirty_rows, dirty_counts)
    dptr = counts_to_ptr(dirty_counts)
    dwithin = np.arange(total_dirty, dtype=np.int64) - np.repeat(
        dptr[:-1], dirty_counts
    )
    dirty_dst = new_ptr[row_of_dirty] + dwithin
    return SpliceGeometry(new_ptr, old_src, old_dst, dirty_dst, rows_kept)


@dataclass
class SpliceGeometry:
    """Index plumbing of one per-row segment splice (see
    :func:`splice_segments`)."""

    new_ptr: np.ndarray
    old_src: np.ndarray
    old_dst: np.ndarray
    dirty_dst: np.ndarray
    #: Row owning each kept old entry (aligned with ``old_src``).
    rows_kept: np.ndarray

    def splice(self, old_arr, dirty_arr, old_shift=None):
        """Merge one per-entry array; ``old_shift`` (per kept entry) is
        added to the copied old values — the tile/entry-index remap of
        clean rows whose flat positions moved."""
        shape = (int(self.new_ptr[-1]),) + old_arr.shape[1:]
        out = np.zeros(shape, dtype=old_arr.dtype)
        vals = old_arr[self.old_src]
        if old_shift is not None:
            vals = vals + old_shift
        out[self.old_dst] = vals
        out[self.dirty_dst] = dirty_arr
        return out


@dataclass
class RAPPlan:
    """Captured structure of one fused Galerkin product ``R @ A @ P``.

    Chains the symbolic phases of both SpGEMMs.  The intermediate ``RA``
    is structure-only: ``plan_ra.symbolic`` holds its ``BlcPtrC`` /
    ``BlcIdxC`` / ``BlcMapC`` (the bitmap is the OR of the pair bitmap
    products — no numerics involved), so :meth:`SetupPlanCache.rap_numeric`
    can rebuild it from a numeric pass alone and feed it straight into the
    second plan.
    """

    plan_ra: SpGEMMPlan
    plan_rap: SpGEMMPlan
    #: Shape, popcounts and pattern key of the intermediate RA (shared
    #: across replays).
    ra_shape: tuple[int, int]
    ra_pop_per_tile: np.ndarray
    ra_pattern_key: str
    #: Pattern keys of (R, A, P) the plan was built for.
    keys: tuple[str, str, str]

    def matches(self, r: MBSRMatrix, a: MBSRMatrix, p: MBSRMatrix) -> bool:
        """True when the operands carry the plan's sparsity patterns."""
        return self.keys == (
            r.cache.pattern_key,
            a.cache.pattern_key,
            p.cache.pattern_key,
        )


@dataclass
class _FillTemplate:
    """CSR->mBSR layout captured once per CSR pattern (pass 1 of the
    conversion); replays scatter values only."""

    shape: tuple[int, int]
    blc_ptr: np.ndarray
    blc_idx: np.ndarray
    blc_map: np.ndarray
    pop_per_tile: np.ndarray
    #: Source permutation and flat destination slot per CSR entry.
    order: np.ndarray
    slots: np.ndarray
    mbsr_pattern_key: str | None
    #: CSR entry offset at each block-row boundary (``indptr[min(4b, n)]``),
    #: the segment pointer the template splice shifts clean rows by.
    row_starts: np.ndarray | None = None


@dataclass
class _GatherTemplate:
    """mBSR->CSR expansion captured once per mBSR pattern (bitmap included);
    replays gather values only."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    #: Flat source position in ``blc_val`` per CSR entry.
    gather: np.ndarray
    csr_pattern_key: str


def _segment_slice(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Flat indices of all entries in the given per-row segments."""
    counts = ptr[rows + 1] - ptr[rows]
    total = int(counts.sum())
    starts = counts_to_ptr(counts)[:-1]
    return (
        np.repeat(ptr[rows], counts)
        + np.arange(total, dtype=np.int64)
        - np.repeat(starts, counts)
    )


def _structure_only(shape, sym: SymbolicResult) -> MBSRMatrix:
    """A zero-valued mBSR matrix carrying a product's symbolic structure
    (the fused RAP intermediate, as the second stage plans over it)."""
    return MBSRMatrix(
        shape,
        sym.blc_ptr_c,
        sym.blc_idx_c,
        np.zeros((sym.blc_num_c, 4, 4), dtype=np.float64),
        sym.blc_map_c,
        _trusted=True,
    )


def _restrict_symbolic(
    sym: SymbolicResult,
    rows: np.ndarray,
    compact_a_ptr: np.ndarray | None = None,
) -> SymbolicResult:
    """Row-slice a full symbolic result into the compact form the numeric
    phase consumes: the tiles and pairs of the selected block-rows only,
    pair pointer rebased to the compacted C, pair order untouched.

    ``compact_a_ptr`` additionally rebases ``pair_a`` from the full A tile
    space to the same row-compacted layout — used when the left operand
    itself is materialised only on the dirty rows (the RA intermediate).
    """
    rows = np.asarray(rows, dtype=np.int64)
    tile_sel = _segment_slice(sym.blc_ptr_c, rows)
    row_pairs = sym.row_pair_ptr
    pair_sel = _segment_slice(row_pairs, rows)
    pair_a = sym.pair_a[pair_sel]
    if compact_a_ptr is not None:
        a_shift = (counts_to_ptr(np.diff(compact_a_ptr)[rows])[:-1]
                   - compact_a_ptr[rows])
        pair_a = pair_a + np.repeat(a_shift, row_pairs[rows + 1] - row_pairs[rows])
    return SymbolicResult(
        blc_ptr_c=counts_to_ptr(np.diff(sym.blc_ptr_c)[rows]),
        blc_idx_c=sym.blc_idx_c[tile_sel],
        blc_map_c=sym.blc_map_c[tile_sel],
        pair_a=pair_a,
        pair_b=sym.pair_b[pair_sel],
        pair_ptr=counts_to_ptr(np.diff(sym.pair_ptr)[tile_sel]),
        counters=KernelCounters(),
    )


def _verify_spliced_plan(plan: SpGEMMPlan, a_new, b_new) -> None:
    """REPRO_CHECK gate: a spliced plan must be bytewise the cold build."""
    from repro.check.violation import ContractViolation

    cold = mbsr_spgemm_symbolic_plan(a_new, b_new).symbolic
    got = plan.symbolic
    for name in ("blc_ptr_c", "blc_idx_c", "blc_map_c", "pair_a", "pair_b",
                 "pair_ptr"):
        g, w = getattr(got, name), getattr(cold, name)
        if not (g.dtype == w.dtype and np.array_equal(g, w)):
            raise ContractViolation(
                "setup_cache", "setup/plan-splice",
                f"spliced SpGEMM plan diverges from the cold build in "
                f"{name}: {g.shape} vs {w.shape}",
            )


@dataclass
class CacheStats:
    """Hit/miss counts per cache kind (diagnostics and tests)."""

    hits: dict = field(default_factory=dict)
    misses: dict = field(default_factory=dict)

    def count(self, kind: str, hit: bool) -> None:
        bucket = self.hits if hit else self.misses
        bucket[kind] = bucket.get(kind, 0) + 1
        obs_metrics.inc(
            obs_names.SETUP_CACHE_REQUESTS,
            kind=kind,
            result="hit" if hit else "miss",
        )


class SetupPlanCache:
    """Pattern-keyed store of replayable setup-phase structure."""

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = int(max_entries)
        self._spgemm: OrderedDict[tuple, SpGEMMPlan] = OrderedDict()
        self._rap: OrderedDict[tuple, RAPPlan] = OrderedDict()
        self._fill: OrderedDict[str, _FillTemplate] = OrderedDict()
        self._gather: OrderedDict[str, _GatherTemplate] = OrderedDict()
        self.stats = CacheStats()
        #: LRU drops across all stores (per-kind detail in ``stats``).
        self.evictions: int = 0

    #: Aggregate reuse counts (per-kind detail lives in ``stats``); the
    #: same hits/misses/evictions surface OperatorCache exposes.
    @property
    def hits(self) -> int:
        return sum(self.stats.hits.values())

    @property
    def misses(self) -> int:
        return sum(self.stats.misses.values())

    def _get(self, store: OrderedDict, key):
        entry = store.get(key)
        if entry is not None:
            store.move_to_end(key)
        return entry

    def _put(self, store: OrderedDict, key, entry) -> None:
        store[key] = entry
        while len(store) > self.max_entries:
            store.popitem(last=False)
            self.evictions += 1
            obs_metrics.inc(obs_names.SETUP_CACHE_EVICTIONS)
            from repro.obs import blackbox as obs_blackbox

            obs_blackbox.record(
                "setup_cache_eviction", entries=len(store),
                max_entries=self.max_entries,
            )

    # -- SpGEMM plans ---------------------------------------------------
    def spgemm_plan(self, mat_a: MBSRMatrix, mat_b: MBSRMatrix) -> SpGEMMPlan:
        """Plan for ``A @ B`` keyed by the operands' patterns (built on a
        miss; its build is charged by the first record that runs it)."""
        key = (mat_a.cache.pattern_key, mat_b.cache.pattern_key)
        plan = self._get(self._spgemm, key)
        if plan is not None:
            self.stats.count("spgemm", hit=True)
            return plan
        plan = mbsr_spgemm_symbolic_plan(mat_a, mat_b)
        self._put(self._spgemm, key, plan)
        self.stats.count("spgemm", hit=False)
        return plan

    # -- fused RAP plans ------------------------------------------------
    def rap_plan(
        self, r: MBSRMatrix, a: MBSRMatrix, p: MBSRMatrix
    ) -> tuple[RAPPlan, bool]:
        """Fused Galerkin plan keyed by the (R, A, P) patterns.

        Building one runs both symbolic phases (the ``R@A`` stage may hit
        :meth:`spgemm_plan` entries left by an earlier cold setup) and
        derives the intermediate's structure from bitmaps alone; no value
        arithmetic happens here.
        """
        key = (
            r.cache.pattern_key,
            a.cache.pattern_key,
            p.cache.pattern_key,
        )
        plan = self._get(self._rap, key)
        if plan is not None:
            self.stats.count("rap", hit=True)
            return plan, False

        plan_ra = self.spgemm_plan(r, a)
        sym = plan_ra.symbolic
        # The intermediate's bitmap is the stage plan's BlcMapC — exactly
        # what the numeric phase hands out, minus the values.
        ra_shape = (r.nrows, a.ncols)
        template = _structure_only(ra_shape, sym)
        template.cache.seed_pop_per_tile(bitmap_popcount(sym.blc_map_c))
        plan_rap = self.spgemm_plan(template, p)

        plan = RAPPlan(
            plan_ra=plan_ra,
            plan_rap=plan_rap,
            ra_shape=ra_shape,
            ra_pop_per_tile=template.cache.pop_per_tile,
            ra_pattern_key=template.cache.pattern_key,
            keys=key,
        )
        self._put(self._rap, key, plan)
        self.stats.count("rap", hit=False)
        return plan, True

    def rap_plan_if_cached(
        self, r: MBSRMatrix, a: MBSRMatrix, p: MBSRMatrix
    ) -> RAPPlan | None:
        """Peek: the cached fused plan for the operands' patterns, or None.

        Unlike :meth:`rap_plan` a miss builds nothing — the incremental
        patcher uses this to decide between splicing a previous plan and
        paying a cold build.
        """
        key = (
            r.cache.pattern_key,
            a.cache.pattern_key,
            p.cache.pattern_key,
        )
        return self._get(self._rap, key)

    def rap_numeric(
        self,
        plan: RAPPlan,
        r: MBSRMatrix,
        a: MBSRMatrix,
        p: MBSRMatrix,
        precision: Precision = Precision.FP64,
        out_dtype=None,
        *,
        tc_threshold: int | None = None,
        storage_itemsize: int | None = None,
    ) -> tuple[MBSRMatrix, list[KernelRecord]]:
        """Replay *plan* numerically: two numeric passes, no symbolic work.

        Returns the RAP product in mBSR and the two ``spgemm`` records for
        the perf layer to price: numeric-phase cost, plus a stage plan's
        build cost the first time that plan runs (:meth:`SpGEMMPlan.charge`).
        """
        if not plan.matches(r, a, p):
            raise ValueError(
                "RAP plan was built for operands with a different pattern"
            )
        threshold = TC_NNZ_THRESHOLD if tc_threshold is None else tc_threshold
        ra, rec_ra = self._replay_stage(
            plan.plan_ra, r, a, precision, out_dtype, threshold,
            storage_itemsize, stage="ra",
        )
        # Adopt the precomputed intermediate structure so the second pass
        # skips popcounts and pattern hashing too.
        ra.cache.seed_pop_per_tile(plan.ra_pop_per_tile)
        ra.cache.seed_pattern_key(plan.ra_pattern_key)
        rap, rec_rap = self._replay_stage(
            plan.plan_rap, ra, p, precision, out_dtype, threshold,
            storage_itemsize, stage="rap",
        )
        return rap, [rec_ra, rec_rap]

    def _replay_stage(
        self, plan, mat_a, mat_b, precision, out_dtype, threshold,
        storage_itemsize, stage, rows=None, symbolic=None,
    ):
        """One numeric pass of a fused Galerkin stage over *plan*'s captured
        symbolic result, or over its restriction *symbolic* to the sorted
        block-rows *rows* (then the result is the compacted
        ``4 * len(rows)``-row slice)."""
        record = KernelRecord(kernel="spgemm", backend="amgt", precision=precision)
        charged = plan.charge(record.counters)
        priced = plan.priced if symbolic is None else None
        if symbolic is None:
            symbolic = plan.symbolic
        numeric = numeric_spgemm(
            mat_a, mat_b, symbolic, precision,
            tc_threshold=threshold, storage_itemsize=storage_itemsize,
            priced=priced,
        )
        record.counters.merge(numeric.counters)
        record.detail = {
            "bins": {
                b: int(bin_rows.shape[0])
                for b, bin_rows in enumerate(plan.analysis.rows_by_bin)
            },
            "intermediate_tiles": plan.analysis.total_intermediate,
            "tc_pairs": numeric.tc_pairs,
            "cuda_pairs": numeric.cuda_pairs,
            "blc_num_c": symbolic.blc_num_c,
            "symbolic_reused": not charged,
            "fused_rap": stage,
        }
        if rows is not None:
            record.detail["patched_rows"] = int(rows.shape[0])
        val = numeric.blc_val_c
        if out_dtype is not None:
            val = val.astype(out_dtype)
        mask = bitmap_to_mask(numeric.blc_map_c)
        val = np.where(mask, val, val.dtype.type(0))
        out = MBSRMatrix(
            (mat_a.nrows if rows is None else 4 * rows.shape[0], mat_b.ncols),
            symbolic.blc_ptr_c,
            symbolic.blc_idx_c,
            val,
            numeric.blc_map_c,
            _trusted=True,
        )
        if rows is None and check_runtime.is_active():
            from repro.check import oracle

            oracle.verify_spgemm(mat_a, mat_b, out, precision, out_dtype)
        return out, record

    # -- conversion templates -------------------------------------------
    def csr2mbsr(self, csr: CSRMatrix) -> tuple[MBSRMatrix, ConversionStats]:
        """``AmgT_CSR2mBSR`` with the tile layout memoised per pattern.

        A miss runs the full conversion (and is charged as such); a hit
        scatters the values through the captured layout — bit-identical to
        the cold conversion (every (tile, slot) destination is unique, so
        the segmented sum degenerates to this scatter) — and returns
        reduced stats covering only the value traffic.
        """
        key = csr.pattern_key()
        tmpl = self._get(self._fill, key)
        itemsize = csr.data.dtype.itemsize
        if tmpl is not None:
            self.stats.count("csr2mbsr", hit=True)
            blc_num = tmpl.blc_map.shape[0]
            flat = np.zeros(blc_num * TILE_SLOTS, dtype=csr.data.dtype)
            flat[tmpl.slots] = csr.data[tmpl.order]
            out = MBSRMatrix(
                tmpl.shape,
                tmpl.blc_ptr,
                tmpl.blc_idx,
                flat.reshape(blc_num, 4, 4),
                tmpl.blc_map,
                _trusted=True,
            )
            out.cache.seed_pop_per_tile(tmpl.pop_per_tile)
            out.cache.seed_pattern_key(tmpl.mbsr_pattern_key)
            stats = ConversionStats(
                kind="csr2mbsr",
                nnz=csr.nnz,
                blc_num=blc_num,
                # value gather through the template's permutation
                bytes_read=csr.nnz * (itemsize + 8),
                # tile values only; ptr/idx/map are reused
                bytes_written=blc_num * TILE_SLOTS * itemsize,
            )
            return out, stats

        self.stats.count("csr2mbsr", hit=False)
        out, stats, order, slots = _csr_to_mbsr(csr)
        self._put_fill(csr, out, order, slots)
        return out, stats

    def _put_fill(self, csr: CSRMatrix, out: MBSRMatrix, order, slots) -> None:
        """Store the fill template of the conversion *csr* -> *out*."""
        mb = out.blc_ptr.shape[0] - 1
        bounds = np.minimum(np.arange(mb + 1, dtype=np.int64) * 4, csr.nrows)
        self._put(self._fill, csr.pattern_key(), _FillTemplate(
            shape=csr.shape,
            blc_ptr=out.blc_ptr,
            blc_idx=out.blc_idx,
            blc_map=out.blc_map,
            pop_per_tile=out.cache.pop_per_tile,
            order=order,
            slots=slots,
            mbsr_pattern_key=out.cache.pattern_key,
            row_starts=csr.indptr[bounds],
        ))

    def expansion(self, mbsr: MBSRMatrix) -> tuple[CSRMatrix, np.ndarray]:
        """``MBSR2CSR`` plus the flat ``blc_val`` position of every entry.

        A miss runs the expansion
        (:func:`repro.formats.convert.expand_bits`); a hit gathers values
        straight into the captured CSR index arrays.  The template key
        includes the bitmap (it decides which slots expand).  Products
        prune the result with :func:`repro.formats.convert.prune_zeros`,
        which keeps the captured pattern (and its key) whenever no entry
        cancelled.
        """
        key = mbsr.cache.pattern_key
        tmpl = self._get(self._gather, key)
        values = mbsr.blc_val.reshape(-1)
        if tmpl is not None:
            self.stats.count("mbsr2csr", hit=True)
            out = CSRMatrix(tmpl.shape, tmpl.indptr, tmpl.indices,
                            values[tmpl.gather], _canonical=True)
            out._pattern_key = tmpl.csr_pattern_key
            return out, tmpl.gather

        self.stats.count("mbsr2csr", hit=False)
        rows, cols, gather = expand_bits(mbsr)
        out = csr_in_order(mbsr.shape, rows, cols, values[gather])
        self._put(self._gather, key, _GatherTemplate(
            shape=mbsr.shape,
            indptr=out.indptr,
            indices=out.indices,
            gather=gather,
            csr_pattern_key=out.pattern_key(),
        ))
        return out, gather

    def product_twin(
        self, mbsr: MBSRMatrix, csr: CSRMatrix, gather: np.ndarray
    ) -> MBSRMatrix:
        """The mBSR twin of a product's pruned CSR (``csr, gather =
        prune_zeros(*expansion(mbsr))``), derived from the product itself.

        Bytewise ``csr_to_mbsr(csr)``
        (:func:`repro.formats.convert.prune_twin`), looked up and counted
        like :meth:`csr2mbsr`: a miss stores the fill template that
        conversion would store, so re-setups replay and splice it.
        """
        key = csr.pattern_key()
        tmpl = self._get(self._fill, key)
        twin, order, slots = prune_twin(mbsr, gather)
        if tmpl is not None:
            self.stats.count("csr2mbsr", hit=True)
            twin.cache.seed_pop_per_tile(tmpl.pop_per_tile)
            twin.cache.seed_pattern_key(tmpl.mbsr_pattern_key)
        else:
            self.stats.count("csr2mbsr", hit=False)
            self._put_fill(csr, twin, order, slots)
        if check_runtime.is_active():
            from repro.check import oracle

            oracle.verify_twin(csr, twin)
        return twin

    # -- incremental patches (dirty-block-row splices) -------------------
    #
    # An evolving operator changes its pattern in a few block-rows; the
    # methods below graft row-restricted symbolic results into cached
    # plans/templates instead of rebuilding them.  Every splice preserves
    # per-row entry order, so the spliced plan is bytewise the plan a cold
    # build on the new operands would produce (verified against the cold
    # build under REPRO_CHECK).  Spliced entries are stored in the same
    # LRU stores under the new pattern keys — the next exact-pattern
    # re-setup replays them numeric-only like any cold-built plan.

    def patch_spgemm_plan(
        self,
        a_new: MBSRMatrix,
        b_new: MBSRMatrix,
        a_old: MBSRMatrix,
        b_old: MBSRMatrix,
        prev: SpGEMMPlan,
        dirty_rows: np.ndarray,
    ) -> SpGEMMPlan:
        """Splice *prev* into a plan for the drifted operands.

        ``dirty_rows`` (sorted block-rows of A) must cover every block-row
        of the product whose pair list could differ: rows where A's
        pattern changed plus rows whose A entries reach a changed B
        block-row.  Clean rows reuse the cached pair lists with their tile
        indices shifted to the new operands' layouts; dirty rows run the
        row-ranged symbolic phase.  The result is stored under the new
        pattern keys and returned.
        """
        key = (a_new.cache.pattern_key, b_new.cache.pattern_key)
        hit = self._get(self._spgemm, key)
        if hit is not None:
            self.stats.count("spgemm", hit=True)
            return hit
        dirty_rows = np.asarray(dirty_rows, dtype=np.int64)
        sym_old = prev.symbolic
        sub = symbolic_spgemm(a_new, b_new, None, dirty_rows)

        # Pair-list splice, per block-row.  Kept pairs shift their A/B tile
        # indices by the per-block-row tile-count deltas of the drifted
        # operands; pairs stay in output-tile order within every row.
        geom_p = splice_segments(
            sym_old.row_pair_ptr, dirty_rows, np.diff(sub.row_pair_ptr)
        )
        shift_a = a_new.blc_ptr[:-1] - a_old.blc_ptr[:-1]
        shift_b = b_new.blc_ptr[:-1] - b_old.blc_ptr[:-1]
        pair_a = geom_p.splice(
            sym_old.pair_a, sub.pair_a, shift_a[geom_p.rows_kept]
        )
        b_rows_kept = b_old.block_row_ids()[sym_old.pair_b[geom_p.old_src]]
        pair_b = geom_p.splice(
            sym_old.pair_b, sub.pair_b, shift_b[b_rows_kept]
        )

        # Output-structure splice (tile segments of C and their pair counts).
        geom_t = splice_segments(
            sym_old.blc_ptr_c, dirty_rows, np.diff(sub.blc_ptr_c)
        )
        symbolic = SymbolicResult(
            blc_ptr_c=geom_t.new_ptr,
            blc_idx_c=geom_t.splice(sym_old.blc_idx_c, sub.blc_idx_c),
            blc_map_c=geom_t.splice(sym_old.blc_map_c, sub.blc_map_c),
            pair_a=pair_a,
            pair_b=pair_b,
            pair_ptr=counts_to_ptr(geom_t.splice(
                np.diff(sym_old.pair_ptr), np.diff(sub.pair_ptr)
            )),
            counters=sub.counters,
        ).freeze()
        plan = SpGEMMPlan(
            analysis=analyse_and_bin(a_new, b_new),
            symbolic=symbolic,
            shape_a=a_new.shape,
            shape_b=b_new.shape,
            blc_num_a=a_new.blc_num,
            blc_num_b=b_new.blc_num,
            pattern_key_a=key[0],
            pattern_key_b=key[1],
        )
        if check_runtime.is_active():
            _verify_spliced_plan(plan, a_new, b_new)
        self._put(self._spgemm, key, plan)
        self.stats.count("spgemm_splice", hit=True)
        return plan

    def patch_rap_plan(
        self,
        r: MBSRMatrix,
        a: MBSRMatrix,
        p: MBSRMatrix,
        r_old: MBSRMatrix,
        a_old: MBSRMatrix,
        p_old: MBSRMatrix,
        prev: RAPPlan,
        dirty_rows: np.ndarray,
    ) -> tuple[RAPPlan, bool]:
        """Splice a fused Galerkin plan for locally drifted operands.

        ``dirty_rows`` are coarse block-rows (rows of R).  Both stage
        plans are spliced via :meth:`patch_spgemm_plan` and the
        intermediate RA structure is patched in place: clean rows keep
        their cached bitmaps, dirty rows re-derive them from the fresh
        pair lists.  Returns ``(plan, fresh)`` like :meth:`rap_plan`.
        """
        key = (
            r.cache.pattern_key,
            a.cache.pattern_key,
            p.cache.pattern_key,
        )
        hit = self._get(self._rap, key)
        if hit is not None:
            self.stats.count("rap", hit=True)
            return hit, False
        dirty_rows = np.asarray(dirty_rows, dtype=np.int64)
        plan_ra = self.patch_spgemm_plan(
            r, a, r_old, a_old, prev.plan_ra, dirty_rows
        )
        sym = plan_ra.symbolic
        prev_sym = prev.plan_ra.symbolic

        # RA structure: the spliced stage plan's BlcMapC.
        ra_shape = (r.nrows, a.ncols)
        template = _structure_only(ra_shape, sym)
        template.cache.seed_pop_per_tile(bitmap_popcount(sym.blc_map_c))
        template_old = _structure_only(prev.ra_shape, prev_sym)
        template_old.cache.seed_pop_per_tile(prev.ra_pop_per_tile)
        template_old.cache.seed_pattern_key(prev.ra_pattern_key)
        plan_rap = self.patch_spgemm_plan(
            template, p, template_old, p_old, prev.plan_rap, dirty_rows
        )

        plan = RAPPlan(
            plan_ra=plan_ra,
            plan_rap=plan_rap,
            ra_shape=ra_shape,
            ra_pop_per_tile=template.cache.pop_per_tile,
            ra_pattern_key=template.cache.pattern_key,
            keys=key,
        )
        self._put(self._rap, key, plan)
        self.stats.count("rap_splice", hit=True)
        return plan, True

    def rap_numeric_rows(
        self,
        plan: RAPPlan,
        r: MBSRMatrix,
        a: MBSRMatrix,
        p: MBSRMatrix,
        rows: np.ndarray,
        precision: Precision = Precision.FP64,
        out_dtype=None,
        *,
        tc_threshold: int | None = None,
        storage_itemsize: int | None = None,
    ) -> tuple[MBSRMatrix, list[KernelRecord]]:
        """Dirty-row numeric replay of a (spliced) fused Galerkin plan.

        Runs both numeric passes restricted to the given coarse
        block-rows and returns the compacted sub-product (block-row ``i``
        is block-row ``rows[i]`` of the full RAP) — each tile bytewise
        equal to the full replay's, because the pair subsets keep their
        per-row order.  The RAP row ``j`` only reads RA row ``j``, so the
        intermediate is only materialised on the dirty rows too.
        """
        if not plan.matches(r, a, p):
            raise ValueError(
                "RAP plan was built for operands with a different pattern"
            )
        rows = np.asarray(rows, dtype=np.int64)
        threshold = TC_NNZ_THRESHOLD if tc_threshold is None else tc_threshold
        ra_ptr = plan.plan_ra.symbolic.blc_ptr_c
        sym1 = _restrict_symbolic(plan.plan_ra.symbolic, rows)
        ra_sub, rec_ra = self._replay_stage(
            plan.plan_ra, r, a, precision, None, threshold,
            storage_itemsize, stage="ra", rows=rows, symbolic=sym1,
        )
        # Adopt the plan's intermediate structure on the row subset.
        tile_sel = _segment_slice(ra_ptr, rows)
        ra_sub.cache.seed_pop_per_tile(plan.ra_pop_per_tile[tile_sel])
        sym2 = _restrict_symbolic(
            plan.plan_rap.symbolic, rows, compact_a_ptr=ra_ptr
        )
        rap_sub, rec_rap = self._replay_stage(
            plan.plan_rap, ra_sub, p, precision, out_dtype, threshold,
            storage_itemsize, stage="rap", rows=rows, symbolic=sym2,
        )
        if check_runtime.is_active():
            from repro.check.violation import ContractViolation

            # Differential oracle: the restricted replay must be a
            # bytewise slice of the full fused replay on the same rows.
            full, _ = self.rap_numeric(
                plan, r, a, p, precision, out_dtype,
                tc_threshold=tc_threshold,
                storage_itemsize=storage_itemsize,
            )
            sel = _segment_slice(full.blc_ptr, rows)
            if not (
                np.array_equal(np.diff(rap_sub.blc_ptr),
                               full.blc_ptr[rows + 1] - full.blc_ptr[rows])
                and np.array_equal(rap_sub.blc_idx, full.blc_idx[sel])
                and np.array_equal(rap_sub.blc_map, full.blc_map[sel])
                and rap_sub.blc_val.tobytes() == full.blc_val[sel].tobytes()
            ):
                raise ContractViolation(
                    "setup_cache", "setup/rap-rows-slice",
                    f"restricted RAP replay diverges from the full fused "
                    f"replay on {rows.shape[0]} block-rows",
                )
        return rap_sub, [rec_ra, rec_rap]

    def patch_csr2mbsr(
        self,
        csr_new: CSRMatrix,
        prev_key: str,
        dirty_block_rows: np.ndarray,
    ) -> tuple[MBSRMatrix, ConversionStats, bool]:
        """``AmgT_CSR2mBSR`` through a spliced tile-layout template.

        Splices the fill template cached under ``prev_key`` (the pattern
        key of the pre-drift CSR): clean block-rows keep their captured
        entry permutation and slot targets with shifted offsets, dirty
        block-rows re-run the layout pass on just their scalar rows.  The
        spliced template is stored under the new pattern key and the
        values are scattered through it — bit-identical to a cold
        conversion.  Falls back to :meth:`csr2mbsr` (and reports
        ``patched=False``) when no usable template is cached.  Returns
        ``(matrix, stats, patched)``.
        """
        tmpl_old = self._get(self._fill, prev_key)
        if (
            tmpl_old is None
            or tmpl_old.shape != csr_new.shape
            or tmpl_old.row_starts is None
        ):
            out, stats = self.csr2mbsr(csr_new)
            self.stats.count("csr2mbsr_splice", hit=False)
            return out, stats, False
        key = csr_new.pattern_key()
        if self._get(self._fill, key) is None:
            dirty_block_rows = np.asarray(dirty_block_rows, dtype=np.int64)
            nrows = csr_new.nrows
            mb = tmpl_old.blc_ptr.shape[0] - 1
            bounds = np.minimum(
                np.arange(mb + 1, dtype=np.int64) * 4, nrows
            )
            new_row_starts = csr_new.indptr[bounds]

            # Dirty-row layout on the extracted scalar rows (block-aligned:
            # every dirty block-row contributes its full row group).
            scalar_rows = (
                (dirty_block_rows[:, None] * BLOCK_SIZE
                 + np.arange(BLOCK_SIZE, dtype=np.int64)[None, :]).reshape(-1)
            )
            scalar_rows = scalar_rows[scalar_rows < nrows]
            sub_csr = csr_new.extract_rows(scalar_rows)
            sub_mbsr, _, order_s, slots_s = _csr_to_mbsr(sub_csr)
            # Map sub entry/tile ids to global positions.
            sub_counts = np.diff(sub_csr.indptr)
            sub2glob = (
                np.repeat(csr_new.indptr[scalar_rows], sub_counts)
                + np.arange(sub_csr.nnz, dtype=np.int64)
                - np.repeat(sub_csr.indptr[:-1], sub_counts)
            )
            geom_t = splice_segments(
                tmpl_old.blc_ptr, dirty_block_rows, np.diff(sub_mbsr.blc_ptr)
            )
            sub_tile_row = sub_mbsr.block_row_ids()
            tile2glob = (
                geom_t.new_ptr[dirty_block_rows[sub_tile_row]]
                + np.arange(sub_mbsr.blc_num, dtype=np.int64)
                - sub_mbsr.blc_ptr[sub_tile_row]
            )
            geom_e = splice_segments(
                tmpl_old.row_starts,
                dirty_block_rows,
                np.diff(new_row_starts)[dirty_block_rows],
            )
            entry_shift = (new_row_starts[:-1] - tmpl_old.row_starts[:-1])
            order = geom_e.splice(
                tmpl_old.order, sub2glob[order_s],
                entry_shift[geom_e.rows_kept],
            )
            tile_shift = geom_t.new_ptr[:-1] - tmpl_old.blc_ptr[:-1]
            slots = geom_e.splice(
                tmpl_old.slots,
                tile2glob[slots_s >> 4] * TILE_SLOTS + (slots_s & (TILE_SLOTS - 1)),
                TILE_SLOTS * tile_shift[geom_e.rows_kept],
            )
            blc_idx = geom_t.splice(tmpl_old.blc_idx, sub_mbsr.blc_idx)
            blc_map = geom_t.splice(tmpl_old.blc_map, sub_mbsr.blc_map)
            tmpl = _FillTemplate(
                shape=csr_new.shape,
                blc_ptr=geom_t.new_ptr,
                blc_idx=blc_idx,
                blc_map=blc_map,
                pop_per_tile=bitmap_popcount(blc_map),
                order=order,
                slots=slots,
                mbsr_pattern_key=None,
                row_starts=new_row_starts,
            )
            self._put(self._fill, key, tmpl)
        out, stats = self.csr2mbsr(csr_new)
        tmpl = self._get(self._fill, key)
        if tmpl is not None and tmpl.mbsr_pattern_key is None:
            # First scatter through the spliced template: backfill the
            # mBSR key so later hits skip the pattern hash.
            tmpl.mbsr_pattern_key = out.cache.pattern_key
        if check_runtime.is_active():
            from repro.check import oracle

            oracle.verify_conversion(csr_new, out)
        self.stats.count("csr2mbsr_splice", hit=True)
        return out, stats, True
