"""Per-operator solve-phase cache (the host analogue of Sec. IV.D's
"preprocessing once per matrix, reused for every SpMV").

AmgT amortises everything that depends only on the *operator* — the SpMV
schedule, the per-tile popcounts, the precision casts of the tile values —
across the hundreds of kernel calls the solve phase issues against each
level matrix.  The numpy reproduction used to redo most of that work per
call: every ``mbsr_spmv`` re-derived the block-row ids and re-cast the full
tile array twice (``.astype(in_dtype).astype(acc_dtype)``), and every
``numeric_spgemm`` re-popcounted the operand bitmaps.

:class:`OperatorCache` holds all of it, keyed per matrix.  It is created
lazily by :attr:`repro.formats.mbsr.MBSRMatrix.cache` and is reachable from
:class:`repro.hypre.csr_matrix.HypreCSRMatrix` via ``operator_cache``; the
kernels consult it transparently, so callers that never reuse a matrix pay
one extra attribute lookup and nothing else.

The cache assumes the owning matrix's arrays are immutable after
construction — the invariant every ``MBSRMatrix`` operation already
follows (``astype``/``transpose``/``copy`` build new objects, each with a
fresh cache).  The matrix owns its cache and the cache refers back to it
only weakly, so dropping an operator frees it (tiles, plans, bindings
and all) by reference counting, without waiting for a cyclic collection.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.check import runtime as check_runtime
from repro.obs import blackbox as obs_blackbox
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names

__all__ = ["OperatorCache", "widened_tiles"]


def widened_tiles(vals: np.ndarray, in_dtype, acc_dtype) -> np.ndarray:
    """Tile values quantised to *in_dtype*, then widened to *acc_dtype*.

    The quantise step is skipped (not re-rounded) when *vals* already
    hold *in_dtype* — numerically identical either way — and no copy is
    made when no cast is needed.
    """
    quant = vals if vals.dtype == in_dtype else vals.astype(in_dtype)
    return quant if quant.dtype == acc_dtype else quant.astype(acc_dtype)


class OperatorCache:
    """Memoised per-matrix state reused across kernel calls."""

    def __init__(self, mat) -> None:
        self._mat_ref = weakref.ref(mat)
        self._pattern_key: str | None = None
        self._pop_per_tile: np.ndarray | None = None
        self._pop_hist: np.ndarray | None = None
        self._nnz: int | None = None
        self._block_row_ids: np.ndarray | None = None
        self._blocks_per_row: np.ndarray | None = None
        #: Quantised-then-widened tile arrays, keyed by (in, acc) dtypes.
        self._tiles: dict[tuple[np.dtype, np.dtype], np.ndarray] = {}
        #: Compact tile contractions (:class:`repro.kernels.spmv.
        #: TilePasses`), keyed by (in, acc) dtypes; built on the first
        #: SpMV/SpMM or binding at that precision.
        self._tile_passes: dict[tuple[np.dtype, np.dtype], object] = {}
        #: Pass layouts of this operator's structure, keyed like
        #: ``_tile_passes``, that its passes may refill (see
        #: :meth:`seed_layouts`), and the structure's weak layout map,
        #: which the passes built here join.
        self._layouts: dict[tuple[np.dtype, np.dtype], object] = {}
        self._layout_pool: weakref.WeakValueDictionary | None = None
        #: SpMV plans keyed by (allow_tensor_cores, tc_threshold).
        self._spmv_plans: dict[tuple[bool, float], object] = {}
        #: Replayable SpMV bindings keyed by (precision, width, allow_tc,
        #: tc_threshold, storage_itemsize, check gate) — the tape's plan
        #: handles.
        self._spmv_bindings: dict[tuple, object] = {}
        #: Reuse telemetry over the per-call entries (:meth:`tiles`,
        #: :meth:`tile_passes` and :meth:`spmv_plan` — the lookups every
        #: kernel call makes).
        #: Plain ints so tests and the obs registry can read them with no
        #: tracing gate; ``evictions`` stays 0 — the cache lives and dies
        #: with its matrix and never drops entries.
        self.hits: int = 0
        self.misses: int = 0
        self.evictions: int = 0

    @property
    def _mat(self):
        mat = self._mat_ref()
        if mat is None:
            raise ReferenceError("operator cache outlived its matrix")
        return mat

    # -- structural invariants -----------------------------------------
    @property
    def pattern_key(self) -> str:
        """Sparsity-structure digest, the key of the setup-phase plan cache.

        Hashes shape + ``blc_ptr``/``blc_idx``/``blc_map`` (never values),
        so every precision cast of an operator shares the key.  Computed
        once per matrix; casts seed it from the canonical form via
        :meth:`seed_pattern_key`.
        """
        if self._pattern_key is None:
            from repro.check.fingerprint import pattern_fingerprint

            self._pattern_key = pattern_fingerprint(self._mat)
        return self._pattern_key

    def seed_pattern_key(self, key: str) -> None:
        """Adopt a pattern key computed on a structurally identical matrix
        (e.g. the canonical-precision form a cast was derived from)."""
        if self._pattern_key is None:
            self._pattern_key = key

    @property
    def pop_per_tile(self) -> np.ndarray:
        """``bitmap_popcount(blc_map)``, computed once per matrix."""
        if self._pop_per_tile is None:
            from repro.formats.bitmap import bitmap_popcount

            self._pop_per_tile = bitmap_popcount(self._mat.blc_map)
            self._pop_per_tile.setflags(write=False)
        return self._pop_per_tile

    def seed_pop_per_tile(self, pop: np.ndarray) -> None:
        """Adopt precomputed tile popcounts (e.g. from a replayed RAP plan
        whose intermediate structure carries them)."""
        if self._pop_per_tile is None:
            pop = np.ascontiguousarray(pop)
            pop.setflags(write=False)
            self._pop_per_tile = pop

    @property
    def pop_hist(self) -> np.ndarray:
        """Histogram of nonzeros per tile, bins 0..16 — the distribution
        the TC-vs-CUDA dispatch threshold (Sec. IV.D) cuts through.
        Computed once; the obs layer folds it into its popcount
        histogram on every traced kernel call."""
        if self._pop_hist is None:
            self._pop_hist = np.bincount(self.pop_per_tile, minlength=17)
            self._pop_hist.setflags(write=False)
        return self._pop_hist

    @property
    def nnz(self) -> int:
        if self._nnz is None:
            self._nnz = int(self.pop_per_tile.sum())
        return self._nnz

    @property
    def block_row_ids(self) -> np.ndarray:
        """Block-row id per stored tile (COO expansion of ``blc_ptr``)."""
        if self._block_row_ids is None:
            mat = self._mat
            self._block_row_ids = np.repeat(
                np.arange(mat.mb, dtype=np.int64), self.blocks_per_row
            )
            self._block_row_ids.setflags(write=False)
        return self._block_row_ids

    @property
    def blocks_per_row(self) -> np.ndarray:
        if self._blocks_per_row is None:
            self._blocks_per_row = np.diff(self._mat.blc_ptr)
            self._blocks_per_row.setflags(write=False)
        return self._blocks_per_row

    # -- precision casts -----------------------------------------------
    def tiles(self, in_dtype, acc_dtype) -> np.ndarray:
        """Memoised :func:`widened_tiles` of the matrix's tile values.

        This is the per-call ``.astype(in_dtype).astype(acc_dtype)`` the
        SpGEMM kernels used to run on every call, done once and kept.
        """
        key = (np.dtype(in_dtype), np.dtype(acc_dtype))
        cached = self._tiles.get(key)
        if cached is None:
            self.misses += 1
            obs_metrics.inc(
                obs_names.OPERATOR_CACHE_REQUESTS, entry="tiles", result="miss"
            )
            obs_blackbox.record("operator_cache_miss", entry="tiles")
            cached = widened_tiles(self._mat.blc_val, *key)
            cached.setflags(write=False)
            self._tiles[key] = cached
        else:
            self.hits += 1
            obs_metrics.inc(
                obs_names.OPERATOR_CACHE_REQUESTS, entry="tiles", result="hit"
            )
        return cached

    def tile_passes(self, in_dtype, acc_dtype):
        """The operator's :class:`repro.kernels.spmv.TilePasses` at one
        precision: the host SpMV/SpMM contraction, built on first use.

        Reuses the memoised :meth:`tiles` entry when one exists (an FP64
        operator's tiles are its own values) but does not create one: the
        passes keep only the nonzero slots they read, plus references to
        the matrix's arrays for the dense route they build on first use.
        A seeded layout at this precision is refilled when the values fit
        it; a layout built here joins the structure's map.
        """
        key = (np.dtype(in_dtype), np.dtype(acc_dtype))
        passes = self._tile_passes.get(key)
        if passes is None:
            from repro.kernels.spmv import TilePasses, slot_pairing

            self.misses += 1
            obs_metrics.inc(
                obs_names.OPERATOR_CACHE_REQUESTS, entry="tile_passes",
                result="miss",
            )
            obs_blackbox.record("operator_cache_miss", entry="tile_passes")
            mat = self._mat
            tiles = self._tiles.get(key)
            if tiles is None:
                tiles = widened_tiles(mat.blc_val, *key)
            passes = TilePasses(mat, tiles, *key, slot_pairing(key[1]),
                                layout=self._layouts.get(key))
            if passes.layout is not None:
                obs_metrics.inc(
                    obs_names.TILE_PASS_LAYOUTS,
                    result="refill" if passes.refilled else "build",
                )
                if not passes.refilled:
                    # A seeded layout that did not fit is released; the
                    # new one serves the structure's next operators.
                    self._layouts.pop(key, None)
                    if self._layout_pool is not None:
                        self._layout_pool[key] = passes.layout
            self._tile_passes[key] = passes
        else:
            self.hits += 1
            obs_metrics.inc(
                obs_names.OPERATOR_CACHE_REQUESTS, entry="tile_passes",
                result="hit",
            )
        return passes

    @property
    def layout_pool(self) -> weakref.WeakValueDictionary | None:
        """The weak pass-layout map this cache joined, if any."""
        return self._layout_pool

    def seed_layouts(self, pool: weakref.WeakValueDictionary | None) -> None:
        """Join the weak pass-layout map of a structure this operator
        carries (its fill template's, or its canonical form's), holding
        the layouts alive in it now.  ``None`` (a structure with no map)
        is a no-op.

        A layout lives as long as some passes built from it or some cache
        seeded with it, so a re-setup's operators, seeded while the
        operators they replace are alive, refill their layouts at the
        first solve; the layout of a dead structure dies with its last
        operator.
        """
        if pool is not None and self._layout_pool is None:
            self._layout_pool = pool
            if pool:  # most maps are empty: skip the guarded iteration
                self._layouts = dict(pool.items())

    # -- SpMV preprocessing ----------------------------------------------
    def spmv_plan(self, allow_tensor_cores: bool = True, tc_threshold=None):
        """Memoised :func:`repro.kernels.spmv.build_spmv_plan`."""
        from repro.formats.bitmap import TC_NNZ_THRESHOLD
        from repro.kernels.spmv import build_spmv_plan

        threshold = TC_NNZ_THRESHOLD if tc_threshold is None else tc_threshold
        key = (bool(allow_tensor_cores), float(threshold))
        plan = self._spmv_plans.get(key)
        if plan is None:
            self.misses += 1
            obs_metrics.inc(
                obs_names.OPERATOR_CACHE_REQUESTS, entry="spmv_plan",
                result="miss",
            )
            plan = build_spmv_plan(
                self._mat,
                allow_tensor_cores=allow_tensor_cores,
                tc_threshold=threshold,
            )
            self._spmv_plans[key] = plan
            obs_blackbox.record(
                "dispatch_decision",
                kernel="spmv",
                core="tc" if plan.use_tensor_cores else "cuda",
                schedule="balanced" if plan.load_balanced else "row-warp",
            )
        else:
            self.hits += 1
            obs_metrics.inc(
                obs_names.OPERATOR_CACHE_REQUESTS, entry="spmv_plan",
                result="hit",
            )
        return plan

    def spmv_binding(
        self,
        precision,
        *,
        width: int = 1,
        allow_tensor_cores: bool = True,
        tc_threshold=None,
        storage_itemsize: int | None = None,
    ):
        """Memoised :func:`repro.kernels.spmv.bind_spmv`.

        One binding per (precision, panel width, dispatch knobs, check
        gate) per operator: tapes recorded against the same hierarchy at
        the same width share the resolved kernels.  The width is in the
        key because the priced record scales with it; the gate because a
        binding resolves it at bind time — a binding built outside a
        checked region must not serve one inside it.
        """
        from repro.formats.bitmap import TC_NNZ_THRESHOLD
        from repro.kernels.spmv import bind_spmv

        threshold = TC_NNZ_THRESHOLD if tc_threshold is None else tc_threshold
        key = (precision, int(width), bool(allow_tensor_cores),
               float(threshold), storage_itemsize, check_runtime.is_active())
        binding = self._spmv_bindings.get(key)
        if binding is None:
            self.misses += 1
            obs_metrics.inc(
                obs_names.OPERATOR_CACHE_REQUESTS, entry="spmv_binding",
                result="miss",
            )
            obs_blackbox.record(
                "operator_cache_miss", entry="spmv_binding",
                precision=precision.name.lower(),
            )
            binding = bind_spmv(
                self._mat,
                precision,
                self.spmv_plan(allow_tensor_cores, tc_threshold=threshold),
                width=int(width),
                allow_tensor_cores=allow_tensor_cores,
                tc_threshold=threshold,
                storage_itemsize=storage_itemsize,
            )
            self._spmv_bindings[key] = binding
        else:
            self.hits += 1
            obs_metrics.inc(
                obs_names.OPERATOR_CACHE_REQUESTS, entry="spmv_binding",
                result="hit",
            )
        return binding
