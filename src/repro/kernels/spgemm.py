"""Driver for the mBSR SpGEMM: analysis -> symbolic -> numeric.

Produces C = A @ B in mBSR together with a :class:`KernelRecord` whose
counters merge the three phases.  Tiles whose numeric values cancel to zero
keep their bitmap bits (the bitmap tracks *structural* nonzeros, exactly as
the OR-accumulation of Alg. 4 does on the GPU); callers that need a
numerically pruned matrix convert through CSR with ``eliminate_zeros``.

When the same sparsity pattern is multiplied repeatedly (re-running the
AMG setup after coefficient updates — the alpha-Setup scenario the paper
cites, or cuSPARSE's ``SPGEMM_REUSE`` API), the analysis + symbolic phases
can be amortised: capture them once with :func:`mbsr_spgemm_symbolic_plan`
and pass the plan back via ``reuse_plan`` to run only the numeric phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.check import runtime as check_runtime
from repro.formats.mbsr import MBSRMatrix, block_rows
from repro.obs import trace as obs_trace
from repro.obs import names as obs_names
from repro.gpu.counters import Precision
from repro.kernels.record import KernelRecord
from repro.kernels.spgemm_analysis import AnalysisResult, analyse_and_bin
from repro.kernels.spgemm_numeric import numeric_spgemm
from repro.kernels.spgemm_symbolic import SymbolicResult, symbolic_spgemm

__all__ = [
    "mbsr_spgemm",
    "mbsr_spgemm_rows",
    "mbsr_spgemm_symbolic_plan",
    "SpGEMMPlan",
]


@dataclass
class SpGEMMPlan:
    """Captured analysis + symbolic phases for pattern-reuse products."""

    analysis: "AnalysisResult"
    symbolic: "SymbolicResult"
    #: Shapes of the operands the plan was built for (validated on reuse).
    shape_a: tuple[int, int]
    shape_b: tuple[int, int]
    #: Tile counts the plan assumes (a cheap pattern-identity proxy).
    blc_num_a: int
    blc_num_b: int
    #: Pattern fingerprints of the operands (exact identity; ``None`` on
    #: plans built before the setup engine, validated only when present).
    pattern_key_a: str | None = None
    pattern_key_b: str | None = None
    #: True once a kernel record carried this plan's analysis + symbolic
    #: cost (see :meth:`charge`).
    paid: bool = False
    #: The numeric phase's counters per (precision, tc_threshold,
    #: storage_itemsize): pattern-only, so every full replay of the plan
    #: reuses them (see :func:`numeric_spgemm`).
    priced: dict = field(default_factory=dict, repr=False, compare=False)

    def charge(self, counters) -> bool:
        """Charge the plan's build to *counters* unless already paid.

        The one plan-charging rule of the setup engine: whoever built the
        plan — a cold :func:`mbsr_spgemm`, a fused RAP assembly or a
        dirty-row splice — its analysis + symbolic cost lands on the first
        record that runs it, exactly once.  Returns True when it charged.
        """
        if self.paid:
            return False
        self.paid = True
        counters.merge(self.symbolic.counters)
        # Analysis pass: one launch over A's index arrays + B's row counts.
        counters.launches += 1
        counters.add_bytes(
            # lint: disable=R3 -- 16 B/tile of index traffic (blc_idx +
            # per-tile popcount, both int64), not the 16-slot tile: the
            # analysis pass never touches values
            read=self.blc_num_a * 16 + block_rows(self.shape_a[0]) * 8
            + block_rows(self.shape_b[0]) * 8
        )
        return True


def mbsr_spgemm_symbolic_plan(
    mat_a: MBSRMatrix, mat_b: MBSRMatrix
) -> SpGEMMPlan:
    """Run analysis + symbolic once and capture them for reuse.

    The returned plan is valid for any later product whose operands have
    the *same sparsity pattern* (tile positions and bitmaps) as
    ``mat_a`` / ``mat_b`` — the coefficient-update scenario.
    """
    if mat_a.ncols != mat_b.nrows:
        raise ValueError(
            f"inner dimensions differ: A is {mat_a.shape}, B is {mat_b.shape}"
        )
    analysis = analyse_and_bin(mat_a, mat_b)
    return SpGEMMPlan(
        analysis=analysis,
        symbolic=symbolic_spgemm(mat_a, mat_b, analysis),
        shape_a=mat_a.shape,
        shape_b=mat_b.shape,
        blc_num_a=mat_a.blc_num,
        blc_num_b=mat_b.blc_num,
        pattern_key_a=mat_a.cache.pattern_key,
        pattern_key_b=mat_b.cache.pattern_key,
    )


def mbsr_spgemm_rows(
    mat_a: MBSRMatrix,
    mat_b: MBSRMatrix,
    rows: np.ndarray,
    precision: Precision = Precision.FP64,
    out_dtype=None,
    *,
    tc_threshold: int | None = None,
    storage_itemsize: int | None = None,
) -> tuple[MBSRMatrix, "SymbolicResult", KernelRecord]:
    """Dirty-row replay: C[rows, :] = A[rows, :] @ B for sorted block-rows.

    Runs the symbolic + numeric phases restricted to the given block-rows
    of A and returns the compacted sub-product (block-row ``i`` of the
    result is block-row ``rows[i]`` of the full product) together with the
    restricted :class:`SymbolicResult` (pair lists indexing the *full*
    operand tile arrays, pair pointer over the compacted tiles) and a
    merged :class:`KernelRecord`.

    Bit-identity: every selected block-row keeps the full product's output
    tiles and, within each tile, its pairs in traversal order, and the
    segmented accumulation follows that order, so each returned tile is
    bytewise equal to the same tile of ``mbsr_spgemm(mat_a, mat_b)`` —
    the property the incremental setup patcher's contract gate relies on.
    """
    if mat_a.ncols != mat_b.nrows:
        raise ValueError(
            f"inner dimensions differ: A is {mat_a.shape}, B is {mat_b.shape}"
        )
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (np.any(np.diff(rows) <= 0) or rows[0] < 0
                      or rows[-1] >= mat_a.mb):
        raise ValueError("rows must be sorted, unique block-row ids of A")
    record = KernelRecord(kernel="spgemm", backend="amgt", precision=precision)
    symbolic = symbolic_spgemm(mat_a, mat_b, None, rows)
    from repro.formats.bitmap import TC_NNZ_THRESHOLD, bitmap_to_mask

    threshold = TC_NNZ_THRESHOLD if tc_threshold is None else tc_threshold
    numeric = numeric_spgemm(mat_a, mat_b, symbolic, precision,
                             tc_threshold=threshold,
                             storage_itemsize=storage_itemsize)
    record.counters.merge(symbolic.counters)
    record.counters.merge(numeric.counters)
    record.detail = {
        "rows": int(rows.shape[0]),
        "tc_pairs": numeric.tc_pairs,
        "cuda_pairs": numeric.cuda_pairs,
        "blc_num_c": symbolic.blc_num_c,
    }
    val = numeric.blc_val_c
    if out_dtype is not None:
        val = val.astype(out_dtype)
    mask = bitmap_to_mask(numeric.blc_map_c)
    val = np.where(mask, val, val.dtype.type(0))
    out = MBSRMatrix(
        (4 * rows.shape[0], mat_b.ncols),
        symbolic.blc_ptr_c,
        symbolic.blc_idx_c,
        val,
        numeric.blc_map_c,
        _trusted=True,
    )
    if check_runtime.is_active():
        _verify_rows_slice(mat_a, mat_b, out, rows, precision, out_dtype,
                           tc_threshold=threshold,
                           storage_itemsize=storage_itemsize)
    return out, symbolic, record


def _verify_rows_slice(mat_a, mat_b, out, rows, precision, out_dtype, *,
                       tc_threshold, storage_itemsize) -> None:
    """Checked-mode oracle: the restricted product must be a bytewise
    slice of the full product on the selected block-rows."""
    from repro.check.violation import ContractViolation

    full, _ = mbsr_spgemm(mat_a, mat_b, precision, out_dtype,
                          tc_threshold=tc_threshold,
                          storage_itemsize=storage_itemsize)
    s0, s1 = full.blc_ptr[rows], full.blc_ptr[rows + 1]
    counts = (s1 - s0).astype(np.int64)
    total = int(counts.sum())
    offs = np.repeat(s0, counts) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    if not (np.array_equal(np.diff(out.blc_ptr), counts)
            and np.array_equal(out.blc_idx, full.blc_idx[offs])
            and np.array_equal(out.blc_map, full.blc_map[offs])
            and out.blc_val.tobytes() == full.blc_val[offs].tobytes()):
        from repro.check.fingerprint import fingerprint

        raise ContractViolation(
            "mbsr_spgemm_rows", "spgemm/rows-slice",
            f"restricted product diverges from the full product on "
            f"{rows.shape[0]} block-rows",
            operands={"A": fingerprint(mat_a), "B": fingerprint(mat_b)},
        )


def mbsr_spgemm(
    mat_a: MBSRMatrix,
    mat_b: MBSRMatrix,
    precision: Precision = Precision.FP64,
    out_dtype=None,
    *,
    tc_threshold: int | None = None,
    storage_itemsize: int | None = None,
    reuse_plan: SpGEMMPlan | None = None,
    plan_cache=None,
) -> tuple[MBSRMatrix, KernelRecord]:
    """Multiply two mBSR matrices with the AmgT hybrid kernel.

    Parameters
    ----------
    mat_a, mat_b:
        Operands; ``mat_a.ncols`` must equal ``mat_b.nrows``.
    precision:
        Compute precision of the numeric phase.  FP16 multiplies accumulate
        in FP32 (tensor-core semantics).
    out_dtype:
        Value dtype of the result (default: the accumulator dtype).
    reuse_plan:
        A plan from :func:`mbsr_spgemm_symbolic_plan` built on operands
        with the same sparsity pattern; skips the analysis + symbolic
        phases (only the numeric phase runs and is charged).
    plan_cache:
        A :class:`repro.kernels.setup_cache.SetupPlanCache`.  When given
        (and ``reuse_plan`` is not), the plan is looked up by the operands'
        pattern fingerprints: a hit skips the analysis + symbolic phases
        exactly like ``reuse_plan``; a miss builds the plan and stores it
        for the next same-pattern product.  Either way a plan whose build
        was never charged (:meth:`SpGEMMPlan.charge`) is charged here.

    Returns
    -------
    (MBSRMatrix, KernelRecord)
    """
    if mat_a.ncols != mat_b.nrows:
        raise ValueError(
            f"inner dimensions differ: A is {mat_a.shape}, B is {mat_b.shape}"
        )
    record = KernelRecord(kernel="spgemm", backend="amgt", precision=precision)

    if reuse_plan is not None:
        if (reuse_plan.shape_a != mat_a.shape or reuse_plan.shape_b != mat_b.shape
                or reuse_plan.blc_num_a != mat_a.blc_num
                or reuse_plan.blc_num_b != mat_b.blc_num):
            raise ValueError(
                "reuse_plan was built for operands with a different pattern"
            )
        if (reuse_plan.pattern_key_a is not None
                and (reuse_plan.pattern_key_a != mat_a.cache.pattern_key
                     or reuse_plan.pattern_key_b != mat_b.cache.pattern_key)):
            raise ValueError(
                "reuse_plan was built for operands with a different pattern"
            )
        plan = reuse_plan
        fresh_symbolic = False
    else:
        if plan_cache is not None:
            plan = plan_cache.spgemm_plan(mat_a, mat_b)
        else:
            analysis = analyse_and_bin(mat_a, mat_b)
            plan = SpGEMMPlan(analysis, symbolic_spgemm(mat_a, mat_b, analysis),
                              mat_a.shape, mat_b.shape,
                              mat_a.blc_num, mat_b.blc_num)
        fresh_symbolic = plan.charge(record.counters)
    analysis, symbolic = plan.analysis, plan.symbolic
    from repro.formats.bitmap import TC_NNZ_THRESHOLD

    threshold = TC_NNZ_THRESHOLD if tc_threshold is None else tc_threshold
    numeric = numeric_spgemm(mat_a, mat_b, symbolic, precision,
                             tc_threshold=threshold,
                             storage_itemsize=storage_itemsize,
                             priced=plan.priced)

    record.counters.merge(numeric.counters)
    record.detail = {
        "bins": {b: int(rows.shape[0]) for b, rows in enumerate(analysis.rows_by_bin)},
        "intermediate_tiles": analysis.total_intermediate,
        "tc_pairs": numeric.tc_pairs,
        "cuda_pairs": numeric.cuda_pairs,
        "blc_num_c": symbolic.blc_num_c,
        "symbolic_reused": not fresh_symbolic,
    }

    val = numeric.blc_val_c
    if out_dtype is not None:
        val = val.astype(out_dtype)
    # Zero out accumulator slots outside the bitmap so the mBSR invariant
    # (values only under set bits) holds for downstream kernels.
    from repro.formats.bitmap import bitmap_to_mask

    mask = bitmap_to_mask(numeric.blc_map_c)
    val = np.where(mask, val, val.dtype.type(0))

    out = MBSRMatrix(
        (mat_a.nrows, mat_b.ncols),
        symbolic.blc_ptr_c,
        symbolic.blc_idx_c,
        val,
        numeric.blc_map_c,
        _trusted=True,
    )
    if check_runtime.is_active():
        from repro.check import oracle

        oracle.verify_spgemm(mat_a, mat_b, out, precision, out_dtype)
    if obs_trace.is_active():
        from repro.obs import metrics as obs_metrics

        # The numeric phase dispatches per intermediate pair: tensor cores
        # for dense-enough tiles, CUDA cores otherwise (Sec. IV.C).
        if numeric.tc_pairs:
            obs_metrics.REGISTRY.counter(
                obs_names.SPGEMM_PAIR_DISPATCH, core="tc"
            ).inc(numeric.tc_pairs)
        if numeric.cuda_pairs:
            obs_metrics.REGISTRY.counter(
                obs_names.SPGEMM_PAIR_DISPATCH, core="cuda"
            ).inc(numeric.cuda_pairs)
        obs_metrics.inc(
            obs_names.SPGEMM_SYMBOLIC,
            result="reused" if not fresh_symbolic else "built",
        )
        obs_metrics.REGISTRY.histogram(
            obs_names.SPGEMM_TILE_POPCOUNT,
            buckets=obs_metrics.POP_BUCKETS,
            kernel="spgemm",
        ).observe_counts(out.cache.pop_hist)
    return out, record
