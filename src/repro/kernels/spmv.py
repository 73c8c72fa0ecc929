"""The mBSR SpMV of Sec. IV.D: adaptive, load-balanced, hybrid.

Preprocessing (once per matrix, reused for every SpMV on it — AmgT calls
SpMV hundreds of times per matrix during the solve phase) computes:

* ``variation`` — the coefficient of variation of tiles per block-row; when
  the distribution is unbalanced, the *load-balanced* schedule assigns a
  fixed 64 tiles to every warp (``WARP_CAPACITY``) and multiple warps
  cooperate on long rows; otherwise one warp owns one block-row.
* ``avg_nnz_blc`` — average nonzeros per tile; at >= 10 the tensor-core
  kernel runs (two tiles per MMA, Fig. 5), below it the CUDA-core kernel
  (four threads per tile, one row each, Alg. 5).

The numeric result is identical between schedules; the schedule changes the
*imbalance factor* the cost model applies, and the core choice changes which
throughput ceiling prices the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.check import runtime as check_runtime
from repro.formats.bitmap import BLOCK_SIZE, TC_NNZ_THRESHOLD, TILE_SLOTS
from repro.obs import trace as obs_trace
from repro.obs import names as obs_names
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import Precision, effective_value_bytes
from repro.kernels.record import KernelRecord

__all__ = [
    "WARP_CAPACITY",
    "VARIATION_THRESHOLD",
    "SpMVPlan",
    "SpMVBinding",
    "SpMMBinding",
    "TilePasses",
    "build_spmv_plan",
    "bind_spmv",
    "bind_spmm",
    "mbsr_spmv",
    "mbsr_spmm",
    "slot_pairing",
]

#: Tiles per warp under the load-balanced schedule (Sec. IV.D.1).
WARP_CAPACITY = 64

#: Coefficient-of-variation threshold above which the load-balanced
#: schedule is selected.  Stencil/FEM matrices sit well below 0.3; graph
#: matrices with hub rows (power networks) sit near or above 1.
VARIATION_THRESHOLD = 0.5


@dataclass
class SpMVPlan:
    """Preprocessing result: schedule + core selection for one matrix."""

    variation: float
    avg_nnz_blc: float
    load_balanced: bool
    use_tensor_cores: bool
    #: Imbalance factor of the chosen schedule (>= 1).
    imbalance: float
    #: Number of warps the schedule launches.
    num_warps: int
    #: MMA issues per SpMV call under the TC path (0 for the CUDA path).
    mma_issues: int

    @property
    def kernel_path(self) -> str:
        core = "tc" if self.use_tensor_cores else "cuda"
        sched = "balanced" if self.load_balanced else "row-warp"
        return f"{core}/{sched}"


def build_spmv_plan(
    mat: MBSRMatrix,
    *,
    allow_tensor_cores: bool = True,
    tc_threshold: float = TC_NNZ_THRESHOLD,
) -> SpMVPlan:
    """Data preprocessing: pick the schedule and the compute cores."""
    per_row = mat.blocks_per_row().astype(np.float64)
    blc_num = mat.blc_num
    if blc_num == 0 or mat.mb == 0:
        return SpMVPlan(0.0, 0.0, False, False, 1.0, 0, 0)
    mean = per_row.mean()
    variation = float(per_row.std() / mean) if mean > 0 else 0.0
    avg_nnz_blc = mat.avg_nnz_blc
    load_balanced = variation > VARIATION_THRESHOLD
    use_tc = allow_tensor_cores and avg_nnz_blc >= tc_threshold

    if load_balanced:
        # Fixed 64 tiles per warp: the only imbalance left is the ragged
        # final warp.
        num_warps = max(1, -(-blc_num // WARP_CAPACITY))
        work = np.full(num_warps, WARP_CAPACITY, dtype=np.float64)
        work[-1] = blc_num - WARP_CAPACITY * (num_warps - 1)
        imbalance = float(work.max() / work.mean())
    else:
        # One warp per block-row: imbalance is the row-length skew.
        num_warps = mat.mb
        nonzero_rows = per_row[per_row > 0]
        if nonzero_rows.size:
            imbalance = float(per_row.max() / per_row.mean())
        else:
            imbalance = 1.0

    if use_tc:
        # Two tiles per MMA issue within each warp (Fig. 5); odd warps
        # waste half an issue.
        if load_balanced:
            full, rem = divmod(blc_num, WARP_CAPACITY)
            mma = full * (WARP_CAPACITY // 2) + (rem + 1) // 2
        else:
            mma = int(np.sum((per_row.astype(np.int64) + 1) // 2))
    else:
        mma = 0
    return SpMVPlan(
        variation=variation,
        avg_nnz_blc=avg_nnz_blc,
        load_balanced=load_balanced,
        use_tensor_cores=use_tc,
        imbalance=max(imbalance, 1.0),
        num_warps=num_warps,
        mma_issues=mma,
    )


# ----------------------------------------------------------------------
# Host tile contraction: two CSR passes over the mBSR tiles.
#
# The reference dataflow is a batched ``np.matmul(tiles, xblk[:, :, None])``
# (one BLAS gemv per 4x4 tile) followed by a sequential ``bincount`` of
# the per-tile contributions into block rows.  Both steps are rewritten
# as scipy CSR products that round exactly like them:
#
# * the *slot-pair* pass has two rows per tile row: row ``4t+i`` of its
#   top half holds tile ``t``'s row ``i`` restricted to slots ``(a, b)``,
#   the same row of its bottom half slots ``(c, d)``, and scipy's matvec
#   sums each row as ``(0 + t_a*x_a) + t_b*x_b``.  ``top + bottom`` then
#   reproduces matmul's four-term association when the pairs are the ones
#   gemv adds first (probed per accumulator dtype, see
#   :func:`slot_pairing`).  The leading ``+0.0`` can only flip the sign of
#   a zero partial sum, which the reduction's own ``+0.0`` start absorbs.
# * the *reduction* pass is a 0/1 matrix summing the tile contributions of
#   each output row in tile order, starting from ``+0.0`` — exactly
#   ``bincount``'s (and the float32 ragged sweep's) sequential rounding.
#
# All 16 slots of every tile stay in the slot-pair pass, structural zeros
# included, so inf/NaN in x propagates as the dense tile product does.
# scipy's multi-vector product runs the same per-column arithmetic, so a
# ``(ncols, k)`` panel goes through the identical code path.
# ----------------------------------------------------------------------

#: Candidate slot pairings ``(a, b, c, d)``: a tile row contracts as
#: ``(t_a x_a + t_b x_b) + (t_c x_c + t_d x_d)``.
_PAIRINGS = ((0, 2, 1, 3), (0, 1, 2, 3), (0, 3, 1, 2))

#: Probed pairing per accumulator dtype; ``None`` keeps the matmul
#: contraction (no candidate reproduces the BLAS build's gemv).
_SLOT_PAIRING: dict[np.dtype, tuple[int, ...] | None] = {}

#: Process-wide read-only constants shared by every operator's passes:
#: the stride-2 slot-pair indptr and the all-ones reduction values, one
#: buffer per (kind, dtype, power-of-two length).
_SHARED: dict[tuple[str, np.dtype, int], np.ndarray] = {}


def _index_dtype(maxval: int) -> type:
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


def _shared_prefix(kind: str, dtype, n: int) -> np.ndarray:
    """The first *n* entries of a shared read-only constant array.

    Buffer lengths are powers of two so a prefix always spans at least
    half its buffer: scipy copies a data array that is a view of a much
    larger one.
    """
    size = 1 << max(n - 1, 0).bit_length()
    key = (kind, np.dtype(dtype), size)
    buf = _SHARED.get(key)
    if buf is None:
        if kind == "stride2":
            buf = np.arange(0, 2 * size, 2, dtype=dtype)
        else:
            buf = np.ones(size, dtype=dtype)
        buf.setflags(write=False)
        _SHARED[key] = buf
    return buf[:n]


def _frozen_csr(data, indices, indptr, shape) -> sp.csr_array:
    """A CSR array over the given arrays (copied only where scipy must),
    with every array it ends up holding made read-only."""
    out = sp.csr_array((data, indices, indptr), shape=shape, copy=False)
    for arr in (out.data, out.indices, out.indptr):
        arr.setflags(write=False)
    return out


def _pair_pass(tiles: np.ndarray, blc_idx: np.ndarray, pairing,
               ncols: int) -> sp.csr_array:
    """The ``(8 * blc, ncols)`` slot-pair pass over widened *tiles*."""
    blc = tiles.shape[0]
    idx_dtype = _index_dtype(max(TILE_SLOTS * blc, ncols))
    # Laid out (half, tile, tile row, slot of the pair).
    data = np.empty((2, blc, BLOCK_SIZE, 2), dtype=tiles.dtype)
    cols = np.empty(data.shape, dtype=idx_dtype)
    base = (blc_idx * BLOCK_SIZE).astype(idx_dtype)[:, None]
    for slot, src in enumerate(pairing):
        half, pos = divmod(slot, 2)
        data[half, :, :, pos] = tiles[:, :, src]
        np.add(base, src, out=cols[half, :, :, pos])
    indptr = _shared_prefix("stride2", idx_dtype, 2 * BLOCK_SIZE * blc + 1)
    return _frozen_csr(data.reshape(-1), cols.reshape(-1), indptr,
                       (2 * BLOCK_SIZE * blc, ncols))


def _pair_sum(u: np.ndarray) -> np.ndarray:
    """Per-tile-row contributions ``top + bottom``, added in place into
    the top half of the slot-pair pass output (1-D or ``(rows, k)``)."""
    top = u[: u.shape[0] // 2]
    np.add(top, u[top.shape[0]:], out=top)
    return top


def _reduce_pass(blc_ptr: np.ndarray, nrows: int, acc_dtype) -> sp.csr_array:
    """The ``(nrows, 4 * blc)`` 0/1 pass summing contributions in tile order.

    Output row ``4*br + i`` reads contribution ``4*t + i`` of every tile
    ``t`` of block row ``br``, in increasing ``t``.
    """
    counts = np.diff(blc_ptr)
    blc = int(blc_ptr[-1])
    idx_dtype = _index_dtype(BLOCK_SIZE * blc)
    comp = np.arange(BLOCK_SIZE)
    starts = BLOCK_SIZE * blc_ptr[:-1, None] + comp * counts[:, None]
    tile = np.arange(blc)
    brow = np.repeat(np.arange(counts.shape[0]), counts)
    pos = starts[brow] + (tile - blc_ptr[brow])[:, None]
    indices = np.empty(BLOCK_SIZE * blc, dtype=idx_dtype)
    indices[pos.reshape(-1)] = (BLOCK_SIZE * tile[:, None] + comp).reshape(-1)
    indptr = np.append(starts.reshape(-1), BLOCK_SIZE * blc)[: nrows + 1]
    nnz = int(indptr[-1])
    ones = _shared_prefix("ones", acc_dtype, nnz)
    return _frozen_csr(ones, indices[:nnz], indptr.astype(idx_dtype),
                       (nrows, BLOCK_SIZE * blc))


def _probe_pairing(acc_dtype: np.dtype) -> tuple[int, ...] | None:
    """Find the slot pairing whose two-pass contraction matches
    ``np.matmul``'s ``(4, 4) @ (4, 1)`` bit for bit, width 1 and panel."""
    rng = np.random.default_rng(0x5EED)
    blc, width = 256, 3

    def draw(shape):
        scale = np.exp2(rng.integers(-12, 13, size=shape))
        return (rng.standard_normal(shape) * scale).astype(acc_dtype)

    tiles, x = draw((blc, BLOCK_SIZE, BLOCK_SIZE)), draw((blc * BLOCK_SIZE, width))
    ref = [
        np.matmul(tiles, np.ascontiguousarray(x[:, j]).reshape(blc, -1, 1))
        .reshape(-1)
        for j in range(width)
    ]
    for pairing in _PAIRINGS:
        # lint: disable=R5 -- runs once per accumulator dtype per process
        pairs = _pair_pass(tiles, np.arange(blc), pairing, blc * BLOCK_SIZE)
        panel = _pair_sum(pairs @ x)
        if all(
            np.array_equal(_pair_sum(pairs @ np.ascontiguousarray(x[:, j])), r)
            and np.array_equal(panel[:, j], r)
            for j, r in enumerate(ref)
        ):
            return pairing
    return None


def slot_pairing(acc_dtype) -> tuple[int, ...] | None:
    """The slot pairing reproducing ``np.matmul`` in *acc_dtype* on the
    running BLAS build (probed once per dtype), or ``None`` for the
    fallback."""
    acc = np.dtype(acc_dtype)
    if acc not in _SLOT_PAIRING:
        _SLOT_PAIRING[acc] = _probe_pairing(acc)
    return _SLOT_PAIRING[acc]


class TilePasses:
    """One operator's host tile contraction at one precision.

    ``passes(x)`` computes ``A @ x`` in the accumulator dtype for an
    ``(ncols,)`` vector or an ``(ncols, k)`` panel, quantising x to the
    input dtype first — bit-identical to the batched-matmul + bincount
    dataflow.  When no slot pairing reproduces the host's matmul
    (``pairing is None``) the slot-pair pass is replaced by that matmul
    itself; the reduction pass is shared by both.

    Holds only arrays, never the matrix, so the operator cache storing it
    creates no reference cycle.  Scratch is allocated per call: the
    object is immutable and safe to share across bindings.
    """

    __slots__ = ("in_dtype", "acc_dtype", "nrows", "ncols", "padded",
                 "pairing", "pairs", "reduce", "tiles", "blc_idx")

    pairs: sp.csr_array | None
    tiles: np.ndarray | None
    blc_idx: np.ndarray | None

    def __init__(self, mat: MBSRMatrix, tiles: np.ndarray, in_dtype,
                 acc_dtype, pairing: tuple[int, ...] | None) -> None:
        self.in_dtype = np.dtype(in_dtype)
        self.acc_dtype = np.dtype(acc_dtype)
        self.nrows, self.ncols = mat.shape
        self.padded = mat.nb * BLOCK_SIZE
        self.pairing = pairing
        if pairing is None:
            self.pairs = None
            self.tiles = tiles.view()
            self.tiles.setflags(write=False)
            self.blc_idx = mat.blc_idx
        else:
            self.pairs = _pair_pass(tiles, mat.blc_idx, pairing, self.padded)
            self.tiles = self.blc_idx = None
        self.reduce = _reduce_pass(mat.blc_ptr, self.nrows, self.acc_dtype)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        xq = x.astype(self.in_dtype, copy=False)
        if xq.shape[0] == self.padded:
            xp = xq.astype(self.acc_dtype, copy=False)
        else:
            xp = np.zeros((self.padded,) + xq.shape[1:], dtype=self.acc_dtype)
            xp[: self.ncols] = xq
        if self.pairs is not None:
            contrib = _pair_sum(self.pairs @ xp)
        else:
            contrib = self._matmul_contrib(xp)
        return self.reduce @ contrib

    def _matmul_contrib(self, xp: np.ndarray) -> np.ndarray:
        """The fallback contraction: one ``(4, 4) @ (4, 1)`` per tile."""
        tiles, blc_idx = self.tiles, self.blc_idx
        assert tiles is not None and blc_idx is not None
        xblk = xp.reshape((-1, BLOCK_SIZE) + xp.shape[1:])[blc_idx]
        if xp.ndim == 1:
            return np.matmul(tiles, xblk[:, :, None]).reshape(-1)
        # (k, blc, 4, 1): the broadcast keeps the width-1 gufunc core per
        # column, so each column rounds as its width-1 call would.
        x4 = np.ascontiguousarray(np.moveaxis(xblk, 2, 0))[..., None]
        return np.matmul(tiles[None], x4).reshape(x4.shape[0], -1).T


def _account_spmv(
    record: KernelRecord,
    mat: MBSRMatrix,
    plan: SpMVPlan,
    precision: Precision,
    storage_itemsize: int | None,
) -> None:
    """Fill *record* with the cost of one SpMV on *mat* under *plan*.

    The counters depend only on the operator, the plan and the precision —
    never on ``x`` — which is what lets a tape binding price its record
    once at bind time and replay it per call.
    """
    counters = record.counters
    acc_dtype = precision.accum_dtype
    nnz = mat.nnz
    itemsize = storage_itemsize or precision.itemsize
    if plan.use_tensor_cores:
        counters.add_mma(precision, plan.mma_issues)
        # fragA: two dense tiles per issue; fragB: replicated x slices.
        counters.add_bytes(
            read=effective_value_bytes(mat.blc_num * TILE_SLOTS * itemsize, itemsize)
        )
    else:
        # Thread-level path: one FMA per stored nonzero, plus the bitmap
        # bit-walk and index arithmetic around it (pipeline overhead).
        # Value traffic is sector-granular (~2x the raw gathered bytes),
        # capped at streaming the whole contiguous tile.
        from repro.gpu.counters import (
            SCALAR_GATHER_OVERHEAD,
            SCALAR_PIPELINE_OVERHEAD,
        )

        counters.add_flops(precision, 2.0 * nnz * SCALAR_PIPELINE_OVERHEAD)
        value_bytes = min(
            float(nnz) * itemsize * SCALAR_GATHER_OVERHEAD,
            float(mat.blc_num) * TILE_SLOTS * itemsize,
        )
        counters.add_bytes(read=effective_value_bytes(value_bytes, itemsize))
    # Index structures + bitmaps + x gather + y write.
    counters.add_bytes(
        read=mat.blc_num * (8 + 2) + (mat.mb + 1) * 8
        + effective_value_bytes(mat.blc_num * BLOCK_SIZE * itemsize, itemsize),
        written=mat.nrows * max(acc_dtype().itemsize, itemsize),
    )
    counters.imbalance = plan.imbalance
    counters.launches = 1
    record.detail = {"path": plan.kernel_path, "variation": plan.variation}


def mbsr_spmv(
    mat: MBSRMatrix,
    x: np.ndarray,
    precision: Precision = Precision.FP64,
    plan: SpMVPlan | None = None,
    *,
    allow_tensor_cores: bool = True,
    tc_threshold: float | None = None,
    storage_itemsize: int | None = None,
) -> tuple[np.ndarray, KernelRecord]:
    """Compute ``y = A @ x`` with the adaptive mBSR kernel.

    Returns ``y`` in the accumulator dtype of *precision* and the kernel
    record.  Pass a prebuilt *plan* to skip preprocessing on repeated
    calls; without one, the memoised per-operator plan is built with the
    caller's *tc_threshold* (``None`` = the paper's ``TC_NNZ_THRESHOLD``)
    — the threshold used to be hard-wired here, silently discarding any
    non-default core-selection point.  ``storage_itemsize`` overrides the
    per-value byte size charged for memory traffic: devices whose
    low-precision path computes in reduced precision but keeps
    FP64-resident data (the MI210 configuration of Sec. V.F) pass 8 here,
    which is what makes mixed precision a wash there.
    """
    x = np.asarray(x)
    if x.shape != (mat.ncols,):
        raise ValueError(f"x has shape {x.shape}, expected ({mat.ncols},)")
    cache = mat.cache
    if plan is None:
        plan = cache.spmv_plan(allow_tensor_cores, tc_threshold=tc_threshold)

    record = KernelRecord(kernel="spmv", backend="amgt", precision=precision)
    acc_dtype = precision.accum_dtype
    # Tile products then the row reduction, as in both device kernels,
    # with the precision semantics of the selected core type; the tile
    # values are quantised-and-widened once per operator, not per call.
    y = cache.tile_passes(precision.np_dtype, acc_dtype)(x)
    _account_spmv(record, mat, plan, precision, storage_itemsize)
    # Output-dtype pin: mixed-precision callers must get the accumulator
    # dtype back, or they silently lose (or fabricate) precision downstream.
    assert y.dtype == acc_dtype, (
        f"mbsr_spmv produced {y.dtype}, expected accumulator {acc_dtype}"
    )
    if check_runtime.is_active():
        from repro.check import oracle

        oracle.verify_spmv(mat, x, y, precision, plan)
    if obs_trace.is_active():
        from repro.obs import metrics as obs_metrics

        obs_metrics.REGISTRY.counter(
            obs_names.SPMV_DISPATCH,
            core="tc" if plan.use_tensor_cores else "cuda",
            schedule="balanced" if plan.load_balanced else "row-warp",
        ).inc()
        obs_metrics.REGISTRY.histogram(
            obs_names.SPMV_TILE_POPCOUNT,
            buckets=obs_metrics.POP_BUCKETS,
            kernel="spmv",
        ).observe_counts(cache.pop_hist)
    return y, record


@dataclass
class SpMVBinding:
    """A fully-resolved, replayable SpMV — the tape's plan handle.

    ``run(x)`` returns a fresh float64 vector bit-identical to
    ``np.asarray(mbsr_spmv(mat, x, precision, plan)[0], dtype=np.float64)``
    with every per-call decision already taken: the TC/CUDA plan, the
    operator's :class:`TilePasses` at this precision and the check gate
    are all captured at bind time, so a replay is just the two CSR
    passes.  Scratch is allocated per call and the captured state is
    immutable, so bindings hold no per-binding buffers.

    ``record`` is the unpriced cost template of one call — identical
    counters to the record :func:`mbsr_spmv` would produce, built once
    because the accounting never depends on ``x``.  Callers that charge
    replays stamp/price it once and append it per call.
    """

    run: Callable[[np.ndarray], np.ndarray]
    record: KernelRecord
    precision: Precision
    plan: SpMVPlan | None
    nrows: int
    ncols: int


def bind_spmv(
    mat: MBSRMatrix,
    precision: Precision = Precision.FP64,
    plan: SpMVPlan | None = None,
    *,
    allow_tensor_cores: bool = True,
    tc_threshold: float | None = None,
    storage_itemsize: int | None = None,
) -> SpMVBinding:
    """Resolve one operator's SpMV into a :class:`SpMVBinding`.

    This is the record-time half of the kernel tape: everything
    :func:`mbsr_spmv` re-derives or re-checks per call (argument
    validation, plan lookup, cache attribute walks, record construction,
    cost accounting) happens here exactly once.
    """
    cache = mat.cache
    if plan is None:
        plan = cache.spmv_plan(allow_tensor_cores, tc_threshold=tc_threshold)
    record = KernelRecord(kernel="spmv", backend="amgt", precision=precision)
    _account_spmv(record, mat, plan, precision, storage_itemsize)
    passes = cache.tile_passes(precision.np_dtype, precision.accum_dtype)

    def verify(x: np.ndarray, y: np.ndarray) -> None:
        from repro.check import oracle

        oracle.verify_spmv(mat, x, y, precision, plan)

    return SpMVBinding(_float64_run(passes, verify), record, precision, plan,
                       mat.nrows, mat.ncols)


def _float64_run(run_acc: Callable[[np.ndarray], np.ndarray],
                 verify: Callable[[np.ndarray, np.ndarray], None]):
    """A binding's float64 ``run`` over its accumulator-dtype core.

    The check gate is resolved here, once at bind time, exactly like the
    TC/CUDA dispatch: under an active checked region (or REPRO_CHECK)
    every call is verified against the differential oracle; otherwise the
    replay path carries zero check overhead.
    """
    def widened(x: np.ndarray) -> np.ndarray:
        y = run_acc(x)
        return y if y.dtype == np.float64 else y.astype(np.float64)

    if not check_runtime.is_active():
        return widened

    def run(x: np.ndarray) -> np.ndarray:
        y = run_acc(x)
        verify(x, y)
        return y if y.dtype == np.float64 else y.astype(np.float64)

    return run


# ----------------------------------------------------------------------
# Blocked SpMM: the multi-RHS panel twin of the SpMV above.
#
# The tensor-core economics of the paper hinge on arithmetic intensity:
# an mBSR tile loaded for one MMA is reused across every column of the
# RHS panel, so value/index traffic is charged once per tile while the
# MMA/flop count scales with the panel width.  The numeric contract is
# *per-column bit-identity* with the 1-RHS kernel, and it holds by
# construction: the panel runs the same :class:`TilePasses` as width 1,
# through scipy's multi-vector CSR product, whose per-column arithmetic
# is the single-vector product's.
# ----------------------------------------------------------------------

def _account_spmm(
    record: KernelRecord,
    mat: MBSRMatrix,
    plan: SpMVPlan,
    precision: Precision,
    width: int,
    storage_itemsize: int | None,
) -> None:
    """Fill *record* with the cost of one width-*width* SpMM on *mat*.

    Tile values, bitmaps and index structures are read once per panel
    (the amortisation the batched path exists for); MMA issues / scalar
    flops, the x-panel gather and the y-panel write scale with *width*.
    Like :func:`_account_spmv` the counters never depend on the operand,
    so tape bindings price the record once at bind time.
    """
    counters = record.counters
    acc_dtype = precision.accum_dtype
    nnz = mat.nnz
    itemsize = storage_itemsize or precision.itemsize
    if plan.use_tensor_cores:
        # Each loaded tile-pair issues one MMA per panel column: fragA is
        # loaded once, fragB cycles through the columns.
        counters.add_mma(precision, plan.mma_issues * width)
        counters.add_bytes(
            read=effective_value_bytes(mat.blc_num * TILE_SLOTS * itemsize, itemsize)
        )
    else:
        from repro.gpu.counters import (
            SCALAR_GATHER_OVERHEAD,
            SCALAR_PIPELINE_OVERHEAD,
        )

        counters.add_flops(precision, 2.0 * nnz * SCALAR_PIPELINE_OVERHEAD * width)
        value_bytes = min(
            float(nnz) * itemsize * SCALAR_GATHER_OVERHEAD,
            float(mat.blc_num) * TILE_SLOTS * itemsize,
        )
        counters.add_bytes(read=effective_value_bytes(value_bytes, itemsize))
    # Index structures + bitmaps once; x gather and y write per column.
    counters.add_bytes(
        read=mat.blc_num * (8 + 2) + (mat.mb + 1) * 8
        + effective_value_bytes(mat.blc_num * BLOCK_SIZE * itemsize, itemsize) * width,
        written=mat.nrows * max(acc_dtype().itemsize, itemsize) * width,
    )
    counters.imbalance = plan.imbalance
    counters.launches = 1
    record.detail = {
        "path": plan.kernel_path,
        "variation": plan.variation,
        "width": width,
    }


@dataclass
class SpMMBinding:
    """A fully-resolved, replayable blocked SpMM — the batched tape's
    plan handle.

    Layout: ``run(X)`` takes a **row panel** ``(width, ncols)`` — row j
    is right-hand side j, contiguous — and returns a fresh float64
    ``(width, nrows)`` panel whose row j is bit-identical to the width-1
    :class:`SpMVBinding` ``run`` applied to ``X[j]``.  The row-panel
    layout is the widened workspace's slot layout (each RHS stays
    contiguous for the per-column norms and reductions); the public
    ``(n, k)`` column-panel convention of :func:`mbsr_spmm` transposes
    at the boundary.

    ``run_acc`` is the accumulator-dtype inner core; ``record`` is the
    priced one-panel-call cost template (bytes once per tile, flops per
    column).  Like :class:`SpMVBinding` it holds no work buffers.
    """

    run: Callable[[np.ndarray], np.ndarray]
    run_acc: Callable[[np.ndarray], np.ndarray]
    record: KernelRecord
    precision: Precision
    plan: SpMVPlan | None
    nrows: int
    ncols: int
    width: int


def bind_spmm(
    mat: MBSRMatrix,
    width: int,
    precision: Precision = Precision.FP64,
    plan: SpMVPlan | None = None,
    *,
    allow_tensor_cores: bool = True,
    tc_threshold: float | None = None,
    storage_itemsize: int | None = None,
) -> SpMMBinding:
    """Resolve one operator's blocked SpMM into a :class:`SpMMBinding`.

    Same plan/dispatch machinery and the same :class:`TilePasses` as
    :func:`bind_spmv`; the row panel transposes to the ``(ncols, width)``
    column panel scipy's multi-vector product takes, and back.
    """
    if width < 1:
        raise ValueError(f"panel width must be >= 1, got {width}")
    cache = mat.cache
    if plan is None:
        plan = cache.spmv_plan(allow_tensor_cores, tc_threshold=tc_threshold)
    record = KernelRecord(kernel="spmm", backend="amgt", precision=precision)
    _account_spmm(record, mat, plan, precision, width, storage_itemsize)
    passes = cache.tile_passes(precision.np_dtype, precision.accum_dtype)

    def run_acc(x: np.ndarray) -> np.ndarray:
        """The panel replay core; returns (width, nrows) in the
        accumulator dtype, row j bit-identical to the width-1 core."""
        return np.ascontiguousarray(passes(x.T).T)

    def verify(x: np.ndarray, y: np.ndarray) -> None:
        from repro.check import oracle

        for j in range(width):
            oracle.verify_spmv(mat, x[j], y[j], precision, plan)

    return SpMMBinding(_float64_run(run_acc, verify), run_acc, record,
                       precision, plan, mat.nrows, mat.ncols, width)


def mbsr_spmm(
    mat: MBSRMatrix,
    x: np.ndarray,
    precision: Precision = Precision.FP64,
    plan: SpMVPlan | None = None,
    *,
    allow_tensor_cores: bool = True,
    tc_threshold: float | None = None,
    storage_itemsize: int | None = None,
) -> tuple[np.ndarray, KernelRecord]:
    """Compute ``Y = A @ X`` for an ``(ncols, k)`` RHS panel.

    The public column-panel convention: *x* has one right-hand side per
    column, and the returned ``Y`` is ``(nrows, k)`` in the accumulator
    dtype of *precision* — column j bit-identical to
    ``mbsr_spmv(mat, x[:, j], ...)``: both run the operator's memoised
    :class:`TilePasses`, this one through scipy's multi-vector product.
    Under an active check region every column is differentially verified
    against the width-1 kernel.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != mat.ncols:
        raise ValueError(
            f"x has shape {x.shape}, expected ({mat.ncols}, k) — one "
            f"right-hand side per column"
        )
    width = x.shape[1]
    cache = mat.cache
    if plan is None:
        plan = cache.spmv_plan(allow_tensor_cores, tc_threshold=tc_threshold)
    record = KernelRecord(kernel="spmm", backend="amgt", precision=precision)
    _account_spmm(record, mat, plan, precision, width, storage_itemsize)

    y = cache.tile_passes(precision.np_dtype, precision.accum_dtype)(x)
    assert y.dtype == np.dtype(precision.accum_dtype), (
        f"mbsr_spmm produced {y.dtype}, expected accumulator "
        f"{precision.accum_dtype}"
    )
    if check_runtime.is_active():
        # The batch path's differential oracle is the column loop itself:
        # each column must reproduce the 1-RHS kernel bit for bit (which
        # in turn verifies against the quantisation-exact reference).
        for j in range(width):
            y1, _ = mbsr_spmv(
                mat, x[:, j], precision, plan,
                allow_tensor_cores=allow_tensor_cores,
                tc_threshold=tc_threshold,
                storage_itemsize=storage_itemsize,
            )
            if not np.array_equal(y[:, j], y1, equal_nan=True):
                from repro.check import ContractViolation

                bad = int(np.flatnonzero(y[:, j] != y1)[0])
                raise ContractViolation(
                    "mbsr_spmm",
                    "spmm/column-differential",
                    f"panel column {j} diverges from the 1-RHS kernel "
                    f"(first mismatch at row {bad}: panel={y[bad, j]!r}, "
                    f"spmv={y1[bad]!r})",
                )
    if obs_trace.is_active():
        from repro.obs import metrics as obs_metrics

        obs_metrics.REGISTRY.counter(
            obs_names.SPMM_DISPATCH,
            core="tc" if plan.use_tensor_cores else "cuda",
            schedule="balanced" if plan.load_balanced else "row-warp",
            width=width,
        ).inc()
        obs_metrics.REGISTRY.histogram(
            obs_names.SPMV_TILE_POPCOUNT,
            buckets=obs_metrics.POP_BUCKETS,
            kernel="spmm",
        ).observe_counts(cache.pop_hist)
    return y, record
