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

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.check import runtime as check_runtime
from repro.formats.bitmap import BLOCK_SIZE, TC_NNZ_THRESHOLD, TILE_SLOTS
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import Precision, effective_value_bytes
from repro.kernels.cache import widened_tiles
from repro.kernels.record import KernelRecord

__all__ = [
    "WARP_CAPACITY",
    "VARIATION_THRESHOLD",
    "SpMVPlan",
    "SpMVBinding",
    "TilePasses",
    "build_spmv_plan",
    "bind_spmv",
    "mbsr_spmv",
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
# Host tile contraction: two CSR passes over the nonzero tile slots.
#
# The reference dataflow is a batched ``np.matmul(tiles, xblk[:, :, None])``
# (one BLAS gemv per 4x4 tile, ``(p_a + p_b) + (p_c + p_d)`` over the slot
# products of a tile row) followed by a sequential ``bincount`` of the
# per-tile contributions into block rows.  Like the CUDA-core kernel
# (Alg. 5), which walks each tile's bitmap, the host runs only the slots
# that hold a nonzero, as two scipy CSR products that round exactly like
# the dense dataflow:
#
# * *pass 1* has one row per tile row with two or three nonzero slots —
#   the full pair first when there are three — and two half-rows, one per
#   pair, for a tile row with all four; the halves are summed in place.
#   Identity rows pass the x entries through that single-slot tile rows
#   read.  scipy sums a row in stored order as ``((0 + p_0) + p_1) + ...``,
#   so each kept row reproduces gemv's association when ``(a, b | c, d)``
#   are the pairs it adds first (probed per accumulator dtype, see
#   :func:`slot_pairing`).
# * the *reduction* reads, per output row and in tile order, the pass-1
#   sum of each multi-slot tile row (coefficient 1) or ``t_j * x_j`` of a
#   single-slot one, starting from ``+0.0`` — ``bincount``'s (and the
#   float32 ragged sweep's) sequential rounding.  Empty tile rows drop out.
#
# For finite x a dropped slot contributes ``±0``, which can change only the
# sign of a zero partial sum; the reduction's ``+0.0`` start never holds
# ``-0`` and absorbs it.  An x that is non-finite after quantisation runs
# the dense matmul contraction instead, so ``0 * inf`` still gives NaN.
# scipy's multi-vector product runs the same per-column arithmetic, so a
# ``(ncols, k)`` panel goes through the identical code path.
# ----------------------------------------------------------------------

#: Candidate slot pairings ``(a, b, c, d)``: a tile row contracts as
#: ``(t_a x_a + t_b x_b) + (t_c x_c + t_d x_d)``.
_PAIRINGS = ((0, 2, 1, 3), (0, 1, 2, 3), (0, 3, 1, 2))

#: Probed pairing per accumulator dtype; ``None`` keeps the matmul
#: contraction (no candidate reproduces the BLAS build's gemv).
_SLOT_PAIRING: dict[np.dtype, tuple[int, ...] | None] = {}

#: Nonzero slots per 4-bit tile-row mask (bit s = slot s).
_MASK_POP = np.array([bin(m).count("1") for m in range(1 << BLOCK_SIZE)])

#: Multiplier moving the four 0/1 bytes of a tile row's nonzero flags, read
#: as one little-endian uint32, to bits 24..27 (the strays stay below 2**20).
_GATHER_FLAGS = np.uint32((1 << 24) | (1 << 17) | (1 << 10) | (1 << 3))


def _index_dtype(maxval: int) -> type:
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


@functools.cache
def _slot_order(pairing: tuple[int, ...]) -> np.ndarray:
    """Per 4-bit tile-row mask, its nonzero slots in pass-1 order: the
    pairing's order, except that a three-slot row leads with its full pair."""
    a, b = pairing[:2]
    table = np.zeros((1 << BLOCK_SIZE, BLOCK_SIZE), dtype=np.intp)
    for mask in range(1 << BLOCK_SIZE):
        slots = [s for s in pairing if mask >> s & 1]
        if len(slots) == 3 and not (mask >> a & 1 and mask >> b & 1):
            slots = slots[1:] + slots[:1]
        table[mask, : len(slots)] = slots
    table.setflags(write=False)
    return table


def _frozen_csr(data, indices, indptr, shape) -> sp.csr_array:
    """A CSR array over the given arrays (copied only where scipy must),
    with every array it ends up holding made read-only."""
    out = sp.csr_array((data, indices, indptr), shape=shape, copy=False)
    for arr in (out.data, out.indices, out.indptr):
        arr.setflags(write=False)
    return out


def _reduction_order(blc_ptr: np.ndarray, nrows: int):
    """Tile rows ``4t + i`` in reduction order — block row, then tile row
    ``i``, then tile ``t`` — cut at output row *nrows*, with the offset
    of every output row's first one (length ``nrows + 1``)."""
    counts = np.diff(blc_ptr)
    blc = int(blc_ptr[-1])
    comp = np.arange(BLOCK_SIZE)
    first = np.repeat(blc_ptr[:-1], counts)
    # Tile row (t, i) of a block row starting at tile f with n tiles sits
    # at 4f + i*n + (t - f).
    pos = (np.arange(blc) + 3 * first)[:, None] + comp * np.repeat(counts, counts)[:, None]
    order = np.empty(BLOCK_SIZE * blc, dtype=np.intp)
    order[pos.reshape(-1)] = np.arange(BLOCK_SIZE * blc)
    offsets = (BLOCK_SIZE * blc_ptr[:-1, None] + comp * counts[:, None]).reshape(-1)
    offsets = np.append(offsets, BLOCK_SIZE * blc)[: nrows + 1]
    return order[: offsets[-1]], offsets


def _reduce_pass(blc_ptr: np.ndarray, nrows: int, acc_dtype) -> sp.csr_array:
    """The dense route's ``(nrows, 4 * blc)`` 0/1 pass summing every tile's
    contributions in tile order."""
    order, offsets = _reduction_order(blc_ptr, nrows)
    idx_dtype = _index_dtype(BLOCK_SIZE * int(blc_ptr[-1]))
    return _frozen_csr(np.ones(order.shape[0], dtype=acc_dtype),
                       order.astype(idx_dtype), offsets.astype(idx_dtype),
                       (nrows, BLOCK_SIZE * int(blc_ptr[-1])))


def _compact_passes(tiles: np.ndarray, blc_ptr: np.ndarray,
                    blc_idx: np.ndarray, shape: tuple[int, int], pairing):
    """Pass 1, its number of full tile rows and the reduction over the
    widened *tiles* of an operator of *shape* (see the block comment).

    Pass-1 rows, and so the entries of its output z, are laid out as
    ``[full tops | full bottoms | two/three-slot rows | identity rows]``,
    each part in reduction order.
    """
    nrows, ncols = shape
    order, offsets = _reduction_order(blc_ptr, nrows)
    flat = tiles.reshape(-1)
    flags = (tiles.reshape(-1, BLOCK_SIZE) != 0).view("<u4")[:, 0]
    masks = (flags * _GATHER_FLAGS) >> 24
    kept = masks[order] != 0
    tile_row = order[kept]
    mask = masks[tile_row]
    nnz = _MASK_POP[mask]
    full, single = np.flatnonzero(nnz == BLOCK_SIZE), np.flatnonzero(nnz == 1)
    mid = np.flatnonzero((nnz == 2) | (nnz == 3))
    n4, n23 = full.shape[0], mid.shape[0]
    table = _slot_order(pairing)

    # Flat tile indices (16t + 4i + slot) of every pass-1 entry but the
    # identity rows', and the x entries single-slot tile rows read.
    a, b, c, d = pairing
    full4 = BLOCK_SIZE * tile_row[full, None]
    mid_slots, mid_nnz = table[mask[mid], :3], nnz[mid]
    in_mid = np.arange(3) < mid_nnz[:, None]
    entry = np.concatenate((
        (full4 + (a, b)).reshape(-1),
        (full4 + (c, d)).reshape(-1),
        (BLOCK_SIZE * tile_row[mid, None] + mid_slots)[in_mid],
    ))
    lone = BLOCK_SIZE * tile_row[single] + table[mask[single], 0]
    x_col = BLOCK_SIZE * blc_idx[lone >> 4] + (lone & 3)
    read = np.zeros(BLOCK_SIZE * -(-ncols // BLOCK_SIZE), dtype=bool)
    read[x_col] = True
    x_rows = np.flatnonzero(read)
    nz = 2 * n4 + n23 + x_rows.shape[0]
    idx_dtype = _index_dtype(max(nz, read.shape[0]))

    cols = np.concatenate((BLOCK_SIZE * blc_idx[entry >> 4] + (entry & 3),
                           x_rows)).astype(idx_dtype)
    data = np.concatenate((flat[entry], np.ones(x_rows.shape[0], flat.dtype)))
    lengths = np.concatenate((np.full(2 * n4, 2), mid_nnz,
                              np.ones(x_rows.shape[0], dtype=np.intp)))
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(idx_dtype)
    # The pass reads x unpadded unless a kept slot sits in a padding column.
    span = read.shape[0] if cols.size and cols.max() >= ncols else ncols
    pass1 = _frozen_csr(data, cols, indptr, (nz, span))

    # Reduction: one entry per kept tile row, in reduction order.
    z_col = np.empty(tile_row.shape[0], dtype=idx_dtype)
    z_col[full] = np.arange(n4)
    z_col[mid] = np.arange(2 * n4, 2 * n4 + n23)
    z_col[single] = 2 * n4 + n23 + (np.cumsum(read) - 1)[x_col]
    coef = np.ones(tile_row.shape[0], dtype=flat.dtype)
    coef[single] = flat[lone]
    red_ptr = np.concatenate(([0], np.cumsum(kept)))[offsets]
    reduce = _frozen_csr(coef, z_col, red_ptr.astype(idx_dtype), (nrows, nz))
    return pass1, n4, reduce


def _contract(pass1: sp.csr_array, full_rows: int, reduce: sp.csr_array,
              xp: np.ndarray) -> np.ndarray:
    """The compact contraction of a 1-D or ``(ncols, k)`` accumulator-dtype
    x: pass 1, the in-place sum of the full rows' halves, the reduction."""
    z = pass1 @ _padded(xp, pass1.shape[1])
    if full_rows:
        top = z[:full_rows]
        np.add(top, z[full_rows: 2 * full_rows], out=top)
    return reduce @ z


def _padded(xp: np.ndarray, n: int) -> np.ndarray:
    """*xp* extended with zero rows to *n* rows (no copy when it has them)."""
    if xp.shape[0] == n:
        return xp
    out = np.zeros((n,) + xp.shape[1:], dtype=xp.dtype)
    out[: xp.shape[0]] = xp
    return out


def _probe_pairing(acc_dtype: np.dtype) -> tuple[int, ...] | None:
    """Find the slot pairing whose compact contraction matches
    ``np.matmul``'s ``(4, 4) @ (4, 1)`` bit for bit, width 1 and panel,
    on tiles with every count of nonzero slots per row."""
    rng = np.random.default_rng(0x5EED)
    blc, width = 256, 3

    def draw(shape):
        scale = np.exp2(rng.integers(-12, 13, size=shape))
        return (rng.standard_normal(shape) * scale).astype(acc_dtype)

    tiles, x = draw((blc, BLOCK_SIZE, BLOCK_SIZE)), draw((blc * BLOCK_SIZE, width))
    tiles[rng.random(tiles.shape) < 0.3] = 0
    ref = [
        np.matmul(tiles, np.ascontiguousarray(x[:, j]).reshape(blc, -1, 1))
        .reshape(-1)
        for j in range(width)
    ]
    one_tile_rows = np.arange(blc + 1)

    def matches(pairing) -> bool:
        passes = _compact_passes(tiles, one_tile_rows, one_tile_rows[:-1],
                                 (blc * BLOCK_SIZE,) * 2, pairing)
        panel = _contract(*passes, x)
        return all(
            np.array_equal(_contract(*passes, np.ascontiguousarray(x[:, j])), r)
            and np.array_equal(panel[:, j], r)
            for j, r in enumerate(ref)
        )

    for pairing in _PAIRINGS:
        # lint: disable=R5 -- runs once per accumulator dtype per process
        if matches(pairing):
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
    dataflow.  A finite x runs the compact passes (``pass1``, its
    ``full_rows`` half-row pairs, ``reduce``); an x that is non-finite
    after quantisation, or every x when no slot pairing reproduces the
    host's matmul (``pairing is None``), runs the dense route: that
    matmul itself, then an all-ones reduction over every tile.

    Holds only arrays, never the matrix, so the operator cache storing it
    creates no reference cycle; the dense route is built from them on
    first use (``dense``).  Scratch is allocated per call, so the object
    is safe to share across bindings.
    """

    __slots__ = ("in_dtype", "acc_dtype", "nrows", "padded",
                 "pairing", "pass1", "full_rows", "reduce",
                 "vals", "blc_ptr", "blc_idx", "dense")

    pass1: sp.csr_array | None
    reduce: sp.csr_array | None
    dense: tuple[np.ndarray, sp.csr_array] | None

    def __init__(self, mat: MBSRMatrix, tiles: np.ndarray, in_dtype,
                 acc_dtype, pairing: tuple[int, ...] | None) -> None:
        self.in_dtype = np.dtype(in_dtype)
        self.acc_dtype = np.dtype(acc_dtype)
        self.nrows = mat.nrows
        self.padded = mat.nb * BLOCK_SIZE
        self.pairing = pairing
        self.vals = mat.blc_val.view()
        self.vals.setflags(write=False)
        self.blc_ptr, self.blc_idx = mat.blc_ptr, mat.blc_idx
        self.dense = None
        if pairing is None:
            self.pass1 = self.reduce = None
            self.full_rows = 0
        else:
            self.pass1, self.full_rows, self.reduce = _compact_passes(
                tiles, mat.blc_ptr, mat.blc_idx, mat.shape, pairing)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        xp = x.astype(self.in_dtype, copy=False).astype(self.acc_dtype,
                                                        copy=False)
        # A finite sum proves every entry finite; one that overflows only
        # sends a finite x down the (bit-identical) dense route.
        if self.pass1 is not None and np.isfinite(xp.sum()):
            return _contract(self.pass1, self.full_rows, self.reduce, xp)
        tiles, reduce = self.dense_passes()
        xblk = _padded(xp, self.padded).reshape(
            (-1, BLOCK_SIZE) + xp.shape[1:])[self.blc_idx]
        if xp.ndim == 1:
            return reduce @ np.matmul(tiles, xblk[:, :, None]).reshape(-1)
        # (k, blc, 4, 1): the broadcast keeps the width-1 gufunc core per
        # column, so each column rounds as its width-1 call would.
        x4 = np.ascontiguousarray(np.moveaxis(xblk, 2, 0))[..., None]
        return reduce @ np.matmul(tiles[None], x4).reshape(x4.shape[0], -1).T

    def dense_passes(self) -> tuple[np.ndarray, sp.csr_array]:
        """The dense route's widened tiles and all-ones reduction pass,
        built on first use."""
        if self.dense is None:
            tiles = widened_tiles(self.vals, self.in_dtype, self.acc_dtype)
            tiles.setflags(write=False)
            self.dense = (tiles, _reduce_pass(self.blc_ptr, self.nrows,
                                              self.acc_dtype))
        return self.dense


def _account_spmv(
    record: KernelRecord,
    mat: MBSRMatrix,
    plan: SpMVPlan,
    precision: Precision,
    storage_itemsize: int | None,
    width: int = 1,
) -> None:
    """Fill *record* with the cost of one SpMV on *mat* under *plan*, over
    a panel of *width* right-hand sides (1 = a single vector).

    Tile values, bitmaps and index structures are read once per call —
    the amortisation a panel exists for; MMA issues / scalar flops, the x
    gather and the y write scale with *width*.  The counters depend only
    on the operator, the plan, the precision and the width — never on
    ``x`` — which is what lets a tape binding price its record once at
    bind time and replay it per call.  ``detail['pop_hist']`` carries the
    operator's tile-popcount histogram for the metrics fold.
    """
    counters = record.counters
    acc_dtype = precision.accum_dtype
    nnz = mat.nnz
    itemsize = storage_itemsize or precision.itemsize
    if plan.use_tensor_cores:
        # Each loaded tile pair issues one MMA per panel column: fragA is
        # loaded once, fragB (the replicated x slices) cycles through the
        # columns.
        counters.add_mma(precision, plan.mma_issues * width)
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
        "pop_hist": mat.cache.pop_hist,
    }


def _new_record(precision: Precision, width: int) -> KernelRecord:
    """An unpriced SpMV record: ``spmv`` for one vector, ``spmm`` for a
    panel of several."""
    kernel = "spmv" if width == 1 else "spmm"
    return KernelRecord(kernel=kernel, backend="amgt", precision=precision)


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

    *x* is an ``(ncols,)`` vector or an ``(ncols, k)`` panel with one
    right-hand side per column; ``y`` comes back in the same layout, in
    the accumulator dtype of *precision*, with the kernel record.  Panel
    column j is bit-identical to the vector call on ``x[:, j]``: both run
    the operator's memoised :class:`TilePasses`, the panel through
    scipy's multi-vector product.  Pass a prebuilt *plan* to skip
    preprocessing on repeated calls; without one, the memoised
    per-operator plan is built with the caller's *tc_threshold*
    (``None`` = the paper's ``TC_NNZ_THRESHOLD``).  ``storage_itemsize``
    overrides the per-value byte size charged for memory traffic:
    devices whose low-precision path computes in reduced precision but
    keeps FP64-resident data (the MI210 configuration of Sec. V.F) pass 8
    here, which is what makes mixed precision a wash there.
    """
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[0] != mat.ncols:
        raise ValueError(
            f"x has shape {x.shape}, expected ({mat.ncols},) or "
            f"({mat.ncols}, k) — one right-hand side per column"
        )
    width = 1 if x.ndim == 1 else x.shape[1]
    cache = mat.cache
    if plan is None:
        plan = cache.spmv_plan(allow_tensor_cores, tc_threshold=tc_threshold)

    record = _new_record(precision, width)
    acc_dtype = precision.accum_dtype
    # Tile products then the row reduction, as in both device kernels,
    # with the precision semantics of the selected core type; the tile
    # values are quantised-and-widened once per operator, not per call.
    y = cache.tile_passes(precision.np_dtype, acc_dtype)(x)
    _account_spmv(record, mat, plan, precision, storage_itemsize, width)
    # Output-dtype pin: mixed-precision callers must get the accumulator
    # dtype back, or they silently lose (or fabricate) precision downstream.
    assert y.dtype == acc_dtype, (
        f"mbsr_spmv produced {y.dtype}, expected accumulator {acc_dtype}"
    )
    if check_runtime.is_active():
        _verify_rows(mat, precision, plan, x.T, y.T)
    return y, record


def _verify_rows(mat, precision, plan, x: np.ndarray, y: np.ndarray) -> None:
    """Check every right-hand side of a vector (1-D) or row-panel call
    against the quantisation-exact reference."""
    from repro.check import oracle

    for xj, yj in zip(np.atleast_2d(x), np.atleast_2d(y)):
        oracle.verify_spmv(mat, xj, yj, precision, plan)


@dataclass
class SpMVBinding:
    """A fully-resolved, replayable SpMV — the tape's plan handle.

    ``run(x)`` takes an ``(ncols,)`` vector or a ``(width, ncols)`` **row
    panel** (row j is right-hand side j, the tape workspace's slot
    layout) and returns a fresh float64 result in the same layout, row j
    bit-identical to the vector call on ``x[j]``.  For an mBSR operator
    (:func:`bind_spmv`) every per-call decision is already taken: the
    TC/CUDA plan, the operator's :class:`TilePasses` at this precision
    and the check gate are captured at bind time, so a replay is just the
    two CSR passes.  The layout is chosen by the input's shape: a vector,
    or a one-row panel through its row view, runs the single-vector
    product; a wider panel transposes to the ``(ncols, width)`` column
    panel scipy's multi-vector product takes, and back.  Scratch is
    allocated per call and the captured state is immutable, so bindings
    hold no buffers.

    ``record`` is the unpriced cost template of one call at the bound
    width — identical counters to the record :func:`mbsr_spmv` would
    produce, built once because the accounting never depends on ``x`` —
    or ``None`` for a wrapped host closure.  Callers that charge replays
    stamp/price it once and append it per call.
    """

    run: Callable[[np.ndarray], np.ndarray]
    record: KernelRecord | None


def bind_spmv(
    mat: MBSRMatrix,
    precision: Precision = Precision.FP64,
    plan: SpMVPlan | None = None,
    *,
    width: int = 1,
    allow_tensor_cores: bool = True,
    tc_threshold: float | None = None,
    storage_itemsize: int | None = None,
) -> SpMVBinding:
    """Resolve one operator's SpMV over *width* right-hand sides into a
    :class:`SpMVBinding`.

    This is the record-time half of the kernel tape: everything
    :func:`mbsr_spmv` re-derives or re-checks per call (argument
    validation, plan lookup, cache attribute walks, record construction,
    cost accounting) happens here exactly once.
    """
    if width < 1:
        raise ValueError(f"panel width must be >= 1, got {width}")
    cache = mat.cache
    if plan is None:
        plan = cache.spmv_plan(allow_tensor_cores, tc_threshold=tc_threshold)
    record = _new_record(precision, width)
    _account_spmv(record, mat, plan, precision, storage_itemsize, width)
    passes = cache.tile_passes(precision.np_dtype, precision.accum_dtype)

    def run_acc(x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return passes(x)
        if x.shape[0] == 1:
            return passes(x[0])[None]
        return np.ascontiguousarray(passes(x.T).T)

    def verify(x: np.ndarray, y: np.ndarray) -> None:
        _verify_rows(mat, precision, plan, x, y)

    return SpMVBinding(_float64_run(run_acc, verify), record)


def _float64_run(run_acc: Callable[[np.ndarray], np.ndarray],
                 verify: Callable[[np.ndarray, np.ndarray], None]):
    """A binding's float64 ``run`` over its accumulator-dtype core.

    The check gate is resolved here, once at bind time, exactly like the
    TC/CUDA dispatch: under an active checked region (or REPRO_CHECK)
    every call is verified against the differential oracle; otherwise the
    replay path carries zero check overhead.  Memoised bindings therefore
    key on the gate (see :meth:`repro.kernels.cache.OperatorCache.\
spmv_binding`).
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
