"""SpGEMM step 3: hybrid numeric phase (Alg. 4, Fig. 4).

A warp owns one block-row of C and walks the tiles of A in that row.  The
bitmap popcount of each A-tile selects the execution mode:

* ``popcount >= 10`` — **tensor-core mode** (warp level).  The A-tile is
  replicated into both 4-row halves of ``fragA`` (8x4); pairs of *valid*
  B-tiles (bitmap product nonzero) are packed side by side into ``fragB``
  (4x8); one ``mma.m8n8k4`` computes both tile products at once, the top
  half of the 8x8 accumulator holds ``[tileA@tileB1 | tileA@tileB2]`` and is
  extracted with shuffles.  A trailing unpaired B-tile still costs a full
  MMA issue (half the fragment is wasted) — the cost model reflects that.
* ``popcount < 10`` — **CUDA-core mode** (thread level).  One thread
  multiplies the tile pair scalar-by-scalar, walking the bitmap bits.

Both modes locate the output tile by binary-searching the B-tile's column in
the block-row segment of ``BlcIdxC``, OR the bitmap product into ``BlcMapC``
and accumulate values into ``BlcValC``.  On the host the symbolic phase has
already done both structural steps: it stores the pairs in output-tile
order with a per-tile pair pointer and hands over ``BlcMapC``.  The numeric
phase is gather -> batched 4x4 ``np.matmul`` -> one in-order segmented sum
over the pointer (:func:`repro.util.segops.segment_sum_ptr`), for cold
products and every plan replay alike; the cost model still charges the
search and the OR per pair.  ``np.matmul`` stays the tile contraction
because it is the host's reference rounding: each entry is a sequential
FMA chain on the OpenBLAS build, which no elementwise numpy form
reproduces.

The numeric results of the two modes are identical in exact arithmetic; in
low precision the tensor-core mode accumulates FP16 products in FP32,
which :func:`repro.gpu.mma.mma_884` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.bitmap import TC_NNZ_THRESHOLD, bitmap_scalar_mul_flops
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import KernelCounters, Precision
from repro.kernels.spgemm_symbolic import SymbolicResult
from repro.util.segops import segment_sum_ptr

__all__ = ["NumericResult", "numeric_spgemm"]


@dataclass
class NumericResult:
    """Values and bitmaps of C plus the work accounting."""

    blc_val_c: np.ndarray
    blc_map_c: np.ndarray
    counters: KernelCounters
    #: Pairs handled by each mode, for path-selection diagnostics.
    tc_pairs: int
    cuda_pairs: int


def numeric_spgemm(
    mat_a: MBSRMatrix,
    mat_b: MBSRMatrix,
    symbolic: SymbolicResult,
    precision: Precision = Precision.FP64,
    tc_threshold: int = TC_NNZ_THRESHOLD,
    storage_itemsize: int | None = None,
    *,
    priced: dict | None = None,
) -> NumericResult:
    """Compute ``BlcValC`` / ``BlcMapC`` for the structure found symbolically.

    The cost accounting depends only on the operand patterns, the pairs
    and the pricing knobs, so a full-plan replay passes its plan's
    *priced* memo (:attr:`repro.kernels.spgemm.SpGEMMPlan.priced`) and
    prices once per ``(precision, tc_threshold, storage_itemsize)``; a
    row-restricted replay passes none and prices every call.
    """
    blc_num_c = symbolic.blc_num_c
    acc_dtype = precision.accum_dtype
    in_dtype = precision.np_dtype

    pair_a, pair_b = symbolic.pair_a, symbolic.pair_b
    if pair_a.shape[0] == 0:
        counters = KernelCounters()
        counters.launches = 1
        return NumericResult(
            np.zeros((blc_num_c, 4, 4), dtype=acc_dtype),
            symbolic.blc_map_c,
            counters,
            0,
            0,
        )

    # --- numeric work, both modes ------------------------------------
    # The value math is the same tile product either way; precision
    # semantics follow the chosen mode's hardware (TC: low-precision
    # multiply, FP32+ accumulate; CUDA: scalar ops at input precision with
    # the same accumulate dtype).  The operand tiles come quantised and
    # widened from the per-operator caches (one cast per matrix), and the
    # batched 4x4 products run through matmul so no contraction path is
    # re-searched per call.
    tiles_a = np.take(mat_a.cache.tiles(in_dtype, acc_dtype), pair_a, axis=0)
    tiles_b = np.take(mat_b.cache.tiles(in_dtype, acc_dtype), pair_b, axis=0)
    prod = np.matmul(tiles_a, tiles_b)
    # The pairs arrive in output-tile order, traversal order within a
    # tile: one in-order sum per tile is the sequential accumulation.
    blc_val_c = segment_sum_ptr(prod, symbolic.pair_ptr)

    key = (precision, tc_threshold, storage_itemsize)
    cost = None if priced is None else priced.get(key)
    if cost is None:
        cost = _price_numeric(mat_a, mat_b, symbolic, precision, tc_threshold,
                              storage_itemsize)
        if priced is not None:
            priced[key] = cost
    counters, tc_pairs, cuda_pairs = cost
    return NumericResult(blc_val_c, symbolic.blc_map_c, counters.copy(),
                         tc_pairs, cuda_pairs)


def _price_numeric(
    mat_a: MBSRMatrix,
    mat_b: MBSRMatrix,
    symbolic: SymbolicResult,
    precision: Precision,
    tc_threshold: int,
    storage_itemsize: int | None,
) -> tuple[KernelCounters, int, int]:
    """The numeric phase's counters and its TC / CUDA pair split."""
    counters = KernelCounters()
    pair_a, pair_b = symbolic.pair_a, symbolic.pair_b
    acc_dtype = precision.accum_dtype
    # Mode selection by the A-tile popcount (Alg. 4 line 3); the per-tile
    # popcounts are cached on the operand and reused across products.
    pop_a = mat_a.pop_per_tile[pair_a]
    tc_mask = pop_a >= tc_threshold

    # Tensor-core mode: per A-tile, the valid B-tiles are consumed two per
    # MMA issue; an odd count wastes half an issue.
    from repro.gpu.counters import effective_value_bytes

    itemsize = storage_itemsize or precision.itemsize
    acc_itemsize = max(acc_dtype().itemsize, itemsize)
    tc_pairs = int(tc_mask.sum())
    if tc_pairs:
        valid_per_a = np.bincount(pair_a[tc_mask], minlength=mat_a.blc_num)
        issues = int(np.sum((valid_per_a + 1) // 2))
        counters.add_mma(precision, issues)
        # fragment loads/stores: fragA 8x4, fragB 4x8, result extraction 4x8
        counters.add_bytes(
            read=effective_value_bytes(tc_pairs * (16 + 16) * itemsize, itemsize),
            written=tc_pairs * 16 * acc_itemsize,
        )
    # CUDA-core mode: exact scalar multiply-add count from the bitmaps,
    # charged with the thread-level pipeline overhead (bit tests, index
    # arithmetic, divergence) that the MMA path amortises away.
    cuda_pairs = int((~tc_mask).sum())
    if cuda_pairs:
        from repro.gpu.counters import (
            SCALAR_GATHER_OVERHEAD,
            SCALAR_PIPELINE_OVERHEAD,
        )

        muls = bitmap_scalar_mul_flops(
            mat_a.blc_map[pair_a[~tc_mask]], mat_b.blc_map[pair_b[~tc_mask]]
        )
        counters.add_flops(
            precision, 2.0 * float(muls.sum()) * SCALAR_PIPELINE_OVERHEAD
        )
        # Per-pair value gathers cost ~2x their raw bytes (sector
        # granularity), capped at streaming both whole tiles.
        nz_pair = (
            pop_a[~tc_mask] + mat_b.pop_per_tile[pair_b[~tc_mask]]
        ).astype(np.float64)
        gather_bytes = float(
            np.minimum(nz_pair * SCALAR_GATHER_OVERHEAD, 32.0).sum()
        ) * itemsize
        counters.add_bytes(
            read=effective_value_bytes(gather_bytes, itemsize),
            written=cuda_pairs * 16 * acc_itemsize,
        )
    # Binary search + bitmap OR per pair (integer work).
    n_pairs = pair_a.shape[0]
    counters.add_flops(Precision.FP32, 8.0 * n_pairs)
    counters.launches = 1
    return counters, tc_pairs, cuda_pairs
