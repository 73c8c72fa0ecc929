"""16-bit bitmaps describing the nonzero pattern of a 4x4 tile.

mBSR (Sec. IV.B of the paper) stores, for every 4x4 tile, one ``unsigned
short`` whose bit ``r * 4 + c`` is set iff slot ``(r, c)`` of the tile holds
a nonzero.  Three bitmap operations drive the AmgT kernels:

* **popcount** — number of nonzeros in a tile; the SpGEMM/SpMV hybrid paths
  compare it against the tensor-core threshold (10).
* **bitmap multiplication** (``BITMAPMULTIPLY`` in Alg. 3/4) — the boolean
  4x4 matrix product of two bitmaps; a zero result proves that the numeric
  tile product contributes nothing, so the pair can be skipped in both the
  symbolic and numeric phases.
* **transpose** — needed when building the restriction operator R = P^T
  directly in mBSR form.

All operations are vectorised over arrays of bitmaps; the scalar semantics
(on which the hypothesis tests are anchored) are simply the corresponding
dense boolean matrix operations via :func:`bitmap_to_mask`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK_SIZE",
    "TILE_SLOTS",
    "TC_NNZ_THRESHOLD",
    "bitmap_from_dense",
    "bitmap_to_mask",
    "bitmap_popcount",
    "bitmap_multiply",
    "bitmap_transpose",
    "bitmap_scalar_mul_flops",
]

#: Tile edge length.  Fixed at 4 so that tensor-core fragment shapes
#: (multiples of 4 on every dimension) can be pieced together from tiles.
BLOCK_SIZE = 4

#: Slots per tile (``BLOCK_SIZE ** 2``); the unit of dense tile traffic in
#: the kernels' byte accounting.
TILE_SLOTS = BLOCK_SIZE * BLOCK_SIZE

#: Tiles whose popcount reaches this threshold take the tensor-core path in
#: both SpGEMM (Alg. 4 line 3) and SpMV (Sec. IV.D.1).
TC_NNZ_THRESHOLD = 10

_BITS = TILE_SLOTS

# Row r of the tile occupies bits [4r, 4r+4); precompute the masks.
_ROW_MASKS = np.array([0xF << (BLOCK_SIZE * r) for r in range(BLOCK_SIZE)], dtype=np.uint32)

# 8-bit popcount lookup table; a uint16 popcount is two lookups.
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def bitmap_from_dense(tiles: np.ndarray) -> np.ndarray:
    """Build bitmaps from dense tiles.

    Parameters
    ----------
    tiles:
        Array of shape ``(..., 4, 4)``; any nonzero entry sets the
        corresponding bit.

    Returns
    -------
    np.ndarray
        ``uint16`` array of shape ``(...)``.
    """
    tiles = np.asarray(tiles)
    if tiles.shape[-2:] != (BLOCK_SIZE, BLOCK_SIZE):
        raise ValueError(f"tiles must end in shape (4, 4), got {tiles.shape}")
    flat = tiles.reshape(*tiles.shape[:-2], _BITS)
    weights = (1 << np.arange(_BITS, dtype=np.uint32)).astype(np.uint32)
    bits = (flat != 0).astype(np.uint32)
    return (bits @ weights).astype(np.uint16)


def bitmap_to_mask(bitmaps: np.ndarray) -> np.ndarray:
    """Expand bitmaps to boolean masks of shape ``(..., 4, 4)``."""
    bm = np.asarray(bitmaps, dtype=np.uint32)
    shifts = np.arange(_BITS, dtype=np.uint32)
    bits = (bm[..., None] >> shifts) & 1
    return bits.astype(bool).reshape(*bm.shape, BLOCK_SIZE, BLOCK_SIZE)


def bitmap_popcount(bitmaps: np.ndarray) -> np.ndarray:
    """Number of set bits per bitmap (nonzeros per tile)."""
    bm = np.asarray(bitmaps, dtype=np.uint16)
    lo = _POPCNT8[bm & 0xFF]
    hi = _POPCNT8[(bm >> 8) & 0xFF]
    return (lo + hi).astype(np.int64)


def bitmap_multiply(map_a: np.ndarray, map_b: np.ndarray) -> np.ndarray:
    """Boolean 4x4 tile product of two bitmap arrays (``BITMAPMULTIPLY``).

    ``C[i, j] = OR_k (A[i, k] AND B[k, j])``.  One pass per inner index
    ``k``: column ``k`` of A, masked to bit 0 of every row nibble
    (``(a >> k) & 0x1111``), times row ``k`` of B (a nibble) places that
    row in every row of C whose A bit is set.  The nibbles are disjoint,
    so the product never carries and equals the OR a warp would compute.
    """
    a = np.asarray(map_a, dtype=np.uint16)
    b = np.asarray(map_b, dtype=np.uint16)
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape, dtype=np.uint16)
    for k in range(BLOCK_SIZE):
        col_k = (a >> np.uint16(k)) & np.uint16(0x1111)
        row_k = (b >> np.uint16(BLOCK_SIZE * k)) & np.uint16(0xF)
        out |= col_k * row_k
    return out


def bitmap_transpose(bitmaps: np.ndarray) -> np.ndarray:
    """Transpose each tile pattern: bit ``(r, c)`` moves to ``(c, r)``."""
    bm = np.asarray(bitmaps, dtype=np.uint32)
    out = np.zeros(bm.shape, dtype=np.uint32)
    for r in range(BLOCK_SIZE):
        for c in range(BLOCK_SIZE):
            src = BLOCK_SIZE * r + c
            dst = BLOCK_SIZE * c + r
            out |= ((bm >> np.uint32(src)) & np.uint32(1)) << np.uint32(dst)
    return out.astype(np.uint16)


def bitmap_scalar_mul_flops(map_a: np.ndarray, map_b: np.ndarray) -> np.ndarray:
    """Exact multiply-add count of the scalar (CUDA-core) tile product.

    For the thread-level path of Alg. 4 the work is the number of
    ``A[i, k] * B[k, j]`` products with both operands nonzero:
    ``sum_k popcount(col_k(A)) * popcount(row_k(B))`` — each product is one
    FMA, i.e. 2 flops.  Returns the number of multiply-adds (not flops).
    """
    a = np.asarray(map_a).astype(np.uint16, copy=False)
    b = np.asarray(map_b).astype(np.uint16, copy=False)
    a, b = np.broadcast_arrays(a, b)
    # At most 4 * 4 per column, 64 in all: uint8 accumulates exactly.
    total = np.zeros(a.shape, dtype=np.uint8)
    for k in range(BLOCK_SIZE):
        # Column k of A is bits k, k+4, k+8, k+12; multiplying by 0x1111
        # sums them into the top nibble (the lower nibbles hold partial
        # sums <= 3, so nothing carries into it; what spills past bit 15
        # wraps away by design).
        with np.errstate(over="ignore"):
            col_k = (
                ((a >> np.uint16(k)) & np.uint16(0x1111)) * np.uint16(0x1111)
            ) >> np.uint16(12)
        row_k = (b >> np.uint16(BLOCK_SIZE * k)) & np.uint16(0xF)
        total += col_k.astype(np.uint8) * _POPCNT8[row_k]
    return total.astype(np.int64)
