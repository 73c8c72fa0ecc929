"""SpGEMM step 2: two-step hash-based symbolic phase (Alg. 3).

For every block-row of C a hash table (sized by the row's bin) collects the
block-column indices produced by the row.  A candidate tile (i, j) exists
when some tile (i, k) of A meets a tile (k, j) of B *and* the bitmap product
of the two tiles is nonzero — the bitmap test prunes pairs whose numeric
product would be structurally zero, which plain BSR cannot do.

* **Step 1** counts distinct surviving column indices per block-row; a
  prefix sum over the counts yields ``BlcPtrC`` and the total tile count,
  which sizes the allocations of ``BlcIdxC`` / ``BlcMapC`` / ``BlcValC``.
* **Step 2** re-runs the hash inserts, compresses and sorts each table, and
  writes ``BlcIdxC``.

The host runs both steps from one ordering: the surviving pairs are sorted
once, stably, by their output tile ``(block_row, block_col)``
(:func:`repro.util.hashing.distinct_per_segment`, whose scalar
:class:`~repro.util.hashing.HashTable` is the executable specification it
is tested against).  That one ordering yields ``BlcPtrC`` and ``BlcIdxC``,
``BlcMapC`` (an OR over each tile's pairs) and the pairs themselves, stored
in output-tile order with a per-tile pair pointer — so the numeric phase
reduces each tile's pairs in place, with no sort and no search.  Within a
tile the pairs keep the row-wise traversal order, which fixes the
accumulation order of every output value.  The cost model still charges
two launches, one per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.bitmap import bitmap_multiply
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import KernelCounters, Precision
from repro.kernels.spgemm_analysis import AnalysisResult
from repro.util.hashing import distinct_per_segment
from repro.util.prefix_sum import counts_to_ptr

__all__ = ["SymbolicResult", "expand_candidate_pairs", "symbolic_spgemm"]


@dataclass
class SymbolicResult:
    """Structure of C plus its surviving candidate pairs in output order.

    The numeric phase re-uses the pair lists (``pair_a``, ``pair_b``), the
    pair pointer and ``blc_map_c`` instead of re-deriving them, mirroring
    how the GPU kernel keeps the hash tables of step 2 around for the
    numeric pass.
    Pairs ``pair_ptr[t]:pair_ptr[t + 1]`` all land on output tile ``t``,
    in the order the row-wise traversal visits them; every tile has at
    least one pair.
    """

    blc_ptr_c: np.ndarray
    blc_idx_c: np.ndarray
    #: Bitmap of every output tile: the OR of its pairs' bitmap products.
    blc_map_c: np.ndarray
    #: Index into A's tile arrays per surviving candidate pair.
    pair_a: np.ndarray
    #: Index into B's tile arrays per surviving candidate pair.
    pair_b: np.ndarray
    #: Per-tile pair pointer (length ``blc_num_c + 1``).
    pair_ptr: np.ndarray
    counters: KernelCounters

    @property
    def blc_num_c(self) -> int:
        return int(self.blc_ptr_c[-1])

    @property
    def row_pair_ptr(self) -> np.ndarray:
        """Per-block-row pair pointer: block-row ``i``'s pairs are
        ``row_pair_ptr[i]:row_pair_ptr[i + 1]``."""
        return self.pair_ptr[self.blc_ptr_c]

    def freeze(self) -> "SymbolicResult":
        """Make every array read-only (plans are shared by replays and
        their outputs alias ``blc_ptr_c`` / ``blc_idx_c`` / ``blc_map_c``);
        returns self."""
        for arr in (self.blc_ptr_c, self.blc_idx_c, self.blc_map_c,
                    self.pair_a, self.pair_b, self.pair_ptr):
            arr.setflags(write=False)
        return self


def expand_candidate_pairs(
    mat_a: MBSRMatrix, mat_b: MBSRMatrix, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (tileA, tileB) index pairs visited by the row-wise traversal.

    Returns ``(pair_a, pair_b, pair_row)``: for each tile ``p`` of A with
    block-column ``k``, every tile of B's block-row ``k`` forms a pair, and
    the pair lands in the block-row of C that owns tile ``p``.

    ``rows`` (sorted block-row ids of A) restricts the traversal to those
    block-rows — the dirty-row replay of the incremental setup patcher.
    ``pair_a`` / ``pair_b`` still index the *full* operand tile arrays
    (the restriction selects rows, it does not renumber tiles), while
    ``pair_row`` becomes the compact position within ``rows``.  Within
    every selected block-row the pair order is identical to the full
    traversal, which is what makes a row-restricted numeric phase
    bit-identical to the corresponding rows of the full product.
    """
    if rows is None:
        tiles = np.arange(mat_a.blc_num, dtype=np.int64)
        row_of_tile = mat_a.block_row_ids()
    else:
        rows = np.asarray(rows, dtype=np.int64)
        tile_counts = mat_a.blc_ptr[rows + 1] - mat_a.blc_ptr[rows]
        total_tiles = int(tile_counts.sum())
        tile_starts = counts_to_ptr(tile_counts)[:-1]
        tiles = (
            np.repeat(mat_a.blc_ptr[rows], tile_counts)
            + np.arange(total_tiles, dtype=np.int64)
            - np.repeat(tile_starts, tile_counts)
        )
        row_of_tile = np.repeat(
            np.arange(rows.shape[0], dtype=np.int64), tile_counts
        )
    colA = mat_a.blc_idx[tiles]
    b_counts = np.diff(mat_b.blc_ptr)
    per_tile = b_counts[colA]
    pair_a = np.repeat(tiles, per_tile)
    total = int(per_tile.sum())
    # Within-pair offsets: ranges [0, per_tile[t]) concatenated.
    starts = counts_to_ptr(per_tile)[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, per_tile)
    pair_b = np.repeat(mat_b.blc_ptr[colA], per_tile) + within
    pair_row = np.repeat(row_of_tile, per_tile)
    return pair_a, pair_b, pair_row


def symbolic_spgemm(
    mat_a: MBSRMatrix,
    mat_b: MBSRMatrix,
    analysis: AnalysisResult | None,
    rows: np.ndarray | None = None,
) -> SymbolicResult:
    """Run the two-step symbolic phase; returns the structure of C.

    With ``rows`` (sorted block-row ids of A) the result describes only
    those block-rows of C, compacted: ``blc_ptr_c`` has ``len(rows) + 1``
    entries, while the pair lists keep indexing the full operand tile
    arrays.  Each selected block-row's structure and pair order are
    bit-identical to the same block-row of the unrestricted result.
    """
    counters = KernelCounters()
    pair_a, pair_b, pair_row = expand_candidate_pairs(mat_a, mat_b, rows)
    out_rows = mat_a.mb if rows is None else int(np.asarray(rows).shape[0])

    # BITMAPMULTIPLY prunes structurally-zero products (Alg. 3 lines 7-8).
    n_candidates = pair_a.shape[0]
    map_c = bitmap_multiply(mat_a.blc_map[pair_a], mat_b.blc_map[pair_b])
    keep = np.flatnonzero(map_c)

    # Steps 1 and 2 from one stable ordering of the survivors by output
    # tile: distinct columns per block-row (BlcPtrC by prefix sum, BlcIdxC
    # ascending) and the pairs grouped per tile, traversal order kept.
    tiles = distinct_per_segment(
        pair_row[keep], mat_b.blc_idx[pair_b[keep]], out_rows, mat_b.nb
    )
    sel = keep[tiles.order]
    blc_map_c = (
        np.bitwise_or.reduceat(map_c[sel], tiles.entry_ptr[:-1])
        if sel.size else map_c[sel]
    )

    # Cost accounting: each of the n_candidates pre-filter pairs reads two
    # bitmaps and does one bitmap product (~a handful of bit ops, modelled
    # as 16 integer ops on the scalar cores at fp32 rate); only the
    # surviving pairs pay hash inserts (integer work too).
    n_survivors = sel.shape[0]
    counters.add_flops(Precision.FP32, 16.0 * n_candidates + 8.0 * n_survivors)
    counters.add_bytes(
        read=n_candidates * (2 + 8) * 2,  # bitmaps + indices of both tiles
        written=tiles.ptr.shape[0] * 8 + tiles.keys.shape[0] * 8,
    )
    counters.launches = 2  # one launch per symbolic step

    return SymbolicResult(
        blc_ptr_c=tiles.ptr,
        blc_idx_c=tiles.keys,
        blc_map_c=blc_map_c,
        pair_a=pair_a[sel],
        pair_b=pair_b[sel],
        pair_ptr=tiles.entry_ptr,
        counters=counters,
    ).freeze()
