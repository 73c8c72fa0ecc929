"""Format conversions of the AmgT data flow (Fig. 6, steps 4 and 5).

``CSR2MBSR`` runs before every SpGEMM-consuming step of the setup phase and
``MBSR2CSR`` after every Galerkin product; the data flow calls a conversion
``2 * #levels - 1`` times.  Each conversion returns a
:class:`ConversionStats` describing the simulated work (entries touched,
bytes read/written) so the cost model can price it; Fig. 10 compares the
CSR->mBSR cost against cuSPARSE's CSR->BSR, which differs only by the
bitmap array.

An SpGEMM product leaves mBSR through one expansion
(:func:`expand_bits`): its pruned CSR (:func:`mbsr_to_pruned_csr`) and
its mBSR twin (:func:`prune_twin`, the product minus its cancelled
entries) come from that pass, bytewise what ``mbsr_to_csr`` +
``eliminate_zeros`` + ``csr_to_mbsr`` produce, without tiling the CSR
again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.bitmap import BLOCK_SIZE, TILE_SLOTS, bitmap_to_mask
from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.mbsr import MBSRMatrix, block_rows
from repro.util.ordering import lexsort_pairs
from repro.util.prefix_sum import counts_to_ptr
from repro.util.segops import segment_bitwise_or, segment_sum

__all__ = [
    "ConversionStats",
    "csr_to_mbsr",
    "mbsr_to_csr",
    "mbsr_to_pruned_csr",
    "expand_bits",
    "csr_in_order",
    "prune_zeros",
    "prune_twin",
    "csr_to_bsr",
    "bsr_to_csr",
]

_INDEX_DTYPE = np.int64


@dataclass
class ConversionStats:
    """Simulated work of one format conversion."""

    kind: str
    nnz: int
    blc_num: int
    bytes_read: int
    bytes_written: int

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


def _tile_layout(csr: CSRMatrix):
    """``AmgT_CSR2mBSR`` pass 1: group the CSR entries by tile.

    Returns ``(order, slots, tile_keys, nb)``: the stable permutation that
    groups entries by tile key ``brow * nb + bcol`` (within a tile the CSR
    order, i.e. ascending slot), the flat ``blc_val`` destination
    ``tile * 16 + slot`` of every permuted entry, and the distinct tile
    keys in ascending order.  ``order``/``slots`` are exactly the fill
    template a conversion replays.
    """
    rows = csr.row_ids()
    cols = csr.indices
    nb = block_rows(csr.ncols)
    key = (rows // BLOCK_SIZE) * nb + cols // BLOCK_SIZE
    order = np.argsort(key, kind="stable")
    skey = key[order]
    new = np.ones(skey.shape[0], dtype=bool)
    if skey.shape[0]:
        new[1:] = skey[1:] != skey[:-1]
    tile_of_entry = np.cumsum(new) - 1 if skey.shape[0] else skey
    tile_keys = skey[new] if skey.shape[0] else skey
    slot = (rows % BLOCK_SIZE) * BLOCK_SIZE + (cols % BLOCK_SIZE)
    return order, tile_of_entry * TILE_SLOTS + slot[order], tile_keys, nb


def _csr_to_mbsr(csr: CSRMatrix):
    """``AmgT_CSR2mBSR`` over one tile layout: ``(mbsr, stats, order, slots)``,
    the last two being the layout's fill template."""
    order, slots, tile_keys, nb = _tile_layout(csr)
    mb = block_rows(csr.nrows)
    blc_num = tile_keys.shape[0]
    blc_ptr = counts_to_ptr(np.bincount(tile_keys // nb, minlength=mb))
    # Entries are stably grouped by tile and ordered by slot within each
    # tile, so the (tile, slot) destinations are presorted — the segmented
    # reduction scatters without re-sorting.
    blc_val = segment_sum(
        csr.data[order], slots, blc_num * TILE_SLOTS, sorted_ids=True,
    ).reshape(blc_num, BLOCK_SIZE, BLOCK_SIZE)
    blc_map = segment_bitwise_or(
        (1 << (slots & (TILE_SLOTS - 1)).astype(np.uint32)).astype(np.uint16),
        slots >> 4,
        blc_num,
        sorted_ids=True,
    )
    out = MBSRMatrix(
        (csr.nrows, csr.ncols), blc_ptr, tile_keys % nb, blc_val, blc_map,
        _trusted=True,
    )
    itemsize = csr.data.dtype.itemsize
    stats = ConversionStats(
        kind="csr2mbsr",
        nnz=csr.nnz,
        blc_num=blc_num,
        # read the CSR triplet arrays
        bytes_read=csr.nnz * (itemsize + 8) + (csr.nrows + 1) * 8,
        # write blc_ptr, blc_idx, blc_val (dense tiles), blc_map (the only
        # array BSR lacks: 2 bytes per tile)
        bytes_written=(mb + 1) * 8 + blc_num * 8 + blc_num * TILE_SLOTS * itemsize + blc_num * 2,
    )
    return out, stats, order, slots


def csr_to_mbsr(csr: CSRMatrix, *, return_stats: bool = False):
    """``AmgT_CSR2mBSR``: tile the matrix and build per-tile bitmaps.

    Vectorised two-pass construction mirroring the GPU kernel: pass 1 counts
    distinct tiles per block-row (building ``blc_ptr`` with a prefix sum),
    pass 2 scatters values into tile slots and ORs slot bits into ``blc_map``.
    """
    out, stats, _, _ = _csr_to_mbsr(csr)
    return (out, stats) if return_stats else out


def csr_to_bsr(csr: CSRMatrix, *, return_stats: bool = False):
    """cuSPARSE-style CSR->BSR (Fig. 10 comparison point)."""
    order, slots, tile_keys, nb = _tile_layout(csr)
    mb = block_rows(csr.nrows)
    blc_num = tile_keys.shape[0]
    blc_ptr = counts_to_ptr(np.bincount(tile_keys // nb, minlength=mb))
    blc_val = segment_sum(
        csr.data[order], slots, blc_num * TILE_SLOTS, sorted_ids=True,
    ).reshape(blc_num, BLOCK_SIZE, BLOCK_SIZE)
    out = BSRMatrix((csr.nrows, csr.ncols), blc_ptr, tile_keys % nb, blc_val, _trusted=True)
    if not return_stats:
        return out
    itemsize = csr.data.dtype.itemsize
    stats = ConversionStats(
        kind="csr2bsr",
        nnz=csr.nnz,
        blc_num=blc_num,
        bytes_read=csr.nnz * (itemsize + 8) + (csr.nrows + 1) * 8,
        bytes_written=(mb + 1) * 8 + blc_num * 8 + blc_num * TILE_SLOTS * itemsize,
    )
    return out, stats


def expand_bits(mbsr: MBSRMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one ``MBSR2CSR`` pass: every set bit inside the bounds, CSR order.

    Returns ``(rows, cols, gather)``, ``gather`` being each entry's flat
    position in ``blc_val``.  The bits are ordered by (row, column) with
    the fused-key stable argsort, so tiles need not be sorted or distinct.
    """
    brow = mbsr.block_row_ids()
    tile, rr, cc = np.nonzero(bitmap_to_mask(mbsr.blc_map))
    gather = (tile * BLOCK_SIZE + rr) * BLOCK_SIZE + cc
    rows = brow[tile] * BLOCK_SIZE + rr
    cols = mbsr.blc_idx[tile] * BLOCK_SIZE + cc
    if mbsr.nrows % BLOCK_SIZE or mbsr.ncols % BLOCK_SIZE:
        keep = (rows < mbsr.nrows) & (cols < mbsr.ncols)
        rows, cols, gather = rows[keep], cols[keep], gather[keep]
    order = lexsort_pairs(rows, cols, mbsr.nrows, mbsr.ncols)
    return rows[order], cols[order], gather[order]


def csr_in_order(shape, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> CSRMatrix:
    """CSR from entries already in CSR order: no sort, *rows* memoised as
    the matrix's row expansion."""
    out = CSRMatrix(
        shape, counts_to_ptr(np.bincount(rows, minlength=shape[0])), cols, vals,
        _canonical=True,
    )
    rows.setflags(write=False)
    out._row_ids = rows
    return out


def prune_zeros(csr: CSRMatrix, gather: np.ndarray) -> tuple[CSRMatrix, np.ndarray]:
    """``csr.eliminate_zeros(0.0)`` of a canonical CSR without re-sorting,
    with *gather* (one entry per CSR entry) cut to the kept entries.

    The predicate is ``eliminate_zeros``'s ``|v| > 0``, which drops
    ``0.0``, ``-0.0`` and NaN.  Returns *csr* itself when nothing drops.
    """
    keep = np.abs(csr.data) > 0
    if keep.all():
        return csr, gather
    out = csr_in_order(
        csr.shape, csr.row_ids()[keep], csr.indices[keep], csr.data[keep]
    )
    return out, gather[keep]


def mbsr_to_csr(mbsr: MBSRMatrix, *, return_stats: bool = False):
    """``MBSR2CSR``: expand bitmap slots back to scalar CSR entries (explicit
    zeros under set bits included)."""
    rows, cols, gather = expand_bits(mbsr)
    out = csr_in_order(mbsr.shape, rows, cols, mbsr.blc_val.reshape(-1)[gather])
    if not return_stats:
        return out
    itemsize = mbsr.blc_val.dtype.itemsize
    stats = ConversionStats(
        kind="mbsr2csr",
        nnz=out.nnz,
        blc_num=mbsr.blc_num,
        bytes_read=mbsr.blc_num * (16 * itemsize + 8 + 2) + (mbsr.mb + 1) * 8,
        bytes_written=out.nnz * (itemsize + 8) + (out.nrows + 1) * 8,
    )
    return out, stats


def mbsr_to_pruned_csr(mbsr: MBSRMatrix) -> tuple[CSRMatrix, np.ndarray]:
    """``mbsr_to_csr(mbsr).eliminate_zeros(0.0)`` in the one expansion pass,
    plus the kept entries' flat ``blc_val`` positions (what
    :func:`prune_twin` derives the mBSR twin from)."""
    rows, cols, gather = expand_bits(mbsr)
    full = csr_in_order(mbsr.shape, rows, cols, mbsr.blc_val.reshape(-1)[gather])
    return prune_zeros(full, gather)


def prune_twin(mbsr: MBSRMatrix, gather: np.ndarray):
    """``csr_to_mbsr`` of a CSR holding the slots *gather* of *mbsr*,
    derived from *mbsr* without tiling the CSR again.

    *gather* lists the kept entries' flat ``blc_val`` positions in CSR
    order (:func:`mbsr_to_pruned_csr`).  Every other bit is cleared and
    tiles left empty are dropped; when that changes nothing the twin is
    *mbsr* itself.  Off-bitmap slots of *mbsr* must hold ``+0.0``, as
    ``csr_to_mbsr`` writes them (every SpGEMM product's do).  Returns
    ``(twin, order, slots)``, the last two being the fill template
    :func:`_tile_layout` computes for that CSR: entries grouped by tile in
    ascending slot order, which is ascending flat position.
    """
    blc_num = mbsr.blc_num
    nnz = gather.shape[0]
    kept = np.zeros(blc_num * TILE_SLOTS, dtype=bool)
    kept[gather] = True
    flat = np.flatnonzero(kept)
    entry_of = np.empty(blc_num * TILE_SLOTS, dtype=_INDEX_DTYPE)
    entry_of[gather] = np.arange(nnz, dtype=_INDEX_DTYPE)
    order = entry_of[flat]
    if nnz == mbsr.nnz and (mbsr.pop_per_tile > 0).all():
        return mbsr, order, flat
    maps = np.packbits(
        kept.reshape(blc_num, TILE_SLOTS), axis=1, bitorder="little"
    ).view("<u2").reshape(-1).astype(np.uint16, copy=False)
    live = maps != 0
    vals = np.where(
        kept.reshape(blc_num, BLOCK_SIZE, BLOCK_SIZE),
        mbsr.blc_val,
        mbsr.blc_val.dtype.type(0),
    )
    twin = MBSRMatrix(
        mbsr.shape,
        counts_to_ptr(np.bincount(mbsr.block_row_ids()[live], minlength=mbsr.mb)),
        mbsr.blc_idx[live],
        vals[live],
        maps[live],
        _trusted=True,
    )
    tile_of = np.cumsum(live) - 1
    slots = tile_of[flat >> 4] * TILE_SLOTS + (flat & (TILE_SLOTS - 1))
    return twin, order, slots


def bsr_to_csr(bsr: BSRMatrix) -> CSRMatrix:
    """Expand a BSR matrix to CSR, dropping explicit zeros."""
    blc_num = bsr.blc_num
    tile_ids, rr, cc = np.nonzero(bsr.blc_val)
    brow = bsr.block_row_ids()[tile_ids]
    bcol = bsr.blc_idx[tile_ids]
    rows = brow * BLOCK_SIZE + rr
    cols = bcol * BLOCK_SIZE + cc
    vals = bsr.blc_val[tile_ids, rr, cc]
    keep = (rows < bsr.shape[0]) & (cols < bsr.shape[1])
    return CSRMatrix.from_coo(
        rows[keep], cols[keep], vals[keep], bsr.shape, sum_duplicates=False
    )
