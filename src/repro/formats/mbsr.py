"""The mBSR format — AmgT's unified sparse format (Sec. IV.B).

A matrix is partitioned into 4x4 tiles ("blocks").  Two index arrays place
the tiles, exactly like BSR:

* ``blc_ptr`` — offsets of the first tile of every block-row
  (length ``mb + 1`` with ``mb = ceil(nrows / 4)``);
* ``blc_idx`` — block-column index of every tile, sorted within block-rows.

Two payload arrays hold the tile contents:

* ``blc_val`` — dense ``(blc_num, 4, 4)`` values; slots outside the bitmap
  are exact zeros (an invariant the kernels rely on when feeding whole tiles
  to the MMA unit);
* ``blc_map`` — one ``uint16`` bitmap per tile (bit ``r*4+c`` <=> slot
  ``(r, c)`` nonzero).

The bitmap is the only difference from classic BSR, and it is what lets the
kernels (a) decide tensor-core vs CUDA-core execution per tile via popcount
and (b) run the symbolic SpGEMM phase entirely on bit operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.bitmap import (
    BLOCK_SIZE,
    bitmap_to_mask,
    bitmap_transpose,
)
from repro.util.prefix_sum import counts_to_ptr

__all__ = ["MBSRMatrix", "block_rows"]

_INDEX_DTYPE = np.int64


def block_rows(n: int) -> int:
    """Number of 4-row blocks covering *n* rows (``ceil(n / 4)``)."""
    return -(-int(n) // BLOCK_SIZE)


@dataclass
class MBSRMatrix:
    """A sparse matrix stored as 4x4 tiles with per-tile bitmaps."""

    shape: tuple[int, int]
    blc_ptr: np.ndarray
    blc_idx: np.ndarray
    blc_val: np.ndarray
    blc_map: np.ndarray
    _trusted: bool = field(default=False, repr=False, compare=False)
    #: Lazily-built per-operator cache; every construction (astype, copy,
    #: transpose, ...) yields a fresh one, so cached state never outlives
    #: the arrays it was derived from.
    _cache: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self.blc_ptr = np.ascontiguousarray(self.blc_ptr, dtype=_INDEX_DTYPE)
        self.blc_idx = np.ascontiguousarray(self.blc_idx, dtype=_INDEX_DTYPE)
        self.blc_val = np.ascontiguousarray(self.blc_val)
        self.blc_map = np.ascontiguousarray(self.blc_map, dtype=np.uint16)
        if self.blc_val.ndim == 2 and self.blc_val.shape[1] == BLOCK_SIZE * BLOCK_SIZE:
            self.blc_val = self.blc_val.reshape(-1, BLOCK_SIZE, BLOCK_SIZE)
        if not self._trusted:
            self._validate()

    def _validate(self) -> None:
        mb = block_rows(self.shape[0])
        nb = block_rows(self.shape[1])
        if self.blc_ptr.shape[0] != mb + 1:
            raise ValueError(
                f"blc_ptr has length {self.blc_ptr.shape[0]}, expected {mb + 1}"
            )
        blc_num = int(self.blc_ptr[-1])
        if self.blc_idx.shape[0] != blc_num:
            raise ValueError("blc_idx length must equal blc_ptr[-1]")
        if self.blc_map.shape[0] != blc_num:
            raise ValueError("blc_map length must equal the number of tiles")
        if self.blc_val.shape != (blc_num, BLOCK_SIZE, BLOCK_SIZE):
            raise ValueError(
                f"blc_val must have shape ({blc_num}, 4, 4), got {self.blc_val.shape}"
            )
        if self.blc_idx.size and (self.blc_idx.min() < 0 or self.blc_idx.max() >= nb):
            raise ValueError("block column index out of range")
        if np.any(np.diff(self.blc_ptr) < 0):
            raise ValueError("blc_ptr must be non-decreasing")

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def mb(self) -> int:
        """Number of block rows."""
        return block_rows(self.shape[0])

    @property
    def nb(self) -> int:
        """Number of block columns."""
        return block_rows(self.shape[1])

    @property
    def blc_num(self) -> int:
        """Number of stored tiles."""
        return int(self.blc_ptr[-1])

    @property
    def cache(self):
        """The per-operator :class:`~repro.kernels.cache.OperatorCache`.

        The matrix owns its cache; the cache refers back to the matrix
        only weakly, so no reference cycle outlives the last user.
        """
        if self._cache is None:
            from repro.kernels.cache import OperatorCache

            self._cache = OperatorCache(self)
        return self._cache

    @property
    def pop_per_tile(self) -> np.ndarray:
        """Nonzeros per tile (cached ``bitmap_popcount(blc_map)``)."""
        return self.cache.pop_per_tile

    @property
    def nnz(self) -> int:
        """Number of scalar nonzeros (bitmap popcount sum)."""
        return self.cache.nnz

    @property
    def dtype(self) -> np.dtype:
        return self.blc_val.dtype

    @property
    def avg_nnz_blc(self) -> float:
        """Average nonzeros per tile — SpMV's core-selection parameter."""
        if self.blc_num == 0:
            return 0.0
        return self.nnz / self.blc_num

    def block_row_ids(self) -> np.ndarray:
        """Block-row index per stored tile (cached, read-only view)."""
        return self.cache.block_row_ids

    def blocks_per_row(self) -> np.ndarray:
        return self.cache.blocks_per_row

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "MBSRMatrix":
        from repro.formats.convert import csr_to_mbsr
        from repro.formats.csr import CSRMatrix

        return csr_to_mbsr(CSRMatrix.from_dense(np.asarray(dense)))

    @classmethod
    def from_scipy(cls, mat) -> "MBSRMatrix":
        """Build from any scipy.sparse matrix."""
        from repro.formats.convert import csr_to_mbsr
        from repro.formats.csr import CSRMatrix

        return csr_to_mbsr(CSRMatrix.from_scipy(mat))

    def to_scipy(self):
        """Export as ``scipy.sparse.csr_matrix``."""
        return self.to_csr().to_scipy()

    @classmethod
    def empty(cls, shape: tuple[int, int], dtype=np.float64) -> "MBSRMatrix":
        mb = block_rows(shape[0])
        return cls(
            shape,
            np.zeros(mb + 1, dtype=_INDEX_DTYPE),
            np.zeros(0, dtype=_INDEX_DTYPE),
            np.zeros((0, BLOCK_SIZE, BLOCK_SIZE), dtype=dtype),
            np.zeros(0, dtype=np.uint16),
            _trusted=True,
        )

    def to_dense(self) -> np.ndarray:
        mb, nb = self.mb, self.nb
        padded = np.zeros(
            (mb * BLOCK_SIZE, nb * BLOCK_SIZE),
            dtype=np.result_type(self.dtype, np.float64),
        )
        rows = self.block_row_ids()
        mask = bitmap_to_mask(self.blc_map)
        vals = np.where(mask, self.blc_val, 0.0)
        for t in range(self.blc_num):
            r0 = rows[t] * BLOCK_SIZE
            c0 = self.blc_idx[t] * BLOCK_SIZE
            padded[r0 : r0 + BLOCK_SIZE, c0 : c0 + BLOCK_SIZE] += vals[t]
        return padded[: self.nrows, : self.ncols]

    def to_csr(self):
        from repro.formats.convert import mbsr_to_csr

        return mbsr_to_csr(self)

    def copy(self) -> "MBSRMatrix":
        return MBSRMatrix(
            self.shape,
            self.blc_ptr.copy(),
            self.blc_idx.copy(),
            self.blc_val.copy(),
            self.blc_map.copy(),
            _trusted=True,
        )

    def astype(self, dtype) -> "MBSRMatrix":
        """Precision cast, e.g. before launching a low-precision kernel.

        The paper's mixed-precision data flow casts tile values right before
        kernel launch ("data precision conversions with very low costs").
        """
        return MBSRMatrix(
            self.shape,
            self.blc_ptr,
            self.blc_idx,
            self.blc_val.astype(dtype),
            self.blc_map,
            _trusted=True,
        )

    def transpose(self) -> "MBSRMatrix":
        """Blockwise transpose (used for R = P^T without leaving mBSR)."""
        rows = self.block_row_ids()
        cols = self.blc_idx
        order = np.lexsort((rows, cols))
        new_rows = cols[order]
        new_cols = rows[order]
        new_vals = self.blc_val[order].transpose(0, 2, 1).copy()
        new_maps = bitmap_transpose(self.blc_map[order])
        counts = np.bincount(new_rows, minlength=self.nb)
        new_ptr = counts_to_ptr(counts)
        return MBSRMatrix(
            (self.ncols, self.nrows),
            new_ptr,
            new_cols,
            new_vals,
            new_maps,
            _trusted=True,
        )

    # ------------------------------------------------------------------
    # invariants (used heavily by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise if the bitmap/value coupling is violated.

        Invariants: (1) columns sorted and unique within block rows;
        (2) values outside the bitmap are exactly zero; (3) no all-zero
        tiles are stored.
        """
        self._validate()
        rows = self.block_row_ids()
        if self.blc_num:
            key = rows * (self.nb + 1) + self.blc_idx
            if np.any(np.diff(key) <= 0):
                raise AssertionError("tiles not sorted/unique within block rows")
        mask = bitmap_to_mask(self.blc_map)
        if not np.all(self.blc_val[~mask] == 0):
            raise AssertionError("nonzero value outside the tile bitmap")
        if np.any(self.blc_map == 0):
            raise AssertionError("stored all-zero tile")
        # Tiles in the padding region (beyond nrows/ncols) must be empty.
        pad_rows = self.mb * BLOCK_SIZE - self.nrows
        if pad_rows and self.blc_num:
            last_row_tiles = rows == self.mb - 1
            tiles = np.where(mask[last_row_tiles], 1, 0)
            if np.any(tiles[:, BLOCK_SIZE - pad_rows :, :]):
                raise AssertionError("nonzero in the row padding region")
