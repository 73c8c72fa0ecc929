"""Compressed sparse row matrices.

CSR is the interchange format of the AmgT data flow (Fig. 6): the input
matrix arrives in CSR, coarsening and the coarsest-level solve operate on
CSR, and the SpGEMM/SpMV-heavy steps convert to mBSR.  This class implements
the CSR operations the AMG components need (transpose, diagonal extraction,
row scaling, submatrix selection, elementwise ops), all vectorised.

:class:`CSRMatrix` keeps its columns sorted within each row and stores no
explicit zeros unless asked to; the constructor canonicalises arbitrary
input so downstream kernels can rely on the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.ordering import lexsort_pairs
from repro.util.prefix_sum import counts_to_ptr
from repro.util.segops import segment_sum

__all__ = ["CSRMatrix"]

_INDEX_DTYPE = np.int64


@dataclass
class CSRMatrix:
    """A sparse matrix in compressed sparse row form.

    Attributes
    ----------
    shape:
        ``(nrows, ncols)``.
    indptr:
        Row pointer array, length ``nrows + 1``.
    indices:
        Column index per nonzero, sorted within each row.
    data:
        Value per nonzero.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _canonical: bool = field(default=False, repr=False, compare=False)
    #: Memoised COO row expansion; solve-phase matvecs hit it every call.
    _row_ids: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: Memoised sparsity-pattern digest (setup-phase plan-cache key).
    _pattern_key: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self.indptr = np.ascontiguousarray(self.indptr, dtype=_INDEX_DTYPE)
        self.indices = np.ascontiguousarray(self.indices, dtype=_INDEX_DTYPE)
        self.data = np.ascontiguousarray(self.data)
        if self.indptr.shape[0] != self.shape[0] + 1:
            raise ValueError(
                f"indptr has length {self.indptr.shape[0]}, expected {self.shape[0] + 1}"
            )
        if self.indices.shape[0] != self.data.shape[0]:
            raise ValueError("indices and data must have equal length")
        if self.indices.shape[0] != int(self.indptr[-1]):
            raise ValueError("indptr[-1] must equal the number of stored entries")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise ValueError("column index out of range")
        if not self._canonical:
            self._canonicalise()
            self._canonical = True

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        *,
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build from coordinate triplets; duplicates are summed."""
        rows = np.asarray(rows, dtype=_INDEX_DTYPE)
        cols = np.asarray(cols, dtype=_INDEX_DTYPE)
        vals = np.asarray(vals)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must have the same length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= shape[0]:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= shape[1]:
                raise ValueError("column index out of range")
        order = lexsort_pairs(rows, cols, shape[0], shape[1])
        rows, cols, vals = rows[order], cols[order], vals[order]
        if sum_duplicates and rows.size:
            new = np.ones(rows.shape[0], dtype=bool)
            new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(new) - 1
            rows = rows[new]
            cols = cols[new]
            vals = np.bincount(group, weights=vals.astype(np.float64))
            vals = vals.astype(np.float64)
        counts = np.bincount(rows, minlength=shape[0])
        indptr = counts_to_ptr(counts)
        return cls(shape, indptr, cols, vals, _canonical=True)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any scipy.sparse matrix (used by tests and I/O)."""
        m = mat.tocsr()
        return cls(m.shape, m.indptr, m.indices, m.data)

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "CSRMatrix":
        indptr = np.arange(n + 1, dtype=_INDEX_DTYPE)
        indices = np.arange(n, dtype=_INDEX_DTYPE)
        return cls((n, n), indptr, indices, np.ones(n, dtype=dtype), _canonical=True)

    @classmethod
    def zeros(cls, shape: tuple[int, int], dtype=np.float64) -> "CSRMatrix":
        return cls(
            shape,
            np.zeros(shape[0] + 1, dtype=_INDEX_DTYPE),
            np.zeros(0, dtype=_INDEX_DTYPE),
            np.zeros(0, dtype=dtype),
            _canonical=True,
        )

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _canonicalise(self) -> None:
        """Sort columns within each row and sum duplicate entries."""
        row_ids = self.row_ids()
        order = lexsort_pairs(row_ids, self.indices, self.nrows, self.ncols)
        cols = self.indices[order]
        vals = self.data[order]
        rows = row_ids[order]
        if rows.size:
            new = np.ones(rows.shape[0], dtype=bool)
            new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            if not new.all():
                group = np.cumsum(new) - 1
                summed = segment_sum(
                    vals.astype(np.float64), group, int(group[-1]) + 1,
                    sorted_ids=True,
                )
                rows, cols, vals = rows[new], cols[new], summed.astype(vals.dtype)
        counts = np.bincount(rows, minlength=self.shape[0])
        self.indptr = counts_to_ptr(counts)
        self.indices = cols
        self.data = vals
        self._row_ids = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def row_ids(self) -> np.ndarray:
        """Row index per stored entry (COO expansion of ``indptr``, cached)."""
        if self._row_ids is None or self._row_ids.shape[0] != self.nnz:
            counts = np.diff(self.indptr)
            self._row_ids = np.repeat(
                np.arange(self.nrows, dtype=_INDEX_DTYPE), counts
            )
            self._row_ids.setflags(write=False)
        return self._row_ids

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def pattern_key(self) -> str:
        """Digest of the sparsity structure (shape + index arrays, no values).

        Cached on first use; the arrays are immutable after construction
        (every mutating operation returns a new matrix), so the key stays
        valid for the object's lifetime.  Equal keys mean a setup-phase
        plan, conversion template or hierarchy structure built on one
        matrix replays exactly on the other.
        """
        if self._pattern_key is None:
            from repro.check.fingerprint import pattern_fingerprint

            self._pattern_key = pattern_fingerprint(self)
        return self._pattern_key

    def to_dense(self) -> np.ndarray:
        out_dtype = np.result_type(self.dtype, np.float64)
        flat = self.row_ids() * self.ncols + self.indices
        dense = segment_sum(
            self.data.astype(out_dtype), flat, self.nrows * self.ncols,
            sorted_ids=True,
        )
        return dense.reshape(self.shape)

    def to_scipy(self):
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            _canonical=True,
        )

    def astype(self, dtype) -> "CSRMatrix":
        return CSRMatrix(
            self.shape, self.indptr, self.indices, self.data.astype(dtype), _canonical=True
        )

    # ------------------------------------------------------------------
    # linear-algebra helpers used by the AMG components
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Reference (host) SpMV; device SpMV lives in repro.kernels."""
        x = np.asarray(x)
        if x.shape[0] != self.ncols:
            raise ValueError(f"x has length {x.shape[0]}, expected {self.ncols}")
        products = self.data * x[self.indices]
        return np.bincount(
            self.row_ids(), weights=products, minlength=self.nrows
        ).astype(np.result_type(self.dtype, x.dtype))

    def transpose(self) -> "CSRMatrix":
        rows = self.row_ids()
        return CSRMatrix.from_coo(
            self.indices, rows, self.data, (self.ncols, self.nrows), sum_duplicates=False
        )

    def diagonal(self) -> np.ndarray:
        n = min(self.shape)
        diag = np.zeros(n, dtype=self.dtype)
        rows = self.row_ids()
        on_diag = (rows == self.indices) & (rows < n)
        diag[rows[on_diag]] = self.data[on_diag]
        return diag

    def abs_row_sums(self) -> np.ndarray:
        """Per-row sum of |a_ij| (the L1-Jacobi diagonal)."""
        return np.bincount(
            self.row_ids(), weights=np.abs(self.data), minlength=self.nrows
        )

    def scale_rows(self, d: np.ndarray) -> "CSRMatrix":
        """Return ``diag(d) @ A``."""
        d = np.asarray(d)
        if d.shape[0] != self.nrows:
            raise ValueError("scaling vector length mismatch")
        return CSRMatrix(
            self.shape,
            self.indptr,
            self.indices,
            self.data * d[self.row_ids()],
            _canonical=True,
        )

    def scale_cols(self, d: np.ndarray) -> "CSRMatrix":
        """Return ``A @ diag(d)``."""
        d = np.asarray(d)
        if d.shape[0] != self.ncols:
            raise ValueError("scaling vector length mismatch")
        return CSRMatrix(
            self.shape, self.indptr, self.indices, self.data * d[self.indices], _canonical=True
        )

    def extract_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Row-submatrix ``A[rows, :]`` (rows keep the given order)."""
        rows = np.asarray(rows, dtype=_INDEX_DTYPE)
        counts = np.diff(self.indptr)[rows]
        new_ptr = counts_to_ptr(counts)
        total = int(new_ptr[-1])
        idx = np.zeros(total, dtype=_INDEX_DTYPE)
        starts = self.indptr[rows]
        # offsets within the flat output, mapped back to source positions
        out_rows = np.repeat(np.arange(rows.shape[0]), counts)
        within = np.arange(total) - new_ptr[out_rows]
        src = starts[out_rows] + within
        idx = self.indices[src]
        vals = self.data[src]
        return CSRMatrix((rows.shape[0], self.ncols), new_ptr, idx, vals, _canonical=True)

    def extract_cols(self, cols: np.ndarray) -> "CSRMatrix":
        """Column-submatrix ``A[:, cols]`` where *cols* is an index list."""
        cols = np.asarray(cols, dtype=_INDEX_DTYPE)
        remap = -np.ones(self.ncols, dtype=_INDEX_DTYPE)
        remap[cols] = np.arange(cols.shape[0])
        keep = remap[self.indices] >= 0
        rows = self.row_ids()[keep]
        return CSRMatrix.from_coo(
            rows,
            remap[self.indices[keep]],
            self.data[keep],
            (self.nrows, cols.shape[0]),
            sum_duplicates=False,
        )

    def eliminate_zeros(self, tol: float = 0.0) -> "CSRMatrix":
        keep = np.abs(self.data) > tol
        rows = self.row_ids()[keep]
        return CSRMatrix.from_coo(
            rows, self.indices[keep], self.data[keep], self.shape, sum_duplicates=False
        )

    def add(self, other: "CSRMatrix", alpha: float = 1.0) -> "CSRMatrix":
        """Return ``A + alpha * B``."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch in CSR add")
        rows = np.concatenate([self.row_ids(), other.row_ids()])
        cols = np.concatenate([self.indices, other.indices])
        vals = np.concatenate([self.data, alpha * other.data])
        return CSRMatrix.from_coo(rows, cols, vals, self.shape)

    def __matmul__(self, other):
        if isinstance(other, np.ndarray) and other.ndim == 1:
            return self.matvec(other)
        raise TypeError(
            "CSRMatrix @ only supports dense vectors; use repro.kernels for SpGEMM"
        )
