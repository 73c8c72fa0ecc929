"""Vendor-style CSR kernels — the HYPRE baseline of the evaluation.

HYPRE's GPU backend calls cuSPARSE (NVIDIA) or rocSPARSE (AMD) for its
device SpGEMM and SpMV.  Both vendor SpGEMMs are hash/merge-based row-wise
CSR algorithms on the scalar cores, and both SpMVs are row-parallel CSR
kernels; neither touches the tensor cores for these sparse operations,
which is the performance gap AmgT exploits.

This module implements the same algorithmic class:

* :func:`csr_spgemm` — row-wise expansion with per-row accumulation (the
  classic Gustavson formulation used by the vendor hash kernels), counted
  as scalar flops plus the CSR traffic of reading both operands and writing
  C twice (symbolic + numeric passes, as the vendor two-phase APIs do).
* :func:`csr_spmv` — row-parallel CSR SpMV with a warp-per-row model; its
  imbalance factor is the raw row-length skew (no load-balancing pass).

The records carry ``backend='cusparse'`` or ``'rocsparse'`` so the cost
model applies the matching sustained-efficiency constants.
"""

from __future__ import annotations

import numpy as np

from repro.check import runtime as check_runtime
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import Precision
from repro.kernels.record import KernelRecord
from repro.util.hashing import distinct_per_segment
from repro.util.prefix_sum import counts_to_ptr
from repro.util.segops import segment_sum_ptr

__all__ = ["csr_spgemm", "csr_spmv", "bind_csr_spmv"]


def _expand_pairs(a: CSRMatrix, b: CSRMatrix):
    """All (entryA, entryB) products of the Gustavson row-wise traversal."""
    col_a = a.indices
    b_counts = np.diff(b.indptr)
    per_entry = b_counts[col_a]
    pair_a = np.repeat(np.arange(a.nnz, dtype=np.int64), per_entry)
    total = int(per_entry.sum())
    starts = counts_to_ptr(per_entry)[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, per_entry)
    pair_b = b.indptr[col_a][pair_a] + within
    pair_row = a.row_ids()[pair_a]
    return pair_a, pair_b, pair_row


def csr_spgemm(
    a: CSRMatrix,
    b: CSRMatrix,
    precision: Precision = Precision.FP64,
    backend: str = "cusparse",
) -> tuple[CSRMatrix, KernelRecord]:
    """C = A @ B with a vendor-style two-phase hash CSR SpGEMM."""
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions differ: A is {a.shape}, B is {b.shape}")
    record = KernelRecord(kernel="spgemm", backend=backend, precision=precision)
    counters = record.counters

    pair_a, pair_b, pair_row = _expand_pairs(a, b)
    cols = b.indices[pair_b]

    # Symbolic pass: distinct columns per row (hash counting), and the
    # products grouped per output entry, from one ordering.
    entries = distinct_per_segment(pair_row, cols, a.nrows, b.ncols)
    indptr_c, indices_c = entries.ptr, entries.keys

    # Numeric pass: accumulate each entry's products in traversal order.
    acc_dtype = precision.accum_dtype
    in_dtype = precision.np_dtype
    pair_a, pair_b = pair_a[entries.order], pair_b[entries.order]
    prods = a.data[pair_a].astype(in_dtype).astype(acc_dtype) * b.data[pair_b].astype(
        in_dtype
    ).astype(acc_dtype)
    vals = segment_sum_ptr(prods, entries.entry_ptr)

    n_products = pair_a.shape[0]
    counters.add_flops(precision, 2.0 * n_products)
    itemsize = precision.itemsize
    counters.add_bytes(
        # read A and B entries per product (value + column index), plus
        # the hash-table traffic of both passes
        read=n_products * 2 * (itemsize + 4) * 2,
        written=indices_c.shape[0] * (itemsize + 4) * 2 + (a.nrows + 1) * 8,
    )
    counters.launches = 3  # analysis/symbolic/numeric, as in the vendor API
    record.detail = {"intermediate_products": int(n_products), "nnz_c": int(indices_c.shape[0])}

    out = CSRMatrix(
        (a.nrows, b.ncols), indptr_c, indices_c, vals, _canonical=True
    )
    if check_runtime.is_active():
        from repro.check import oracle

        oracle.verify_csr_spgemm(a, b, out, precision, record=record)
    return out, record


def csr_spmv(
    a: CSRMatrix,
    x: np.ndarray,
    precision: Precision = Precision.FP64,
    backend: str = "cusparse",
) -> tuple[np.ndarray, KernelRecord]:
    """y = A @ x with a vendor-style row-parallel CSR SpMV.

    *x* is an ``(ncols,)`` vector or an ``(ncols, k)`` panel with one
    right-hand side per column (cuSPARSE ``SpMM`` / rocSPARSE ``csrmm``);
    ``y`` comes back in the same layout in the accumulator dtype, panel
    column j bit-identical to the vector call on ``x[:, j]``.
    """
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[0] != a.ncols:
        raise ValueError(
            f"x has shape {x.shape}, expected ({a.ncols},) or ({a.ncols}, k)"
        )
    width = 1 if x.ndim == 1 else x.shape[1]
    record = _new_record(backend, precision, width)
    _account_csr_spmv(record, a, precision, width)
    run_acc = _csr_run_acc(a, precision)
    y = run_acc(x) if x.ndim == 1 else np.ascontiguousarray(run_acc(x.T).T)
    if check_runtime.is_active():
        _verify_rows(a, precision, x.T, y.T, record)
    return y, record


def _new_record(backend: str, precision: Precision, width: int) -> KernelRecord:
    kernel = "spmv" if width == 1 else "spmm"
    return KernelRecord(kernel=kernel, backend=backend, precision=precision)


def _verify_rows(a: CSRMatrix, precision: Precision, x: np.ndarray,
                 y: np.ndarray, record: KernelRecord | None = None) -> None:
    """Check every right-hand side of a vector or row-panel call; each
    check stamps *record*."""
    from repro.check import oracle

    for xj, yj in zip(np.atleast_2d(x), np.atleast_2d(y)):
        oracle.verify_csr_spmv(a, xj, yj, precision, record=record)


def _account_csr_spmv(record: KernelRecord, a: CSRMatrix, precision: Precision,
                      width: int = 1) -> None:
    """Fill *record* with the cost of one CSR SpMV on *a* over *width*
    right-hand sides (x-independent).

    Matrix values, column indices and row pointers are read once per
    call; flops, the x gather and the y write scale with *width*.
    """
    counters = record.counters
    acc_dtype = precision.accum_dtype
    counters.add_flops(precision, 2.0 * a.nnz * width)
    counters.add_bytes(
        read=a.nnz * (precision.itemsize + 4) + (a.nrows + 1) * 8
        + a.nnz * precision.itemsize * width,  # x gather, uncoalesced
        written=a.nrows * acc_dtype().itemsize * width,
    )
    # Row-parallel vendor kernel: imbalance = row-length skew.
    row_nnz = a.row_nnz().astype(np.float64)
    mean = row_nnz.mean() if a.nrows else 0.0
    counters.imbalance = float(row_nnz.max() / mean) if mean > 0 else 1.0
    # Vendor kernels bound the skew penalty with internal row splitting.
    counters.imbalance = min(counters.imbalance, 4.0)
    counters.launches = 1
    record.detail = {"width": width}


def _csr_run_acc(a: CSRMatrix, precision: Precision):
    """The CSR SpMV core with the ``data.astype(in).astype(acc)`` double
    cast and the COO row-id expansion captured once.

    ``run_acc(x)`` takes an ``(ncols,)`` vector or a ``(k, ncols)`` row
    panel and returns the result in the same layout in the accumulator
    dtype; a panel runs the vector core per row, so row j is the vector
    call on ``x[j]`` by construction.
    """
    in_dtype = np.dtype(precision.np_dtype)
    acc_dtype = np.dtype(precision.accum_dtype)
    data = a.data.astype(in_dtype).astype(acc_dtype)
    row_ids = a.row_ids()
    indices = a.indices
    nrows = a.nrows
    f64_acc = acc_dtype == np.float64

    def run_vector(x: np.ndarray) -> np.ndarray:
        xv = x if x.dtype == in_dtype else x.astype(in_dtype)
        if xv.dtype != acc_dtype:
            xv = xv.astype(acc_dtype)
        products = data * xv[indices]
        if not f64_acc:
            products = products.astype(np.float64)
        y = np.bincount(row_ids, weights=products, minlength=nrows)
        # Round to the accumulator before any float64 widening (and pin
        # the dtype: an empty bincount comes back int64).
        return y.astype(acc_dtype, copy=False)

    def run_acc(x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return run_vector(x)
        return np.stack([run_vector(xj) for xj in x])

    return run_acc


def bind_csr_spmv(a: CSRMatrix, precision: Precision = Precision.FP64,
                  backend: str = "cusparse", width: int = 1):
    """Resolve one CSR SpMV over *width* right-hand sides into a
    replayable :class:`repro.kernels.spmv.SpMVBinding` (the tape's
    baseline path).

    ``run(x)`` takes a vector or a ``(width, ncols)`` row panel and is
    bit-identical, row by row, to :func:`csr_spmv` followed by
    ``np.asarray(y, dtype=np.float64)``.  The check gate is resolved at
    bind time, like the dispatch itself.
    """
    from repro.kernels.spmv import SpMVBinding, _float64_run

    if width < 1:
        raise ValueError(f"panel width must be >= 1, got {width}")
    record = _new_record(backend, precision, width)
    _account_csr_spmv(record, a, precision, width)

    def verify(x: np.ndarray, y: np.ndarray) -> None:
        _verify_rows(a, precision, x, y)

    return SpMVBinding(_float64_run(_csr_run_acc(a, precision), verify, record),
                       record)
