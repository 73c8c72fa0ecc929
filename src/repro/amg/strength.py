"""Classical strength of connection.

HYPRE's BoomerAMG marks the coupling ``(i, j)`` strong when

``-a_ij >= theta * max_{k != i} (-a_ik)``

for M-matrix sign conventions (negative off-diagonals); for rows whose
off-diagonals carry mixed signs we fall back to magnitudes, which is the
robust variant used for the general SuiteSparse inputs of the evaluation.
Rows whose off-diagonal mass is negligible relative to the diagonal —
``sum_j |a_ij| <= (2 - max_row_sum) * |a_ii|`` in HYPRE's formulation —
are treated as having no strong neighbours (the ``max_row_sum`` parameter
of the paper's configuration, 0.8).
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.util.segops import segment_max

__all__ = ["strength_of_connection"]


def strength_of_connection(
    a: CSRMatrix,
    theta: float = 0.25,
    max_row_sum: float = 0.8,
    *,
    rows: np.ndarray | None = None,
) -> CSRMatrix:
    """Build the binary strength matrix S of *a*.

    ``S[i, j] = 1`` iff j strongly influences i (off-diagonal entries only).
    The returned matrix stores value 1.0 per strong coupling.  Every test
    is row-local, so with sorted row ids *rows* only those rows are built:
    a compact ``(len(rows), n)`` matrix whose rows are bytewise the same
    rows of the full S.
    """
    if a.nrows != a.ncols:
        raise ValueError("strength of connection requires a square matrix")
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    sub = a if rows is None else a.extract_rows(rows)
    nrows = sub.nrows
    local = sub.row_ids()
    grow = local if rows is None else np.asarray(rows, dtype=np.int64)[local]
    cols = sub.indices
    vals = sub.data.astype(np.float64)
    off = grow != cols

    diag = np.zeros(nrows, dtype=sub.dtype)
    diag[local[~off]] = sub.data[~off]
    diag = diag.astype(np.float64)

    # Signed strength: measure -a_ij when the diagonal is positive (the
    # M-matrix convention), +a_ij when it is negative; rows with a zero
    # diagonal use magnitudes.
    sign = np.sign(diag[local])
    sign[sign == 0] = 1.0
    signed = -sign * vals
    measure = np.where(signed > 0, signed, 0.0)
    # If a row has no positive signed couplings, fall back to |a_ij| so
    # rows with unexpected sign structure still coarsen.
    row_max_signed = segment_max(measure[off], local[off], nrows, sorted_ids=True)
    fallback_rows = row_max_signed == 0
    if fallback_rows.any():
        use_abs = fallback_rows[local]
        measure = np.where(use_abs, np.abs(vals), measure)
        row_max_signed = np.maximum(
            row_max_signed,
            segment_max(measure[off], local[off], nrows, sorted_ids=True),
        )

    strong = off & (measure >= theta * row_max_signed[local]) & (measure > 0)

    # max_row_sum: rows that are strongly diagonally dominant do not need
    # interpolation; drop their couplings (HYPRE's max_row_sum treatment).
    if max_row_sum < 1.0:
        abs_row = np.bincount(local, weights=np.abs(vals), minlength=nrows)
        dominated = abs_row <= (2.0 - max_row_sum) * np.abs(diag)
        strong &= ~dominated[local]

    return CSRMatrix.from_coo(
        local[strong],
        cols[strong],
        np.ones(int(strong.sum())),
        (nrows, a.ncols),
        sum_duplicates=False,
    )
