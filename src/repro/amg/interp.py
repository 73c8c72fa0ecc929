"""Interpolation operators, built with SpGEMM (Alg. 1 line 4).

The paper follows Li, Sjögreen & Yang (2021), who recast BoomerAMG's
interpolation families as sparse matrix-matrix products so the whole setup
phase runs on SpGEMM.  We implement two operators in that formulation:

* **direct** — ``P = [ -D_beta^{-1} A_FC ; I ]`` where ``D_beta`` is the
  scaled diagonal that preserves row sums of the classical direct formula.
* **extended+i (MM variant)** — the one-SpGEMM distance-two operator

  ``W = -D_beta^{-1} ( A_FF^s (D^{-1} A_FC) + A_FC )``

  where ``A_FF^s`` keeps only strong F-F couplings; the
  ``A_FF^s @ (D^{-1} A_FC)`` term extends each F point's stencil through
  its strong F neighbours, which is the distance-two reach that makes
  extended+i robust on stretched grids.  The SpGEMM in this product is the
  "one SpGEMM call" of Alg. 1 line 4 and is executed by the pluggable
  kernel backend so HYPRE (CSR) and AmgT (mBSR tensor-core) variants are
  timed on identical algebra.

Truncation follows the paper's configuration: keep at most ``max_elmts``
entries per row (largest magnitude) and drop entries below ``trunc_factor``
times the row maximum, then rescale so row sums are preserved.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.util.segops import segment_max

__all__ = ["build_interpolation", "truncate_interpolation"]

# Type of the pluggable SpGEMM: (A, B) -> C in CSR.  The hypre layer wraps
# the backend kernels (with their format conversions and timing) into this.
SpGEMMFn = Callable[[CSRMatrix, CSRMatrix], CSRMatrix]


def _default_spgemm(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    from repro.kernels.baseline import csr_spgemm

    return csr_spgemm(a, b)[0]


def _expand_to_full(
    w: CSRMatrix, f_points: np.ndarray, c_points: np.ndarray, n: int
) -> CSRMatrix:
    """Assemble P (n x nc) from the F-row block W (nf x nc) plus identity."""
    nc = c_points.shape[0]
    rows_w = f_points[w.row_ids()]
    rows = np.concatenate([rows_w, c_points])
    cols = np.concatenate([w.indices, np.arange(nc, dtype=np.int64)])
    vals = np.concatenate([w.data, np.ones(nc)])
    return CSRMatrix.from_coo(rows, cols, vals, (n, nc), sum_duplicates=False)


def build_interpolation(
    a: CSRMatrix,
    strength: CSRMatrix,
    cf_marker: np.ndarray,
    *,
    method: str = "extended+i",
    trunc_factor: float = 0.1,
    max_elmts: int = 4,
    spgemm: SpGEMMFn | None = None,
    rows: np.ndarray | None = None,
    rows_spgemm: Callable | None = None,
) -> CSRMatrix:
    """Build the prolongation operator P for one level.

    Parameters
    ----------
    a:
        Level matrix (n x n).
    strength:
        Strength matrix from :func:`repro.amg.strength.strength_of_connection`.
    cf_marker:
        +1 / -1 C/F splitting from PMIS.
    method:
        ``'direct'`` or ``'extended+i'``.
    trunc_factor, max_elmts:
        Truncation controls (paper: 0.1 and 4).
    spgemm:
        SpGEMM implementation for the distance-two product; defaults to the
        CSR baseline kernel.  The hypre layer injects the timed backend.
    rows:
        Sorted full-space row ids to (re)build — the dirty rows of the
        incremental setup patcher.  Instead of the full P, the return value
        becomes ``(p_sub, covered)``: a compact CSR of shape
        ``(len(covered), nc)`` plus the sorted full-space row ids it
        covers.  ``covered`` contains at least the F points of ``rows``
        (C rows of P are identity rows and never change) and may be a
        superset when ``rows_spgemm`` computes at block granularity.
        Every covered row is bit-identical to the same row of the full P.
    rows_spgemm:
        ``(a_op, b_op, fpos) -> (c_sub, covered_fpos)`` computing the
        selected F-position rows of ``a_op @ b_op`` as a compact CSR, each
        row bit-identical to the full product's.  Defaults to a
        row-extracted call of *spgemm* (exact for the row-local CSR
        kernels); the AmgT patcher supplies a block-aligned mBSR variant.
    """
    if method not in ("direct", "extended+i"):
        raise ValueError(f"unknown interpolation method {method!r}")
    spgemm = spgemm or _default_spgemm
    n = a.nrows
    c_points = np.flatnonzero(cf_marker == 1).astype(np.int64)
    f_points = np.flatnonzero(cf_marker == -1).astype(np.int64)
    nc = c_points.shape[0]
    if nc == 0:
        raise ValueError("no coarse points — cannot interpolate")
    if f_points.shape[0] == 0:
        if rows is not None:
            # P is the identity: no row ever needs patching.
            return CSRMatrix.zeros((0, nc)), np.empty(0, dtype=np.int64)
        return CSRMatrix.identity(n)
    fpos = None
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        # Positions within f_points of the dirty F rows (C rows of P are
        # identity rows — immune to value and pattern drift).
        dirty_f = rows[cf_marker[rows] == -1]
        fpos = np.searchsorted(f_points, dirty_f)
        if fpos.shape[0] == 0:
            return CSRMatrix.zeros((0, nc)), np.empty(0, dtype=np.int64)

    # Strength-filtered A: keep diagonal + strong couplings, with values.
    rows = a.row_ids()
    cols = a.indices
    s_dense_keys = strength.row_ids() * n + strength.indices
    keys = rows * n + cols
    # S is canonical, so its keys are sorted: membership is one search.
    if s_dense_keys.shape[0]:
        at = np.minimum(np.searchsorted(s_dense_keys, keys),
                        s_dense_keys.shape[0] - 1)
        strong_mask = s_dense_keys[at] == keys
    else:
        strong_mask = np.zeros(keys.shape[0], dtype=bool)
    keep = strong_mask | (rows == cols)
    a_s = CSRMatrix.from_coo(rows[keep], cols[keep], a.data[keep], a.shape,
                             sum_duplicates=False)

    a_s_f = a_s.extract_rows(f_points)
    # Strong F->C couplings: the interpolation set of each F point.
    a_fc = a_s_f.extract_cols(c_points)

    diag = a.diagonal().astype(np.float64)
    safe_diag = np.where(diag != 0, diag, 1.0)

    covered = fpos
    if method == "direct":
        if fpos is not None:
            w_tilde = a_fc.extract_rows(fpos).scale_rows(
                1.0 / safe_diag[f_points[fpos]]
            )
        else:
            w_tilde = a_fc.scale_rows(1.0 / safe_diag[f_points])
    else:
        # Strong F-F block of A (off-diagonal only).
        a_ff = a_s_f.extract_cols(f_points)
        rr = a_ff.row_ids()
        off = rr != a_ff.indices
        a_ff = CSRMatrix.from_coo(
            rr[off], a_ff.indices[off], a_ff.data[off], a_ff.shape,
            sum_duplicates=False,
        )
        # D^{-1} A_FC on the F rows (distance-one term of the extension).
        dinv_afc = a_fc.scale_rows(1.0 / safe_diag[f_points])
        # The one SpGEMM of the setup step: extend through strong F-F
        # paths.  One Neumann term of -(A_FF)^{-1} A_FC gives
        # W ~ -D^{-1} A_FC + D^{-1} A_FF^{off} (D^{-1} A_FC): the
        # distance-two contribution carries the *opposite* sign of the
        # direct term before the global negation, i.e. it reinforces it
        # for M-matrices (two negative couplings multiply to a positive
        # path weight).
        a_ff_scaled = a_ff.scale_rows(1.0 / safe_diag[f_points])
        if fpos is not None:
            if rows_spgemm is None:
                rows_spgemm = lambda x, y, fp: (  # noqa: E731
                    spgemm(x.extract_rows(fp), y), fp,
                )
            ext, covered = rows_spgemm(a_ff_scaled, dinv_afc, fpos)
            covered = np.asarray(covered, dtype=np.int64)
            w_tilde = dinv_afc.extract_rows(covered).add(ext, alpha=-1.0)
        else:
            ext = spgemm(a_ff_scaled, dinv_afc)
            w_tilde = dinv_afc.add(ext, alpha=-1.0)

    # Classical direct-interpolation scaling: scale each F row so that the
    # interpolated value reproduces the full off-diagonal weight of the row,
    # i.e. row i of P sums to t_i = -(sum_{k != i} a_ik) / a_ii.  For an
    # interior M-matrix row t_i = 1 (constants are reproduced); Dirichlet
    # boundary rows get t_i < 1, as the classical formula prescribes.
    rows_a = a.row_ids()
    offdiag = rows_a != a.indices
    off_sums = np.bincount(rows_a[offdiag], weights=a.data[offdiag], minlength=n)
    f_sel = f_points if covered is None else f_points[covered]
    target = -off_sums[f_sel] / safe_diag[f_sel]
    # bincount returns int64 (not float64) when the input is empty, even
    # with weights= — a restricted dirty-row slice can be entirely empty,
    # and the int64 result would poison the divide's out= buffer below.
    w_sums = np.bincount(w_tilde.row_ids(), weights=w_tilde.data,
                         minlength=w_tilde.nrows).astype(np.float64, copy=False)
    ok = (np.abs(w_sums) > 1e-12) & (np.abs(target) > 1e-12)
    # Rows with degenerate sums fall back to the plain Jacobi weights -w~.
    scale = np.where(ok, np.divide(target, w_sums, where=ok,
                                   out=np.ones_like(w_sums)), -1.0)
    # Bound the rescaling so near-cancelling rows cannot explode P (this
    # also keeps coarse operators within FP16 range for the mixed schedule).
    scale = np.clip(scale, -16.0, 16.0)
    w = w_tilde.scale_rows(scale)

    if covered is not None:
        # Compact result over the covered F rows: W's rows are already the
        # covered positions, and truncation is row-local, so every row is
        # bit-identical to the same row of the full, truncated P.
        p_sub = truncate_interpolation(
            w, trunc_factor=trunc_factor, max_elmts=max_elmts
        )
        return p_sub, f_points[covered]
    p = _expand_to_full(w, f_points, c_points, n)
    return truncate_interpolation(p, trunc_factor=trunc_factor, max_elmts=max_elmts)


def truncate_interpolation(
    p: CSRMatrix, *, trunc_factor: float = 0.1, max_elmts: int = 4
) -> CSRMatrix:
    """Truncate P per row and rescale to preserve row sums.

    Keeps, in each row, entries with ``|p_ij| >= trunc_factor * max_j |p_ij|``
    and at most the ``max_elmts`` largest-magnitude entries, then rescales
    the survivors so the row sum is unchanged (HYPRE's truncation).
    """
    if trunc_factor < 0 or trunc_factor >= 1:
        raise ValueError(f"trunc_factor must be in [0, 1), got {trunc_factor}")
    if max_elmts < 1:
        raise ValueError("max_elmts must be >= 1")
    if p.nnz == 0:
        return p
    rows = p.row_ids()
    mags = np.abs(p.data)
    row_max = segment_max(mags, rows, p.nrows, sorted_ids=True)
    keep = mags >= trunc_factor * row_max[rows]

    # Cap entries per row at max_elmts, keeping the largest magnitudes.
    # Sort by (row, -|v|); positions beyond max_elmts within a row drop out.
    order = np.lexsort((-mags, rows))
    sorted_rows = rows[order]
    first = np.ones(sorted_rows.shape[0], dtype=bool)
    first[1:] = sorted_rows[1:] != sorted_rows[:-1]
    # rank within row = index - index of the row's first element
    idx = np.arange(sorted_rows.shape[0])
    row_start = idx[first][np.cumsum(first) - 1]
    rank = idx - row_start
    keep_rank = np.ones_like(keep)
    keep_rank[order] = rank < max_elmts
    keep &= keep_rank

    old_sums = np.bincount(rows, weights=p.data, minlength=p.nrows)
    new_sums = np.bincount(rows[keep], weights=p.data[keep], minlength=p.nrows)
    ok = np.abs(new_sums) > 1e-12
    scale = np.where(
        ok, np.divide(old_sums, new_sums, where=ok, out=np.ones_like(old_sums)), 1.0
    )
    scale = np.clip(scale, -16.0, 16.0)
    data = p.data[keep] * scale[rows[keep]]
    return CSRMatrix.from_coo(rows[keep], p.indices[keep], data, p.shape,
                              sum_duplicates=False)
