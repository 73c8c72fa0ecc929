"""Differential oracles: replay kernel calls against scipy references.

Each ``verify_*`` function recomputes the kernel's result through an
independent path (scipy sparse / dense float64 algebra) and compares with a
**precision-aware tolerance**: the oracle replays the exact quantisation
the kernel applies (values cast to ``precision.np_dtype`` before the
product), so the only admissible difference is accumulation-order rounding
— bounded by ``eps(precision.accum_dtype)`` scaled by the accumulation
depth and the magnitude bound ``|A| @ |x|``.  FP64 is therefore checked at
float64-ulp tightness; FP32/FP16 get proportionally wider, ulp-scaled
bands.  Structural expectations (output dtype, plan coherence, bitmap
agreement) are exact.

Where the executing precision is *not* knowable at the call site (the
smoother and Galerkin hooks sit above the backend's per-level schedule),
the tolerance is widened to the coarsest precision any backend may apply
(FP16 quantisation, FP32 accumulation); the tight per-precision check
still happens underneath, at the mbsr/csr kernel entry points.

The kernel oracles take the :class:`~repro.kernels.record.KernelRecord`
of the call they check and, once it passes, :func:`stamp` it.  Under
checked mode the one charge point,
:meth:`repro.perf.timeline.PerformanceLog.extend`, rejects any SpGEMM,
SpMV or SpMM record without the stamp (``perf/unchecked-record``), so a
kernel that skips its oracle cannot have its work charged.
"""

from __future__ import annotations

import numpy as np

from repro.check.fingerprint import fingerprint
from repro.check.violation import ContractViolation

__all__ = [
    "STAMP",
    "stamp",
    "verify_spmv",
    "verify_csr_spmv",
    "verify_spgemm",
    "verify_csr_spgemm",
    "verify_conversion",
    "verify_twin",
    "verify_galerkin",
    "verify_smoother",
    "verify_distributed_spmv",
    "verify_rows_slice",
]

#: The ``KernelRecord.detail`` key an oracle sets on the record it verified.
STAMP = "oracle_verified"

#: Safety factor on the analytic rounding bounds (accumulation order is
#: implementation defined; 4x absorbs pairwise-vs-sequential differences).
_SAFETY = 4.0

#: Quantisation step of the loosest precision any backend schedule may
#: apply, used where the call site cannot see the executing precision.
_WORST_CASE_EPS = float(np.finfo(np.float16).eps)

#: Absolute quantisation error of that precision's gradual underflow: the
#: subnormal spacing (twice the round-to-nearest error).
_UNDERFLOW_STEP = float(np.finfo(np.float16).smallest_subnormal)


def _fail(kernel, invariant, detail, **operands):
    raise ContractViolation(
        kernel, invariant, detail,
        operands={k: fingerprint(v) for k, v in operands.items()},
    )


def stamp(record) -> None:
    """Mark *record* as the record of a verified call (no-op for None)."""
    if record is not None:
        record.detail[STAMP] = True


def _acc_eps(precision) -> float:
    return float(np.finfo(precision.accum_dtype).eps)


def _quantise(values: np.ndarray, precision) -> np.ndarray:
    """Replay the kernel's value quantisation, widened back to float64."""
    return np.asarray(values).astype(precision.np_dtype).astype(np.float64)


def _mbsr_scipy(mat, precision):
    """Quantised scipy CSR twin of an mBSR matrix, built bit-by-bit.

    Constructed from the bitmap positions directly (not through
    ``mbsr_to_csr``) so the reference shares no dataflow with the kernels
    under test.
    """
    import scipy.sparse as sp

    from repro.formats.bitmap import BLOCK_SIZE, bitmap_to_mask

    if mat.blc_num == 0:
        return sp.csr_matrix(mat.shape, dtype=np.float64)
    mask = bitmap_to_mask(mat.blc_map)
    brow = mat.block_row_ids()
    r_off = np.arange(BLOCK_SIZE, dtype=np.int64)
    rows = brow[:, None, None] * BLOCK_SIZE + r_off[None, :, None]
    cols = mat.blc_idx[:, None, None] * BLOCK_SIZE + r_off[None, None, :]
    rows = np.broadcast_to(rows, mask.shape)[mask]
    cols = np.broadcast_to(cols, mask.shape)[mask]
    vals = _quantise(mat.blc_val, precision)[mask]
    return sp.csr_matrix((vals, (rows, cols)), shape=mat.shape)


def _csr_scipy(mat, precision):
    import scipy.sparse as sp

    return sp.csr_matrix(
        (_quantise(mat.data, precision), mat.indices, mat.indptr),
        shape=mat.shape,
    )


def _compare_vectors(kernel, got, ref, tol, operands, invariant="spmv/differential"):
    got = np.asarray(got, dtype=np.float64)
    got_bad = ~np.isfinite(got)
    ref_bad = ~np.isfinite(ref)
    if not np.array_equal(got_bad, ref_bad):
        _fail(kernel, invariant,
              "non-finite pattern differs from the reference", **operands)
    ok = got_bad | (np.abs(got - ref) <= tol)
    if not np.all(ok):
        i = int(np.argmax(~ok))
        _fail(kernel, invariant,
              f"entry {i}: got {got[i]!r}, reference {ref[i]!r}, "
              f"tolerance {tol[i] if np.ndim(tol) else tol!r} "
              f"({int(np.count_nonzero(~ok))} entries out of band)",
              **operands)


# ----------------------------------------------------------------------
# SpMV
# ----------------------------------------------------------------------
def _verify_plan(mat, plan, kernel):
    """Plan/operator coherence: the plan must describe *this* matrix."""
    from repro.kernels.spmv import build_spmv_plan

    if plan.use_tensor_cores:
        fresh = build_spmv_plan(mat, allow_tensor_cores=True, tc_threshold=-1.0)
    else:
        fresh = build_spmv_plan(mat, allow_tensor_cores=False)
    if plan != fresh:
        _fail(kernel, "spmv/plan-coherent",
              f"supplied plan {plan} does not match a rebuild {fresh} "
              "for the operand matrix", A=mat)


def verify_spmv(mat, x, y, precision, plan=None, kernel="mbsr_spmv",
                record=None):
    """Differential + structural check of one ``mbsr_spmv`` call."""
    from repro.check.structural import validate_mbsr, validate_operator_cache

    validate_mbsr(mat, kernel=kernel)
    validate_operator_cache(mat, kernel=kernel)
    acc_dtype = np.dtype(precision.accum_dtype)
    y = np.asarray(y)
    if y.shape != (mat.nrows,):
        _fail(kernel, "spmv/output-shape",
              f"y has shape {y.shape}, expected ({mat.nrows},)", A=mat, x=x)
    if y.dtype != acc_dtype:
        _fail(kernel, "spmv/output-dtype",
              f"y has dtype {y.dtype}, expected {acc_dtype} "
              f"(accumulator of {precision.value})", A=mat, x=x)
    if plan is not None:
        _verify_plan(mat, plan, kernel)
    aq = _mbsr_scipy(mat, precision)
    xq = _quantise(np.asarray(x), precision)
    ref = aq @ xq
    scale = abs(aq) @ np.abs(xq)
    terms = np.diff(aq.indptr)
    tol = _SAFETY * _acc_eps(precision) * (terms + 8.0) * scale
    _compare_vectors(kernel, y, ref, tol, {"A": mat, "x": x, "y": y})
    stamp(record)


def verify_csr_spmv(mat, x, y, precision, kernel="csr_spmv", record=None):
    """Differential check of one vendor-style ``csr_spmv`` call."""
    from repro.check.structural import validate_csr

    validate_csr(mat, kernel=kernel)
    acc_dtype = np.dtype(precision.accum_dtype)
    y = np.asarray(y)
    if y.shape != (mat.nrows,):
        _fail(kernel, "spmv/output-shape",
              f"y has shape {y.shape}, expected ({mat.nrows},)", A=mat, x=x)
    if y.dtype != acc_dtype:
        _fail(kernel, "spmv/output-dtype",
              f"y has dtype {y.dtype}, expected {acc_dtype}", A=mat, x=x)
    aq = _csr_scipy(mat, precision)
    xq = _quantise(np.asarray(x), precision)
    ref = aq @ xq
    scale = abs(aq) @ np.abs(xq)
    terms = np.diff(aq.indptr)
    tol = _SAFETY * _acc_eps(precision) * (terms + 8.0) * scale
    _compare_vectors(kernel, y, ref, tol, {"A": mat, "x": x, "y": y})
    stamp(record)


def verify_distributed_spmv(global_mat, x, y, precision, num_ranks,
                            kernel="par_spmv"):
    """Check a distributed SpMV assembly against the global operator."""
    aq = _csr_scipy(global_mat, precision)
    xq = _quantise(np.asarray(x), precision)
    ref = aq @ xq
    scale = abs(aq) @ np.abs(xq)
    terms = np.diff(aq.indptr)
    # Per-rank tiling changes the tile layout (hence summation order) and
    # each rank splits rows into diag + offd partial sums.
    tol = _SAFETY * _acc_eps(precision) * (terms + 8.0 + 2.0 * num_ranks) * scale
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (global_mat.nrows,):
        _fail(kernel, "spmv/output-shape",
              f"assembled y has shape {y.shape}, expected "
              f"({global_mat.nrows},)", A=global_mat, x=x)
    _compare_vectors(kernel, y, ref, tol, {"A": global_mat, "x": x, "y": y})


# ----------------------------------------------------------------------
# SpGEMM
# ----------------------------------------------------------------------
def _sparse_compare(kernel, invariant, got, ref, scale, factor, operands):
    """Elementwise ``|got - ref| <= factor * scale`` over the union pattern."""
    diff = (got - ref).tocoo()
    if diff.nnz == 0:
        return
    bound = np.asarray(scale.tocsr()[diff.row, diff.col]).ravel() * factor
    bad = np.abs(diff.data) > bound
    if np.any(bad):
        i = int(np.argmax(bad))
        _fail(kernel, invariant,
              f"entry ({diff.row[i]}, {diff.col[i]}): difference "
              f"{diff.data[i]!r} exceeds tolerance {bound[i]!r} "
              f"({int(np.count_nonzero(bad))} entries out of band)",
              **operands)


def _pattern_coo(mat_scipy):
    coo = mat_scipy.tocoo()
    order = np.lexsort((coo.col, coo.row))
    return coo.row[order], coo.col[order]


def verify_spgemm(mat_a, mat_b, mat_c, precision, out_dtype=None,
                  kernel="mbsr_spgemm", record=None):
    """Differential + structural check of one ``mbsr_spgemm`` call."""
    from repro.check.structural import validate_mbsr

    validate_mbsr(mat_a, kernel=kernel, name="A")
    validate_mbsr(mat_b, kernel=kernel, name="B")
    validate_mbsr(mat_c, kernel=kernel, name="C")
    if mat_c.shape != (mat_a.nrows, mat_b.ncols):
        _fail(kernel, "spgemm/output-shape",
              f"C has shape {mat_c.shape}, expected "
              f"({mat_a.nrows}, {mat_b.ncols})", A=mat_a, B=mat_b)
    expected_dtype = np.dtype(out_dtype) if out_dtype is not None else np.dtype(
        precision.accum_dtype
    )
    if mat_c.dtype != expected_dtype:
        _fail(kernel, "spgemm/output-dtype",
              f"C values have dtype {mat_c.dtype}, expected {expected_dtype}",
              A=mat_a, B=mat_b, C=mat_c)

    aq = _mbsr_scipy(mat_a, precision)
    bq = _mbsr_scipy(mat_b, precision)
    # C values are compared as stored (they are already accumulator/output
    # dtype); re-quantising would hide output-dtype bugs.
    import scipy.sparse as sp

    from repro.formats.bitmap import BLOCK_SIZE, bitmap_to_mask

    if mat_c.blc_num:
        mask = bitmap_to_mask(mat_c.blc_map)
        brow = mat_c.block_row_ids()
        off = np.arange(BLOCK_SIZE, dtype=np.int64)
        rows = np.broadcast_to(
            brow[:, None, None] * BLOCK_SIZE + off[None, :, None], mask.shape
        )[mask]
        cols = np.broadcast_to(
            mat_c.blc_idx[:, None, None] * BLOCK_SIZE + off[None, None, :],
            mask.shape,
        )[mask]
        c_vals = np.asarray(mat_c.blc_val, dtype=np.float64)[mask]
        c_scipy = sp.csr_matrix((c_vals, (rows, cols)), shape=mat_c.shape)
    else:
        c_scipy = sp.csr_matrix(mat_c.shape, dtype=np.float64)

    # Symbolic/numeric agreement: the bitmap must carry exactly the scalar
    # boolean product pattern (Alg. 4's OR-accumulation).  The pattern is
    # over *structural* entries — stored positions, explicit zeros
    # included — so the reference multiplies all-ones matrices on the
    # operands' patterns (counts are positive: no cancellation can prune).
    ones_a, ones_b = aq.copy(), bq.copy()
    ones_a.data = np.ones_like(ones_a.data)
    ones_b.data = np.ones_like(ones_b.data)
    pattern_ref = ones_a @ ones_b
    got_r, got_c = _pattern_coo(c_scipy)
    ref_r, ref_c = _pattern_coo(pattern_ref)
    if not (np.array_equal(got_r, ref_r) and np.array_equal(got_c, ref_c)):
        _fail(kernel, "spgemm/bitmap-pattern",
              f"C stores {got_r.shape[0]} structural entries, the boolean "
              f"product has {ref_r.shape[0]}", A=mat_a, B=mat_b, C=mat_c)

    ref = aq @ bq
    scale = abs(aq) @ abs(bq)
    depth = float(np.diff(aq.indptr).max()) if aq.nnz else 1.0
    # A narrower output dtype rounds every accumulated value once more:
    # at most half its eps relative to |c| <= (|A| @ |B|).
    out_eps = float(np.finfo(expected_dtype).eps)
    round_out = out_eps if out_eps > _acc_eps(precision) else 0.0
    factor = _SAFETY * (_acc_eps(precision) * (depth + 8.0) + round_out)
    _sparse_compare(kernel, "spgemm/differential", c_scipy, ref, scale,
                    factor, {"A": mat_a, "B": mat_b, "C": mat_c})
    stamp(record)


def verify_csr_spgemm(mat_a, mat_b, mat_c, precision, kernel="csr_spgemm",
                      record=None):
    """Differential check of one vendor-style ``csr_spgemm`` call."""
    from repro.check.structural import validate_csr

    validate_csr(mat_a, kernel=kernel, name="A")
    validate_csr(mat_b, kernel=kernel, name="B")
    validate_csr(mat_c, kernel=kernel, name="C")
    if mat_c.shape != (mat_a.nrows, mat_b.ncols):
        _fail(kernel, "spgemm/output-shape",
              f"C has shape {mat_c.shape}, expected "
              f"({mat_a.nrows}, {mat_b.ncols})", A=mat_a, B=mat_b)
    import scipy.sparse as sp

    aq = _csr_scipy(mat_a, precision)
    bq = _csr_scipy(mat_b, precision)
    c_scipy = sp.csr_matrix(
        (np.asarray(mat_c.data, dtype=np.float64), mat_c.indices, mat_c.indptr),
        shape=mat_c.shape,
    )
    ref = aq @ bq
    scale = abs(aq) @ abs(bq)
    depth = float(np.diff(aq.indptr).max()) if aq.nnz else 1.0
    factor = _SAFETY * _acc_eps(precision) * (depth + 8.0)
    _sparse_compare(kernel, "spgemm/differential", c_scipy, ref, scale,
                    factor, {"A": mat_a, "B": mat_b, "C": mat_c})
    stamp(record)


def verify_rows_slice(sub, full, rows, kernel, invariant, records=(),
                      **operands):
    """A dirty-row replay must be a bytewise slice of the full product:
    block-row ``i`` of *sub* is block-row ``rows[i]`` of *full* (tiles,
    bitmaps and value bytes).  Stamps *records*, the replay's."""
    s0 = full.blc_ptr[rows]
    counts = (full.blc_ptr[rows + 1] - s0).astype(np.int64)
    total = int(counts.sum())
    sel = np.repeat(s0, counts) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    if not (np.array_equal(np.diff(sub.blc_ptr), counts)
            and np.array_equal(sub.blc_idx, full.blc_idx[sel])
            and np.array_equal(sub.blc_map, full.blc_map[sel])
            and sub.blc_val.tobytes() == full.blc_val[sel].tobytes()):
        _fail(kernel, invariant,
              f"restricted product diverges from the full product on "
              f"{rows.shape[0]} block-rows", **operands)
    for record in records:
        stamp(record)


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------
def verify_conversion(csr, mbsr, kernel="csr2mbsr"):
    """CSR -> mBSR must be a lossless re-tiling (exact, no tolerance)."""
    from repro.check.structural import validate_mbsr
    from repro.formats.bitmap import BLOCK_SIZE, bitmap_to_mask

    validate_mbsr(mbsr, kernel=kernel)
    if mbsr.shape != csr.shape:
        _fail(kernel, "conversion/shape",
              f"mBSR shape {mbsr.shape} != CSR shape {csr.shape}",
              csr=csr, mbsr=mbsr)
    if mbsr.blc_num:
        mask = bitmap_to_mask(mbsr.blc_map)
        brow = mbsr.block_row_ids()
        off = np.arange(BLOCK_SIZE, dtype=np.int64)
        rows = np.broadcast_to(
            brow[:, None, None] * BLOCK_SIZE + off[None, :, None], mask.shape
        )[mask]
        cols = np.broadcast_to(
            mbsr.blc_idx[:, None, None] * BLOCK_SIZE + off[None, None, :],
            mask.shape,
        )[mask]
        vals = np.asarray(mbsr.blc_val)[mask]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)
    if not (
        rows.shape[0] == csr.nnz
        and np.array_equal(rows, csr.row_ids())
        and np.array_equal(cols, csr.indices)
        and np.array_equal(vals, np.asarray(csr.data))
    ):
        _fail(kernel, "conversion/lossless-roundtrip",
              f"mBSR stores {rows.shape[0]} bits, CSR has {csr.nnz} entries "
              "(or positions/values differ)", csr=csr, mbsr=mbsr)


def verify_twin(csr, twin, kernel="mbsr2csr"):
    """A product's derived mBSR twin must be the conversion of its pruned
    CSR: lossless (:func:`verify_conversion`) and bytewise
    ``csr_to_mbsr(csr)``, the conversion it stands in for."""
    from repro.formats.convert import csr_to_mbsr

    verify_conversion(csr, twin, kernel=kernel)
    ref = csr_to_mbsr(csr)
    for name in ("blc_ptr", "blc_idx", "blc_map", "blc_val"):
        got, want = getattr(twin, name), getattr(ref, name)
        if not (got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes()):
            _fail(kernel, "conversion/twin-bytewise",
                  f"derived twin's {name} differs from csr_to_mbsr of its CSR",
                  csr=csr, mbsr=twin)


# ----------------------------------------------------------------------
# AMG-level oracles (precision not visible at the call site)
# ----------------------------------------------------------------------
def verify_galerkin(r, a, p, rap, kernel="galerkin_product"):
    """``RAP`` against the scipy triple product, worst-case-precision band."""
    from repro.check.structural import validate_csr

    validate_csr(rap, kernel=kernel, name="RAP")
    if rap.shape != (r.nrows, p.ncols):
        _fail(kernel, "galerkin/output-shape",
              f"RAP has shape {rap.shape}, expected ({r.nrows}, {p.ncols})",
              R=r, A=a, P=p)
    rs, as_, ps = (m.to_scipy().astype(np.float64) for m in (r, a, p))
    import scipy.sparse as sp

    ref = rs @ as_ @ ps
    scale = abs(rs) @ abs(as_) @ abs(ps)
    got = sp.csr_matrix(
        (np.asarray(rap.data, dtype=np.float64), rap.indices, rap.indptr),
        shape=rap.shape,
    )
    depth = float(np.diff(as_.indptr).max() + 2) if as_.nnz else 2.0
    factor = _SAFETY * _WORST_CASE_EPS * depth
    _sparse_compare(kernel, "galerkin/differential", got, ref, scale, factor,
                    {"R": r, "A": a, "P": p, "RAP": rap})


def verify_smoother(a, dinv, x0, b, x_out, num_sweeps,
                    kernel="l1_jacobi_sweep"):
    """L1-Jacobi sweeps against a float64 scipy replay of Alg. 2.

    The injected SpMV may have run at any precision of the backend's
    schedule, so the band is the worst-case FP16 quantisation error
    propagated through the sweeps; the per-precision tight check happens
    at the SpMV kernel entry underneath.  Besides the relative term, an
    iterate entry below FP16's smallest normal quantises onto the
    subnormal grid with an *absolute* error of up to half its spacing,
    whatever its own size; ``under`` carries that gradual-underflow error
    through the sweeps alongside ``bound``.
    """
    a_s = a.to_scipy().astype(np.float64)
    a_abs = abs(a_s)
    d = np.asarray(dinv, dtype=np.float64)
    x = np.asarray(x0, dtype=np.float64).copy()
    bound = np.zeros_like(x)
    under = np.zeros_like(x)
    b64 = np.asarray(b, dtype=np.float64)
    for _ in range(int(num_sweeps)):
        ax_mag = a_abs @ np.abs(x)
        x = x + d * (b64 - a_s @ x)
        bound = bound + np.abs(d) * (np.abs(b64) + ax_mag + a_abs @ bound)
        under = under + np.abs(d) * (a_abs @ (under + _UNDERFLOW_STEP))
    terms = np.diff(a_s.indptr)
    tol = _SAFETY * (_WORST_CASE_EPS * (terms + 8.0) * (bound + np.abs(x))
                     + under)
    _compare_vectors(kernel, np.asarray(x_out, dtype=np.float64), x, tol,
                     {"A": a, "x0": x0, "b": b, "x_out": x_out})
