"""Structural validators: the paper's implicit invariants, made explicit.

Each validator re-derives an invariant from first principles (never through
the code path that maintains it) and raises
:class:`~repro.check.violation.ContractViolation` on disagreement:

* :func:`validate_csr` — canonical ``indptr``, sorted/unique in-range
  column indices;
* :func:`validate_mbsr` — everything CSR-shaped plus the Sec. IV.B
  bitmap/value coupling: values only under set bits, no stored all-zero
  tiles, clean row *and* column padding;
* :func:`validate_operator_cache` — every memoised field of the PR-1
  :class:`~repro.kernels.cache.OperatorCache` agrees with a fresh
  recomputation from the owning matrix's arrays, and the frozen arrays are
  actually frozen;
* :func:`validate_hierarchy` — level shapes chain correctly, ``R = P^T``
  exactly, smoothing diagonals are finite and positive;
* :func:`validate_partition` — contiguous, exhaustive rank ownership
  (empty local blocks allowed: ``ranks > n`` is legal).
"""

from __future__ import annotations

import numpy as np

from repro.check.fingerprint import fingerprint
from repro.check.violation import ContractViolation

__all__ = [
    "validate_csr",
    "validate_mbsr",
    "validate_operator_cache",
    "validate_hierarchy",
    "validate_partition",
]


def _fail(kernel: str, invariant: str, detail: str, **operands) -> None:
    raise ContractViolation(
        kernel, invariant, detail,
        operands={k: fingerprint(v) for k, v in operands.items()},
    )


# ----------------------------------------------------------------------
# CSR
# ----------------------------------------------------------------------
def validate_csr(mat, kernel: str = "CSRMatrix", name: str = "A") -> None:
    """Raise unless *mat* is a canonical CSR matrix."""
    ptr, idx, data = mat.indptr, mat.indices, mat.data
    nrows, ncols = mat.shape
    if ptr.shape[0] != nrows + 1 or ptr[0] != 0:
        _fail(kernel, "csr/indptr-canonical",
              f"{name}.indptr has length {ptr.shape[0]} (rows={nrows}) "
              f"or indptr[0]={ptr[0]} != 0", **{name: mat})
    if np.any(np.diff(ptr) < 0):
        _fail(kernel, "csr/indptr-canonical",
              f"{name}.indptr is not non-decreasing", **{name: mat})
    if idx.shape[0] != data.shape[0] or idx.shape[0] != int(ptr[-1]):
        _fail(kernel, "csr/indptr-canonical",
              f"{name}: indices/data length {idx.shape[0]}/{data.shape[0]} "
              f"!= indptr[-1]={int(ptr[-1])}", **{name: mat})
    if idx.size and (idx.min() < 0 or idx.max() >= ncols):
        _fail(kernel, "csr/indices-in-range",
              f"{name}: column index outside [0, {ncols})", **{name: mat})
    if idx.size:
        # Strictly increasing (column, within row) key <=> sorted + unique.
        key = mat.row_ids() * (ncols + 1) + idx
        if np.any(np.diff(key) <= 0):
            _fail(kernel, "csr/indices-sorted-unique",
                  f"{name}: columns not sorted/unique within rows",
                  **{name: mat})


# ----------------------------------------------------------------------
# mBSR
# ----------------------------------------------------------------------
def validate_mbsr(mat, kernel: str = "MBSRMatrix", name: str = "A") -> None:
    """Raise unless *mat* satisfies every mBSR invariant of Sec. IV.B."""
    from repro.formats.bitmap import BLOCK_SIZE, bitmap_to_mask
    from repro.formats.mbsr import block_rows

    mb = block_rows(mat.nrows)
    nb = block_rows(mat.ncols)
    ptr, idx, val, bmap = mat.blc_ptr, mat.blc_idx, mat.blc_val, mat.blc_map
    if ptr.shape[0] != mb + 1 or ptr[0] != 0 or np.any(np.diff(ptr) < 0):
        _fail(kernel, "mbsr/ptr-canonical",
              f"{name}.blc_ptr not a canonical offset array "
              f"(len={ptr.shape[0]}, mb={mb})", **{name: mat})
    blc_num = int(ptr[-1])
    if idx.shape[0] != blc_num or bmap.shape[0] != blc_num:
        _fail(kernel, "mbsr/array-lengths",
              f"{name}: blc_idx/blc_map length {idx.shape[0]}/{bmap.shape[0]}"
              f" != blc_ptr[-1]={blc_num}", **{name: mat})
    if val.shape != (blc_num, BLOCK_SIZE, BLOCK_SIZE):
        _fail(kernel, "mbsr/array-lengths",
              f"{name}: blc_val shape {val.shape} != ({blc_num}, 4, 4)",
              **{name: mat})
    if idx.size and (idx.min() < 0 or idx.max() >= nb):
        _fail(kernel, "mbsr/indices-in-range",
              f"{name}: block column outside [0, {nb})", **{name: mat})
    if blc_num:
        rows = mat.block_row_ids()
        key = rows * (nb + 1) + idx
        if np.any(np.diff(key) <= 0):
            _fail(kernel, "mbsr/tiles-sorted-unique",
                  f"{name}: tiles not sorted/unique within block rows",
                  **{name: mat})
    mask = bitmap_to_mask(bmap)
    if not np.all(val[~mask] == 0):
        bad = int(np.count_nonzero(val[~mask]))
        _fail(kernel, "mbsr/bitmap-value-agreement",
              f"{name}: {bad} nonzero value(s) outside the tile bitmaps",
              **{name: mat})
    if np.any(bmap == 0):
        _fail(kernel, "mbsr/no-empty-tiles",
              f"{name}: {int(np.sum(bmap == 0))} stored all-zero tile(s)",
              **{name: mat})
    # Padding rows/columns beyond the logical shape must be structurally
    # empty — a set bit there would feed phantom entries into the MMA unit.
    pad_rows = mb * BLOCK_SIZE - mat.nrows
    if pad_rows and blc_num:
        last = mat.block_row_ids() == mb - 1
        if np.any(mask[last][:, BLOCK_SIZE - pad_rows:, :]):
            _fail(kernel, "mbsr/row-padding-clean",
                  f"{name}: set bit in the {pad_rows} padding row(s)",
                  **{name: mat})
    pad_cols = nb * BLOCK_SIZE - mat.ncols
    if pad_cols and blc_num:
        last = idx == nb - 1
        if np.any(mask[last][:, :, BLOCK_SIZE - pad_cols:]):
            _fail(kernel, "mbsr/col-padding-clean",
                  f"{name}: set bit in the {pad_cols} padding column(s)",
                  **{name: mat})


# ----------------------------------------------------------------------
# OperatorCache coherence
# ----------------------------------------------------------------------
def validate_operator_cache(mat, kernel: str = "OperatorCache") -> None:
    """Raise unless every memoised field of *mat*'s cache is coherent.

    Each populated field is recomputed fresh from the matrix arrays and
    compared; cached arrays must also be frozen (``writeable=False``), the
    invariant that makes sharing them across kernel calls safe.
    """
    cache = mat._cache
    if cache is None:
        return  # nothing memoised yet — vacuously coherent
    from repro.formats.bitmap import bitmap_popcount
    from repro.kernels.cache import widened_tiles
    from repro.kernels.spmv import TilePasses, build_spmv_plan, slot_pairing

    def _cmp(field_name: str, cached, fresh) -> None:
        if cached is None:
            return
        if isinstance(cached, np.ndarray) and cached.flags.writeable:
            _fail(kernel, "cache/frozen-arrays",
                  f"cached {field_name} is writeable", A=mat)
        if not np.array_equal(np.asarray(cached), np.asarray(fresh)):
            _fail(kernel, "cache/coherent",
                  f"cached {field_name} disagrees with a fresh recomputation",
                  A=mat, cached=np.asarray(cached), fresh=np.asarray(fresh))

    _cmp("pop_per_tile", cache._pop_per_tile, bitmap_popcount(mat.blc_map))
    if cache._nnz is not None:
        fresh_nnz = int(bitmap_popcount(mat.blc_map).sum())
        if cache._nnz != fresh_nnz:
            _fail(kernel, "cache/coherent",
                  f"cached nnz {cache._nnz} != bitmap popcount sum {fresh_nnz}",
                  A=mat)
    _cmp("blocks_per_row", cache._blocks_per_row, np.diff(mat.blc_ptr))
    _cmp(
        "block_row_ids", cache._block_row_ids,
        np.repeat(np.arange(mat.mb, dtype=np.int64), np.diff(mat.blc_ptr)),
    )
    for (in_dtype, acc_dtype), tiles in cache._tiles.items():
        _cmp(f"tiles[{in_dtype}->{acc_dtype}]", tiles,
             widened_tiles(mat.blc_val, in_dtype, acc_dtype))
    for (in_dtype, acc_dtype), passes in cache._tile_passes.items():
        # A refilled entry shares its layout with an operator of the same
        # structure; the name says so, as a violation's origin.
        origin = "refilled" if passes.refilled else "built"
        name = f"tile_passes[{in_dtype}->{acc_dtype}, {origin}]"
        if passes.pairing != slot_pairing(acc_dtype):
            _fail(kernel, "cache/coherent",
                  f"cached {name} pairs slots {passes.pairing}, the "
                  f"association probe gives {slot_pairing(acc_dtype)}", A=mat)
        fresh = TilePasses(mat, widened_tiles(mat.blc_val, in_dtype, acc_dtype),
                           in_dtype, acc_dtype, passes.pairing)
        if passes.full_rows != fresh.full_rows:
            _fail(kernel, "cache/coherent",
                  f"cached {name} pairs {passes.full_rows} full tile rows, "
                  f"a rebuild {fresh.full_rows}", A=mat)
        parts = [("pass1", passes.pass1, fresh.pass1),
                 ("reduce", passes.reduce, fresh.reduce)]
        if passes.dense is not None:
            dense_tiles, dense_reduce = passes.dense
            fresh_tiles, fresh_reduce = fresh.dense_passes()
            _cmp(f"{name}.dense.tiles", dense_tiles, fresh_tiles)
            parts.append(("dense.reduce", dense_reduce, fresh_reduce))
        for part, got, want in parts:
            if got is None:
                continue  # no compact passes without a slot pairing
            if got.shape != want.shape:
                _fail(kernel, "cache/coherent",
                      f"cached {name}.{part} has shape {got.shape}, a "
                      f"rebuild {want.shape}", A=mat)
            for field in ("data", "indices", "indptr"):
                _cmp(f"{name}.{part}.{field}", getattr(got, field),
                     getattr(want, field))
    for (allow_tc, threshold), plan in cache._spmv_plans.items():
        fresh_plan = build_spmv_plan(
            mat, allow_tensor_cores=allow_tc, tc_threshold=threshold
        )
        if plan != fresh_plan:
            _fail(kernel, "cache/plan-coherent",
                  f"cached SpMV plan for (allow_tc={allow_tc}, "
                  f"threshold={threshold}) is {plan}, rebuild gives "
                  f"{fresh_plan}", A=mat)


# ----------------------------------------------------------------------
# AMG hierarchy
# ----------------------------------------------------------------------
def validate_hierarchy(hierarchy, kernel: str = "amg_setup") -> None:
    """Raise unless the hierarchy's operators chain and pair correctly."""
    levels = hierarchy.levels
    if not levels:
        _fail(kernel, "hierarchy/nonempty", "hierarchy has no levels")
    for k, lvl in enumerate(levels):
        if lvl.index != k:
            _fail(kernel, "hierarchy/level-indices",
                  f"level {k} carries index {lvl.index}")
        a = lvl.a
        validate_csr(a, kernel=kernel, name=f"A^{k}")
        if a.nrows != a.ncols:
            _fail(kernel, "hierarchy/square-levels",
                  f"A^{k} has shape {a.shape}", A=a)
        if lvl.dinv is not None:
            d = np.asarray(lvl.dinv)
            if d.shape != (a.nrows,):
                _fail(kernel, "hierarchy/dinv-shape",
                      f"dinv^{k} has shape {d.shape}, A has {a.nrows} rows")
            if not np.all(np.isfinite(d)) or np.any(d <= 0):
                _fail(kernel, "hierarchy/dinv-positive",
                      f"dinv^{k} contains non-finite or non-positive entries")
        last = k == len(levels) - 1
        if last:
            continue
        n_fine, n_coarse = a.nrows, levels[k + 1].a.nrows
        p, r = lvl.p, lvl.r
        if p is None or r is None:
            _fail(kernel, "hierarchy/operators-present",
                  f"level {k} is not coarsest but lacks P/R")
        validate_csr(p, kernel=kernel, name=f"P^{k}")
        validate_csr(r, kernel=kernel, name=f"R^{k}")
        if p.shape != (n_fine, n_coarse):
            _fail(kernel, "hierarchy/shape-chain",
                  f"P^{k} has shape {p.shape}, expected ({n_fine}, {n_coarse})")
        if r.shape != (n_coarse, n_fine):
            _fail(kernel, "hierarchy/shape-chain",
                  f"R^{k} has shape {r.shape}, expected ({n_coarse}, {n_fine})")
        pt = p.transpose()
        if not (
            np.array_equal(pt.indptr, r.indptr)
            and np.array_equal(pt.indices, r.indices)
            and np.array_equal(pt.data, r.data)
        ):
            _fail(kernel, "hierarchy/restriction-is-transpose",
                  f"R^{k} != (P^{k})^T", P=p, R=r)


# ----------------------------------------------------------------------
# Row partitions
# ----------------------------------------------------------------------
def validate_partition(partition, n: int, kernel: str = "partition_rows") -> None:
    """Raise unless *partition* contiguously covers exactly *n* rows."""
    starts = np.asarray(partition.starts)
    if starts.ndim != 1 or starts.shape[0] < 2:
        _fail(kernel, "dist/partition-shape",
              f"starts has shape {starts.shape}", starts=starts)
    if starts[0] != 0 or int(starts[-1]) != int(n):
        _fail(kernel, "dist/partition-cover",
              f"starts spans [{starts[0]}, {starts[-1]}], expected [0, {n}]",
              starts=starts)
    if np.any(np.diff(starts) < 0):
        _fail(kernel, "dist/partition-monotone",
              "rank ownership ranges overlap or reverse", starts=starts)
