"""The setup-reuse engine: dirty-row diff, replay and splice.

``patched_resetup`` rebuilds a hierarchy against a changed fine matrix by
diffing per-row value digests (:mod:`repro.check.fingerprint`) level by
level against a cached hierarchy, reusing clean levels as they are and
replaying only the coarse rows the dirt can reach, spliced into the cached
coarse operators.  Two policies share that machinery:

* **patch** (``patch=True``) — *bit-identical to a cold setup*.  The
  strength rows of the dirty rows are re-derived and spliced into the
  level's cached strength matrix, PMIS reruns only when they changed, the
  smoothing diagonals and the coarse solver run cold (linear passes),
  interpolation rows are rebuilt only for the dirty F points and their
  strong neighbours (:func:`repro.amg.interp.build_interpolation` with
  ``rows=``), and the Galerkin product replays the dirty coarse rows.
* **frozen interpolation** (``patch=False``, the exact re-setup of HYPRE's
  reuse-interpolation mode and the paper's alpha-Setup) — the cached C/F
  splittings, ``P`` and ``R`` are kept, values included; no strength,
  PMIS or interpolation work runs.  Dirty coarse rows replay through the
  same Galerkin engine, and the fine pattern plus every recomputed coarse
  pattern must match the cached keys (``pattern-drift``).

Both replay through a pluggable :class:`CSRPatcher`-style engine, so the
AmgT backend substitutes block-aligned mBSR replays over its spliced plan
cache.  The function returns ``(hierarchy, None)`` on success or
``(None, reason)`` when the cached structure does not apply; every reason
feeds the ``setup_reuse_total`` observability counter.

Correctness contract: every operator of a patched hierarchy is
byte-identical to the one a cold setup would produce on the new matrix,
and every operator of a frozen one to the plain two-call Galerkin chain
over the cached ``R`` and ``P``.  Under ``REPRO_CHECK=1``
:func:`verify_patched_hierarchy` builds the policy's reference through the
same SpGEMM callable and compares, level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.amg.coarse import CoarseSolver
from repro.amg.galerkin import galerkin_product
from repro.amg.hierarchy import AMGHierarchy, AMGLevel, SetupParams, _coarsen_level
from repro.amg.interp import build_interpolation
from repro.amg.smoothers import l1_jacobi_diagonal
from repro.amg.strength import strength_of_connection
from repro.check.fingerprint import diff_rows, row_digests, splice_row_digests
from repro.formats.csr import CSRMatrix
from repro.kernels.setup_cache import splice_segments

__all__ = [
    "DIRTY_FRACTION_LIMIT",
    "LevelDirt",
    "CSRPatcher",
    "replace_rows",
    "patched_resetup",
    "verify_patched_hierarchy",
    "assert_levels_identical",
]

#: mBSR tile height: dirty sets are expanded to this granularity wherever
#: a block-structured backend consumes them, so scalar-row reasoning stays
#: sound for block-row plan splices.
_BLOCK = 4

#: Fallback guard of the patch policy: when the cumulative dirty-row count
#: across levels exceeds this fraction of the fine-level rows, the patch
#: falls back to a cold setup (reason ``'dirty-fraction'``) — patch work
#: scales with the dirty rows, cold work with the fine level.  The frozen
#: policy has no such guard: it does no cold-stage work to save.
DIRTY_FRACTION_LIMIT = 0.5


@dataclass(frozen=True)
class LevelDirt:
    """Dirt context handed to a patcher's Galerkin replay.

    ``dv`` are the value-dirty rows of the level matrix; ``covered`` the
    full-space rows of P that were rebuilt and spliced.  A block backend
    derives its conversion-template dirty blocks from these.
    """

    dv: np.ndarray
    covered: np.ndarray


def replace_rows(base: CSRMatrix, rows: np.ndarray, sub: CSRMatrix) -> CSRMatrix:
    """Splice the rows of compact *sub* into *base* at the sorted *rows*.

    Row ``rows[i]`` of the result is row ``i`` of *sub*; every other row
    is copied from *base* verbatim, so the splice is bit-identical to a
    full rebuild whenever *sub* holds the rebuilt rows.  Replacing every
    row returns *sub* itself.  The row digests *base* has memoised carry
    over with the replaced rows rehashed, so the result's pattern key
    costs no full pass.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[0] == base.nrows:
        return sub
    geom = splice_segments(base.indptr, rows, np.diff(sub.indptr))
    out = CSRMatrix(
        base.shape,
        geom.new_ptr,
        geom.splice(base.indices, sub.indices),
        geom.splice(base.data, sub.data),
        _canonical=True,
    )
    splice_row_digests(out, base, rows, sub)
    return out


class CSRPatcher:
    """Row-ranged product engine for the scalar CSR backends.

    The CSR SpGEMM is row-local, so computing ``A[rows] @ B`` through the
    very SpGEMM callable the cold setup uses reproduces the selected rows
    of the full product bit for bit.  The AmgT backend supplies its own
    patcher (block-aligned mBSR replays over the spliced plan cache);
    this one serves the baseline and the HYPRE vendor path.
    """

    def __init__(self, spgemm: Callable | None = None):
        if spgemm is None:
            def spgemm(x: CSRMatrix, y: CSRMatrix) -> CSRMatrix:
                from repro.kernels.baseline import csr_spgemm

                return csr_spgemm(x, y)[0]
        self.spgemm = spgemm

    def interp_rows(self, level, a_op, b_op, fpos):
        """Selected rows of ``a_op @ b_op`` (the extended+i product)."""
        return self.spgemm(a_op.extract_rows(fpos), b_op), fpos

    def galerkin_rows(self, level, r_new, a_new, p_new, rows, dirt):
        """Selected rows of ``R @ A @ P`` after zero pruning."""
        ra = self.spgemm(r_new.extract_rows(rows), a_new)
        rap = self.spgemm(ra, p_new)
        return rap.eliminate_zeros(0.0), rows

    def convert_level(self, level, r_new, a_new, p_new, rows, dirt):
        """Scalar CSR backends keep no second format: nothing to convert."""


def _segment_take(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Flat entry positions of the given CSR rows."""
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    starts = np.repeat(indptr[rows], counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return starts + np.arange(total, dtype=np.int64) - offsets


def _expand_blocks(rows: np.ndarray, n: int) -> np.ndarray:
    """All scalar rows sharing an mBSR block with *rows* (clipped to n)."""
    if rows.shape[0] == 0:
        return rows
    blocks = np.unique(rows // _BLOCK)
    scal = (blocks[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()
    return scal[scal < n]


def _dirty_interp_rows(strength: CSRMatrix, dv: np.ndarray) -> np.ndarray:
    """Rows whose interpolation can see the dirty set.

    Row f of P depends on A/strength row f and, through the extended+i
    product, on the ``D^{-1} A_FC`` rows of its strong neighbours — so f
    is dirty iff f itself changed or a strong neighbour of f did.
    """
    n = strength.nrows
    col_dirty = np.zeros(n, dtype=bool)
    col_dirty[dv] = True
    neigh = np.unique(strength.row_ids()[col_dirty[strength.indices]])
    return np.union1d(dv, neigh)


def _drifted_columns(
    p_old: CSRMatrix, p_new: CSRMatrix, covered: np.ndarray
) -> np.ndarray:
    """P columns the rebuilt rows *covered* touch before or after: the
    only rows of ``R = P^T`` whose pattern or values can change."""
    return np.unique(np.concatenate([
        p_old.indices[_segment_take(p_old.indptr, covered)],
        p_new.indices[_segment_take(p_new.indptr, covered)],
    ]))


def _dirty_coarse_rows(
    p_new: CSRMatrix,
    drift: np.ndarray,
    covered: np.ndarray,
    a_new: CSRMatrix,
    dv: np.ndarray,
) -> np.ndarray:
    """Coarse rows the dirt can reach through ``R A P``.

    Coarse row c reads P column c (rows R; *drift* lists the drifted
    ones), the A rows its interpolatory points touch, and the P rows those
    A rows reach.  Block expansion of the scalar sets keeps the result
    sound for the mBSR plan splices, whose clean block-rows must not
    reference any operand block-row whose tile list or bitmaps changed.
    """
    n = a_new.nrows
    dv_blk = _expand_blocks(dv, n)
    cov_blk = _expand_blocks(covered, n)
    parts = [
        # P-column drift: rows of R whose pattern or values changed.
        drift,
        # A-row drift: coarse rows interpolating from a dirty fine row.
        p_new.indices[_segment_take(p_new.indptr, dv_blk)],
    ]
    # Reach through A into rebuilt P rows: coarse rows whose A rows touch
    # a covered column pick up the new interpolation weights there.
    mask = np.zeros(n, dtype=bool)
    mask[cov_blk] = True
    k_rows = np.unique(a_new.row_ids()[mask[a_new.indices]])
    parts.append(p_new.indices[_segment_take(p_new.indptr, k_rows)])
    return np.unique(np.concatenate(parts)).astype(np.int64)


def patched_resetup(
    a: CSRMatrix,
    reuse: AMGHierarchy,
    params: SetupParams,
    spgemm: Callable | None,
    *,
    patch: bool,
    patcher=None,
    on_level_built: Callable | None = None,
) -> tuple[AMGHierarchy | None, str | None]:
    """Re-set up *reuse* against *a* under one of the two policies.

    ``patch=True`` returns the hierarchy a cold setup on *a* would build;
    ``patch=False`` (frozen interpolation) keeps the cached C/F splittings,
    ``P`` and ``R`` and returns the Galerkin chain over them.  Either way
    the result is ``(hierarchy, None)``, or ``(None, reason)`` when the
    cache does not apply and the caller must fall back to a cold setup.
    """
    if params != reuse.params:
        return None, "params"
    if (
        not reuse.pattern_keys
        or reuse.fine_digests is None
        or reuse.num_levels != len(reuse.pattern_keys)
        or a.shape != reuse.levels[0].a.shape
    ):
        return None, "shape"
    if not patch and a.pattern_key() != reuse.pattern_keys[0]:
        return None, "pattern-drift"
    if patcher is None:
        patcher = CSRPatcher(spgemm)
    # *a* may be the cached fine matrix itself with its values updated in
    # place, so its digests are computed afresh and level 0 is diffed
    # against the digests recorded when *reuse* was built.  Coarse levels
    # are the engine's own matrices, never updated in place.
    fine = row_digests(a, values=True, memoise=False)

    def dirty_rows(k: int, current: CSRMatrix) -> np.ndarray:
        if k == 0:
            return diff_rows(reuse.fine_digests, fine)
        return diff_rows(row_digests(reuse.levels[k].a, values=True),
                         row_digests(current, values=True))

    levels: list[AMGLevel] = []
    spgemm_calls = 0
    stats: dict = {"levels": [], "dirty_rows": 0, "patched_levels": 0,
                   "clean_levels": 0}
    current = a
    nlev = reuse.num_levels
    for k in range(nlev - 1):
        cached = reuse.levels[k]
        if cached.p is None or cached.r is None or cached.cf_marker is None:
            return None, "structure"
        dv = dirty_rows(k, current)
        if dv.shape[0] == 0:
            # Bit-identical level matrix: every downstream stage is a
            # deterministic function of it, so the cached level — operator
            # objects, and with them their mBSR twins — and the cached
            # coarse matrix are exactly what either policy would rebuild.
            dinv = cached.dinv
            if dinv is None:
                dinv = 1.0 / l1_jacobi_diagonal(current)
            levels.append(AMGLevel(index=k, a=cached.a, p=cached.p,
                                   r=cached.r, dinv=dinv,
                                   cf_marker=cached.cf_marker,
                                   strength=cached.strength if patch else None))
            stats["levels"].append({"level": k, "dirty": 0, "frac": 0.0,
                                    "interp_rows": 0, "coarse_rows": 0})
            stats["clean_levels"] += 1
            coarse = reuse.levels[k + 1].a
            if on_level_built is not None:
                on_level_built(k + 1, coarse)
            current = coarse
            continue

        frac = dv.shape[0] / max(current.nrows, 1)
        stats["dirty_rows"] += int(dv.shape[0])
        if patch:
            # Cost guard: patch work is proportional to the *cumulative*
            # dirty rows, cold work to the fine-level size — dirt amplifies
            # down the chain, but the coarse levels it floods are small, so
            # per-level fractions would spuriously trip on them.
            if stats["dirty_rows"] > DIRTY_FRACTION_LIMIT * a.nrows:
                return None, "dirty-fraction"
            # The patch only holds under the cached C/F splitting: a
            # drifted splitting invalidates every cached interpolation row,
            # so it falls back rather than re-splitting.  Strength is
            # row-local, so only the dirty rows are re-derived; the
            # splitting is a function of the strength matrix alone and
            # reruns only when those rows changed.  A level without a
            # cached strength matrix (frozen policy) runs both cold.
            theta, max_row_sum = params.strength_threshold, params.max_row_sum
            if cached.strength is None:
                strength = strength_of_connection(current, theta, max_row_sum)
                same = False
            else:
                s_rows = strength_of_connection(
                    current, theta, max_row_sum, rows=dv)
                s_old = cached.strength.extract_rows(dv)
                same = (np.array_equal(s_rows.indptr, s_old.indptr)
                        and np.array_equal(s_rows.indices, s_old.indices)
                        and s_rows.data.tobytes() == s_old.data.tobytes())
                strength = (cached.strength if same
                            else replace_rows(cached.strength, dv, s_rows))
            if not same:
                split = _coarsen_level(current, params, k, strength)
                if split is None:
                    # The cold loop would stop coarsening here; the cached
                    # depth no longer matches the new operator.
                    return None, "level-drift"
                if not np.array_equal(split[1].cf_marker, cached.cf_marker):
                    return None, "cf-drift"
            p_sub, covered = build_interpolation(
                current,
                strength,
                cached.cf_marker,
                method=params.interp_method,
                trunc_factor=params.trunc_factor,
                max_elmts=params.max_elmts,
                rows=_dirty_interp_rows(strength, dv),
                rows_spgemm=lambda x, y, fp, _k=k: patcher.interp_rows(
                    _k, x, y, fp
                ),
            )
            if covered.shape[0]:
                spgemm_calls += 1
                p_new = replace_rows(cached.p, covered, p_sub)
            else:
                p_new = cached.p
            drift = _drifted_columns(cached.p, p_new, covered)
            r_new = p_new.transpose()
            splice_row_digests(r_new, cached.r, drift)
        else:
            covered = drift = np.zeros(0, dtype=np.int64)
            p_new, r_new = cached.p, cached.r

        dc = _dirty_coarse_rows(p_new, drift, covered, current, dv)
        coarse = reuse.levels[k + 1].a
        dirt = LevelDirt(dv=dv, covered=covered)
        if dc.shape[0]:
            rap_sub, cov_c = patcher.galerkin_rows(
                k, r_new, current, p_new, dc, dirt
            )
            spgemm_calls += 2
            coarse = replace_rows(coarse, cov_c, rap_sub)
        else:
            # No coarse row sees the dirt (the dirty rows' P rows are
            # empty), yet the level's own operators changed: convert them
            # here, in setup, as the Galerkin replay would have.
            patcher.convert_level(k, r_new, current, p_new, dc, dirt)
        if not patch and coarse.pattern_key() != reuse.pattern_keys[k + 1]:
            # Numeric cancellation (or a genuinely different operator)
            # changed the coarse structure: the frozen interpolation no
            # longer matches what a cold setup would build on it.
            return None, "pattern-drift"

        levels.append(AMGLevel(index=k, a=current, p=p_new, r=r_new,
                               dinv=1.0 / l1_jacobi_diagonal(current),
                               cf_marker=cached.cf_marker,
                               strength=strength if patch else None))
        stats["levels"].append({
            "level": k,
            "dirty": int(dv.shape[0]),
            "frac": float(frac),
            "interp_rows": int(covered.shape[0]),
            "coarse_rows": int(dc.shape[0]),
        })
        stats["patched_levels"] += 1
        if on_level_built is not None:
            on_level_built(k + 1, coarse)
        current = coarse

    cached_last = reuse.levels[nlev - 1]
    # The patch policy mirrors the cold loop's termination: some break
    # must fire on the coarsest level, else a cold setup would coarsen
    # further.
    if (
        patch
        and nlev < params.max_levels
        and current.nrows > params.max_coarse_size
        and _coarsen_level(current, params, nlev - 1) is not None
    ):
        return None, "level-drift"
    if (cached_last.dinv is not None
            and dirty_rows(nlev - 1, current).shape[0] == 0):
        last = AMGLevel(index=nlev - 1, a=cached_last.a, dinv=cached_last.dinv)
        coarse_solver = reuse.coarse_solver
    else:
        last = AMGLevel(index=nlev - 1, a=current,
                        dinv=1.0 / l1_jacobi_diagonal(current))
        coarse_solver = CoarseSolver(current, method=params.coarse_solver)
    levels.append(last)

    hierarchy = AMGHierarchy(
        levels=levels,
        coarse_solver=coarse_solver,
        params=params,
        spgemm_calls=spgemm_calls,
        pattern_keys=[lvl.a.pattern_key() for lvl in levels],
        fine_digests=fine,
        reused=not patch,
        patched=patch,
        patch_stats=stats,
        # A fresh object already re-records tapes, but the explicit bump
        # makes the invalidation visible to anything holding generation.
        generation=reuse.generation + 1,
    )
    return hierarchy, None


def _frozen_reference(
    a: CSRMatrix,
    reuse: AMGHierarchy,
    spgemm: Callable | None,
    on_level_built: Callable | None,
) -> list[AMGLevel]:
    """The levels the frozen policy must reproduce: cached C/F, ``P`` and
    ``R``, every Galerkin product recomputed in full by the plain two-call
    chain."""
    levels: list[AMGLevel] = []
    current = a
    for k, cached in enumerate(reuse.levels[:-1]):
        levels.append(AMGLevel(index=k, a=current, p=cached.p, r=cached.r,
                               dinv=1.0 / l1_jacobi_diagonal(current),
                               cf_marker=cached.cf_marker))
        current = galerkin_product(cached.r, current, cached.p,
                                   spgemm=spgemm, drop_tol=0.0)
        if on_level_built is not None:
            on_level_built(k + 1, current)
    levels.append(AMGLevel(index=len(levels), a=current,
                           dinv=1.0 / l1_jacobi_diagonal(current)))
    return levels


def verify_patched_hierarchy(
    hierarchy: AMGHierarchy,
    a: CSRMatrix,
    reuse: AMGHierarchy,
    params: SetupParams,
    spgemm: Callable | None,
    on_level_built: Callable | None = None,
) -> None:
    """REPRO_CHECK differential oracle: each policy against its reference.

    A frozen hierarchy (``reused``) is compared with the plain two-call
    Galerkin chain over *reuse*'s ``R`` and ``P``; any other hierarchy
    (patched, or a cold fallback) with a full cold setup on *a*.  The
    reference runs through the *same* SpGEMM callable and is compared with
    :func:`assert_levels_identical`.
    """
    from repro.amg.hierarchy import _amg_setup_impl

    if on_level_built is not None:
        # Rewind the caller's level tracker: the re-setup drove it to the
        # coarsest level, and BoomerAMG's SpGEMM closure derives the
        # per-product precision from it — without the reset the rerun's
        # fine-level products would run at the coarse levels' precision.
        on_level_built(0, a)
    if hierarchy.reused:
        policy, what = "frozen", "frozen-interpolation Galerkin chain"
        ref = _frozen_reference(a, reuse, spgemm, on_level_built)
    else:
        policy, what = "patched", "cold setup"
        ref = _amg_setup_impl(a, params, spgemm, on_level_built=on_level_built,
                              reuse=None).levels
    assert_levels_identical(hierarchy.levels, ref,
                            f"setup/{policy}-differential", what)


def assert_levels_identical(
    got: list[AMGLevel], want: list[AMGLevel], contract: str, what: str
) -> None:
    """Raise :class:`~repro.check.violation.ContractViolation` (*contract*)
    unless *got* has as many levels as *want* (the *what*) and every
    level's ``A``, ``P``, ``R``, smoothing diagonal and C/F marker is
    bytewise equal to its counterpart's."""
    from repro.check.violation import ContractViolation

    if len(got) != len(want):
        raise ContractViolation(
            "amg_setup", contract,
            f"level count drift: {len(got)} vs {what} {len(want)}",
        )
    for lvl, want_lvl in zip(got, want):
        for name in ("a", "p", "r", "dinv", "cf_marker", "strength"):
            got_op, want_op = getattr(lvl, name), getattr(want_lvl, name)
            if got_op is None and want_op is None:
                continue
            if isinstance(got_op, CSRMatrix) and isinstance(want_op, CSRMatrix):
                same = (
                    got_op.shape == want_op.shape
                    and np.array_equal(got_op.indptr, want_op.indptr)
                    and np.array_equal(got_op.indices, want_op.indices)
                    and got_op.data.tobytes() == want_op.data.tobytes()
                )
            else:
                same = (
                    got_op is not None
                    and want_op is not None
                    and got_op.tobytes() == want_op.tobytes()
                )
            if not same:
                raise ContractViolation(
                    "amg_setup", contract,
                    f"level {lvl.index} {name!r} differs from the {what}",
                )
