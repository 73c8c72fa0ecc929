"""The M-level setup phase (Alg. 1) and the Fig. 6 data flow.

``amg_setup`` iterates coarsening -> interpolation -> Galerkin product
until the grid is small enough or the level cap is reached.  All matrix
products go through an injected SpGEMM callable, so the same driver serves
the CSR baseline and the mBSR/tensor-core AmgT backend; the hypre layer
wraps the kernels with format conversions (CSR2MBSR before the products,
MBSR2CSR after RAP) and timing, mirroring the numbered steps of Fig. 6.

Levels are numbered from 0 (finest).  Level k holds ``A^k`` plus the
operators ``P^k`` (interpolation from level k+1) and ``R^k = (P^k)^T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.amg.coarse import CoarseSolver
from repro.amg.coarsen import aggressive_coarsen, hmis_coarsen, pmis_coarsen
from repro.amg.galerkin import galerkin_product
from repro.amg.interp import build_interpolation
from repro.amg.smoothers import l1_jacobi_diagonal
from repro.amg.strength import strength_of_connection
from repro.check.fingerprint import row_digests
from repro.formats.csr import CSRMatrix
from repro.obs import trace as obs_trace
from repro.obs import names as obs_names

__all__ = ["SetupParams", "AMGLevel", "AMGHierarchy", "amg_setup"]

SpGEMMFn = Callable[[CSRMatrix, CSRMatrix], CSRMatrix]


@dataclass(frozen=True)
class SetupParams:
    """Setup-phase configuration (defaults = the paper's Sec. V.A)."""

    strength_threshold: float = 0.25
    max_row_sum: float = 0.8
    max_levels: int = 7
    max_coarse_size: int = 3
    #: ``'classical'`` (the paper's configuration: C/F splitting +
    #: interpolation) or ``'aggregation'`` (smoothed aggregation, the
    #: AmgX-style family of the related work).
    amg_family: str = "classical"
    #: ``'pmis'`` (the paper's configuration), ``'hmis'`` or
    #: ``'aggressive'`` (HYPRE's agg_num_levels-style two-stage PMIS).
    coarsen_method: str = "pmis"
    interp_method: str = "extended+i"
    trunc_factor: float = 0.1
    max_elmts: int = 4
    coarse_solver: str = "direct"
    seed: int = 0
    #: Stop coarsening when a level keeps more than this fraction of the
    #: previous level's unknowns (coarsening stagnation guard).
    min_coarsen_rate: float = 0.9


@dataclass
class AMGLevel:
    """One level of the hierarchy."""

    index: int
    a: CSRMatrix
    #: Interpolation to this level from the next coarser one (None on the
    #: coarsest level).
    p: CSRMatrix | None = None
    #: Restriction R = P^T (None on the coarsest level).
    r: CSRMatrix | None = None
    #: Reciprocal of the L1-Jacobi smoothing diagonal.
    dinv: np.ndarray | None = None
    cf_marker: np.ndarray | None = None
    #: Strength matrix the C/F splitting was computed from (None on the
    #: coarsest level, and under the frozen re-setup policy, whose
    #: splittings may predate the level matrix).  The patch policy
    #: re-derives only its dirty rows.
    strength: CSRMatrix | None = None
    #: Lazily-computed per-level data (e.g. Chebyshev eigenvalue bounds).
    extras: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.a.nrows


@dataclass
class AMGHierarchy:
    """The output of the setup phase."""

    levels: list[AMGLevel]
    coarse_solver: CoarseSolver
    params: SetupParams
    #: Number of SpGEMM calls the setup performed (3 per non-coarsest level
    #: when extended+i interpolation is used: 1 interp + 2 Galerkin; a
    #: re-setup counts only the levels it replayed).
    spgemm_calls: int = 0
    #: Per-level sparsity-pattern digests of the A matrices, finest first.
    #: The frozen-interpolation re-setup requires the new fine matrix and
    #: every recomputed coarse matrix to match them.
    pattern_keys: list = field(default_factory=list)
    #: Per-row value digests of the fine matrix as this hierarchy was
    #: built.  A re-setup diffs the new fine matrix against these rather
    #: than against ``levels[0].a``, the caller's object, whose values
    #: the caller may have updated in place since.
    fine_digests: np.ndarray | None = None
    #: True when this hierarchy was produced by the frozen-interpolation
    #: policy of the re-setup engine (:mod:`repro.amg.patch`): cached
    #: coarsening and interpolation, dirty Galerkin rows replayed.
    reused: bool = False
    #: True when this hierarchy was produced by the patch policy of the
    #: re-setup engine: dirty rows recomputed and spliced into the cached
    #: operators, bit-identical to a cold setup.
    patched: bool = False
    #: Telemetry of the re-setup engine (either policy): per-level
    #: dirty-row counts/fractions plus replayed/clean level totals (empty
    #: after a cold setup).
    patch_stats: dict = field(default_factory=dict)
    #: Monotone invalidation counter for recorded solve tapes
    #: (:mod:`repro.tape`).  Any in-place mutation of the hierarchy that
    #: bypasses object replacement must call :meth:`invalidate_solve_tapes`
    #: so recorded tapes re-record instead of replaying stale operators;
    #: tapes additionally fingerprint the per-level operator identities,
    #: so swapping a level matrix/interpolation/diagonal is caught even
    #: without an explicit bump.
    generation: int = 0

    def invalidate_solve_tapes(self) -> None:
        """Bump the tape-invalidation generation counter."""
        self.generation += 1

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def operator_complexity(self) -> float:
        """sum(nnz(A_k)) / nnz(A_0) — the standard AMG grid-complexity metric."""
        base = self.levels[0].a.nnz
        if base == 0:
            return 1.0
        return sum(lvl.a.nnz for lvl in self.levels) / base

    def describe(self) -> str:
        lines = [
            f"AMG hierarchy: {self.num_levels} levels, "
            f"operator complexity {self.operator_complexity():.2f}"
        ]
        for lvl in self.levels:
            lines.append(f"  level {lvl.index}: n={lvl.n}, nnz={lvl.a.nnz}")
        return "\n".join(lines)


def amg_setup(
    a: CSRMatrix,
    params: SetupParams | None = None,
    spgemm: SpGEMMFn | None = None,
    *,
    on_level_built: Callable[[int, CSRMatrix], None] | None = None,
    reuse: AMGHierarchy | None = None,
    patch: bool = False,
    patcher=None,
) -> AMGHierarchy:
    """Run the M-level setup phase on *a*.

    Parameters
    ----------
    a:
        The fine-level matrix (square CSR).  For a re-setup it may be a
        new matrix or the cached fine matrix with its values updated in
        place: *a* is diffed against the value digests the hierarchy
        recorded when it was built (:attr:`AMGHierarchy.fine_digests`).
    params:
        Setup configuration; defaults to the paper's.
    spgemm:
        Injected SpGEMM used for interpolation and the Galerkin product.
    on_level_built:
        Optional callback invoked with ``(level_index, A_level)`` as each
        coarse matrix is produced (the hypre layer uses it for per-level
        bookkeeping such as format conversions).
    reuse:
        A hierarchy from an earlier setup.  The re-setup engine
        (:func:`repro.amg.patch.patched_resetup`) diffs per-row value
        digests level by level, reuses clean levels as they are and
        replays only the dirty Galerkin rows, spliced into the cached
        coarse operators.  By default it runs the *frozen-interpolation*
        policy (HYPRE's reuse-interpolation semantics, the alpha-Setup
        scenario): coarsening and interpolation are kept, values included,
        and only the dirty coarse rows and the smoothing diagonals are
        recomputed.  Any mismatch (different params or shape, a fine
        pattern or recomputed coarse pattern that drifts from the cached
        keys) falls back to a full setup, so ``reuse`` is always safe to
        pass.

        Reuse is only implemented for the classical family: with
        ``amg_family='aggregation'`` the argument is ignored, a full setup
        runs, and a ``setup_reuse_total{outcome='fallback',
        reason='amg-family'}`` counter records the miss.
    patch:
        With ``reuse``, run the engine's *patch* policy instead: the
        cheap stages (strength, PMIS) rerun on dirty levels, and the dirty
        interpolation rows are rebuilt too, so the result is bit-identical
        to a cold setup on *a* (unlike the frozen policy, which keeps
        stale interpolation weights).  It falls back to a cold setup when
        the cumulative dirt exceeds
        :data:`repro.amg.patch.DIRTY_FRACTION_LIMIT` of the fine rows
        (``'dirty-fraction'``) or the coarsening drifts
        (``'level-drift'``, ``'cf-drift'``).
    patcher:
        Row-ranged product engine of the re-setup (the AmgT backend's
        block-aligned patcher); defaults to the row-local CSR engine
        wrapping *spgemm*.
    """
    if a.nrows != a.ncols:
        raise ValueError("AMG requires a square matrix")
    params = params or SetupParams()
    with obs_trace.phase_span("setup"):
        return _amg_setup_impl(
            a, params, spgemm,
            on_level_built=on_level_built,
            reuse=reuse,
            patch=patch,
            patcher=patcher,
        )


def _count_reuse(outcome: str, reason: str | None = None) -> None:
    """Fold one reuse decision into ``setup_reuse_total{outcome, reason}``
    and the flight recorder's event ring."""
    from repro.obs import blackbox
    from repro.obs import metrics as obs_metrics

    labels = {"outcome": outcome}
    if reason is not None:
        labels["reason"] = reason
    obs_metrics.inc(obs_names.SETUP_REUSE, **labels)
    blackbox.record("setup_reuse", **labels)


def _coarsen_level(
    current: CSRMatrix,
    params: SetupParams,
    index: int,
    strength: CSRMatrix | None = None,
):
    """Strength and C/F splitting of level *index*, or ``None`` where the
    cold loop stops coarsening (no strong couplings, no coarse points, or
    too few points dropped).  The patch policy reruns it to mirror the
    cold loop exactly, passing the *strength* matrix it already built."""
    if strength is None:
        strength = strength_of_connection(
            current, params.strength_threshold, params.max_row_sum
        )
    if strength.nnz == 0:
        return None  # nothing to coarsen on
    coarsen = {
        "pmis": pmis_coarsen,
        "hmis": hmis_coarsen,
        "aggressive": aggressive_coarsen,
    }.get(params.coarsen_method)
    if coarsen is None:
        raise ValueError(f"unknown coarsen_method {params.coarsen_method!r}")
    coarsening = coarsen(strength, seed=params.seed + index)
    nc = coarsening.n_coarse
    if nc == 0 or nc >= current.nrows * params.min_coarsen_rate or nc == current.nrows:
        return None
    return strength, coarsening


def _amg_setup_impl(
    a: CSRMatrix,
    params: SetupParams,
    spgemm: SpGEMMFn | None,
    *,
    on_level_built: Callable[[int, CSRMatrix], None] | None,
    reuse: AMGHierarchy | None,
    patch: bool = False,
    patcher=None,
) -> AMGHierarchy:
    if reuse is not None and params.amg_family != "classical":
        # Reuse is only implemented for the classical family; record the
        # miss instead of silently ignoring the argument (see docstring).
        _count_reuse("fallback", "amg-family")
    elif reuse is not None:
        from repro.amg.patch import patched_resetup, verify_patched_hierarchy

        hierarchy, reason = patched_resetup(
            a, reuse, params, spgemm,
            patch=patch,
            patcher=patcher,
            on_level_built=on_level_built,
        )
        if hierarchy is not None:
            _count_reuse("patched" if patch else "exact")
            from repro.check import runtime as check_runtime

            if check_runtime.is_active():
                from repro.check.structural import validate_hierarchy

                validate_hierarchy(hierarchy)
                verify_patched_hierarchy(
                    hierarchy, a, reuse, params, spgemm, on_level_built
                )
            return hierarchy
        _count_reuse("fallback", reason)
        if patch:
            # The patch policy falls back to a *cold* setup, not the frozen
            # one: frozen reuse keeps stale interpolation weights, a weaker
            # contract than the patch policy's cold-identical one.  A cold
            # fallback on an evolving problem is the forensic case the
            # flight recorder exists for: dump a postmortem bundle.
            from repro.obs import blackbox

            blackbox.trigger("patch-fallback", detail=reason or "")
        if on_level_built is not None:
            # Rewind the caller's level tracker, which the abandoned
            # re-setup advanced: BoomerAMG derives per-level precision from
            # it, and the cold setup starts again at the fine level.
            on_level_built(0, a)
    if params.amg_family == "aggregation":
        from repro.amg.aggregation import sa_setup

        return sa_setup(a, params, spgemm=spgemm)
    if params.amg_family != "classical":
        raise ValueError(f"unknown amg_family {params.amg_family!r}")
    levels: list[AMGLevel] = []
    current = a
    spgemm_calls = 0

    while True:
        level = AMGLevel(index=len(levels), a=current)
        level.dinv = 1.0 / l1_jacobi_diagonal(current)
        levels.append(level)

        if len(levels) >= params.max_levels:
            break
        if current.nrows <= params.max_coarse_size:
            break

        split = _coarsen_level(current, params, level.index)
        if split is None:
            break
        strength, coarsening = split
        level.cf_marker = coarsening.cf_marker
        level.strength = strength

        def counting_spgemm(x: CSRMatrix, y: CSRMatrix) -> CSRMatrix:
            nonlocal spgemm_calls
            spgemm_calls += 1
            fn = spgemm
            if fn is None:
                from repro.kernels.baseline import csr_spgemm

                return csr_spgemm(x, y)[0]
            return fn(x, y)

        p = build_interpolation(
            current,
            strength,
            coarsening.cf_marker,
            method=params.interp_method,
            trunc_factor=params.trunc_factor,
            max_elmts=params.max_elmts,
            spgemm=counting_spgemm if params.interp_method == "extended+i" else None,
        )
        if params.interp_method != "extended+i":
            # direct interpolation performs no SpGEMM, but the paper's flow
            # (and our accounting) always uses the MM-based method; keep
            # the counter consistent for the alternative path too.
            pass
        r = p.transpose()
        coarse = galerkin_product(r, current, p, spgemm=counting_spgemm,
                                  drop_tol=0.0)
        level.p = p
        level.r = r
        if on_level_built is not None:
            on_level_built(len(levels), coarse)
        current = coarse

    coarse_solver = CoarseSolver(levels[-1].a, method=params.coarse_solver)
    hierarchy = AMGHierarchy(
        levels=levels,
        coarse_solver=coarse_solver,
        params=params,
        spgemm_calls=spgemm_calls,
        pattern_keys=[lvl.a.pattern_key() for lvl in levels],
        fine_digests=row_digests(a, values=True, memoise=False),
    )
    from repro.check import runtime as check_runtime

    if check_runtime.is_active():
        from repro.check.structural import validate_hierarchy

        validate_hierarchy(hierarchy)
    return hierarchy
