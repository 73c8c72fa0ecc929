"""The solve phase: multigrid cycles (Alg. 2).

Solves execute through the kernel tape (:mod:`repro.tape`): the cycle is
recorded once into bound closures and :func:`repro.tape.taped_solve`
iterates it; :func:`amg_solve` is the functional entry point.  The
interpreted recursion :func:`mg_cycle` survives as the reference the tape
is recorded from and checked against — the ``REPRO_CHECK`` differential
oracle and the tests' reference cycle.

One V-cycle per level performs, in order: ``mu1`` pre-smoothing sweeps
(one SpMV each), the residual (one SpMV), the restriction (one SpMV),
recursion, the interpolation/correction (one SpMV), and ``mu2``
post-smoothing sweeps (one SpMV each).  With mu1 = mu2 = 1 that is the five
SpMV calls per non-coarsest level the paper counts, plus one residual SpMV
per iteration at the top — 31 calls per cycle for a 7-level grid, 1551 for
50 iterations including the initial residual.

SpMV is injected per (level, operator) so the hypre layer controls the
backend, the per-level precision, and the timing of every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.amg.hierarchy import AMGHierarchy
from repro.amg.precision import accumulator
from repro.check import runtime as check_runtime

__all__ = ["SolveParams", "SolveStats", "mg_cycle", "amg_solve"]

# spmv(level_index, operator, x) -> A_op @ x, where operator is one of
# 'A' (level matrix), 'R' (restriction), 'P' (interpolation).
LevelSpMV = Callable[[int, str, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolveParams:
    """Solve-phase configuration (defaults = the paper's Sec. V.A).

    ``cycle_type`` selects the multigrid cycle: ``'V'`` (the paper's
    configuration, one coarse-grid visit per level), ``'W'`` (two
    recursive visits — more coarse-level work, stronger per-cycle
    contraction) or ``'F'`` (a W-visit followed by a V-visit).
    """

    max_iterations: int = 50
    tolerance: float = 0.0  # 0 => run all iterations, as the paper does
    pre_sweeps: int = 1  # mu1
    post_sweeps: int = 1  # mu2
    cycle_type: str = "V"
    #: ``'l1-jacobi'`` (the paper's smoother, runs through the injected
    #: SpMV so the backend kernels are exercised), ``'chebyshev'``
    #: (SpMV-polynomial smoother, also backend-driven) or
    #: ``'gauss-seidel'`` (host-side forward/backward sweeps; not routed
    #: through the device kernels, like hypre's sequential fallback).
    smoother: str = "l1-jacobi"
    #: Polynomial degree of the Chebyshev smoother (SpMVs per sweep).
    chebyshev_degree: int = 3

    def __post_init__(self) -> None:
        if self.cycle_type not in ("V", "W", "F"):
            raise ValueError(
                f"cycle_type must be 'V', 'W' or 'F', got {self.cycle_type!r}"
            )
        if self.smoother not in ("l1-jacobi", "chebyshev", "gauss-seidel"):
            raise ValueError(f"unknown smoother {self.smoother!r}")
        if self.pre_sweeps < 0 or self.post_sweeps < 0:
            raise ValueError("smoothing sweep counts must be non-negative")
        if self.chebyshev_degree < 1:
            raise ValueError("chebyshev_degree must be >= 1")


@dataclass
class SolveStats:
    """Convergence record of one solve."""

    iterations: int = 0
    residual_history: list[float] = field(default_factory=list)
    spmv_calls: int = 0
    converged: bool = False

    @property
    def final_relative_residual(self) -> float:
        if len(self.residual_history) < 1 or self.residual_history[0] == 0:
            return 0.0
        return self.residual_history[-1] / self.residual_history[0]


def _default_spmv(hierarchy: AMGHierarchy) -> LevelSpMV:
    """Host CSR matvec fallback with the operator table built once.

    The returned closure is hit ~5x per level per cycle; resolving the
    operators up front (rather than per call) keeps the per-call work to
    the matvec itself, whose row-expansion the CSR matrices memoise.
    """
    table = [
        {"A": lvl.a, "R": lvl.r, "P": lvl.p} for lvl in hierarchy.levels
    ]

    def spmv(level: int, op: str, x: np.ndarray) -> np.ndarray:
        return table[level][op].matvec(x)

    return spmv


def _smooth(
    hierarchy: AMGHierarchy,
    level: int,
    x: np.ndarray,
    b: np.ndarray,
    spmv: LevelSpMV,
    params: SolveParams,
    stats: SolveStats,
    num_sweeps: int,
) -> np.ndarray:
    """Apply *num_sweeps* of the configured smoother at *level*."""
    if num_sweeps == 0:
        return x
    lvl = hierarchy.levels[level]
    if params.smoother == "l1-jacobi":
        x0 = x
        for _ in range(num_sweeps):
            r = b - np.asarray(spmv(level, "A", x), dtype=np.float64)
            stats.spmv_calls += 1
            x = x + lvl.dinv * r
        if check_runtime.is_active():
            from repro.check import oracle

            oracle.verify_smoother(lvl.a, lvl.dinv, x0, b, x, num_sweeps)
        return x
    if params.smoother == "chebyshev":
        from repro.amg.smoothers import chebyshev_smooth, estimate_spectral_radius

        lam_max = lvl.extras.get("cheby_lambda_max")
        if lam_max is None:
            lam_max = estimate_spectral_radius(
                lambda v: lvl.dinv * np.asarray(spmv(level, "A", v)),
                lvl.n,
            )
            lvl.extras["cheby_lambda_max"] = lam_max
        for _ in range(num_sweeps):
            x, calls = chebyshev_smooth(
                lambda v: np.asarray(spmv(level, "A", v), dtype=np.float64),
                lvl.dinv, x, b,
                degree=params.chebyshev_degree, lam_max=lam_max,
            )
            stats.spmv_calls += calls
        return x
    # gauss-seidel: host-side sweeps directly on the level matrix.
    from repro.amg.smoothers import gauss_seidel_sweep

    return gauss_seidel_sweep(lvl.a, x, b, num_sweeps=num_sweeps)


def mg_cycle(
    hierarchy: AMGHierarchy,
    b: np.ndarray,
    x: np.ndarray,
    spmv: LevelSpMV | None = None,
    params: SolveParams | None = None,
    stats: SolveStats | None = None,
    level: int = 0,
) -> np.ndarray:
    """One interpreted multigrid cycle (V, W or F per
    ``params.cycle_type``) from *level* down: the reference every replayed
    cycle must reproduce bit for bit."""
    params = params or SolveParams()
    spmv = spmv or _default_spmv(hierarchy)
    stats = stats if stats is not None else SolveStats()
    if level == hierarchy.num_levels - 1:
        return hierarchy.coarse_solver.solve(b)

    x = np.asarray(x, dtype=np.float64).copy()
    # Pre-smoothing (mu1 SpMV calls for the paper's configuration).
    x = _smooth(hierarchy, level, x, b, spmv, params, stats, params.pre_sweeps)
    # Residual (one SpMV).
    r = b - np.asarray(spmv(level, "A", x), dtype=np.float64)
    stats.spmv_calls += 1
    # Restriction (one SpMV).
    b_coarse = np.asarray(spmv(level, "R", r), dtype=np.float64)
    stats.spmv_calls += 1
    # Coarse-grid visits: V = 1, W = 2, F = one W-style visit then a
    # V-style one (standard F-cycle recursion).
    n_coarse = hierarchy.levels[level + 1].n
    x_coarse = accumulator(n_coarse)
    if params.cycle_type == "V":
        visits = [params]
    elif params.cycle_type == "W":
        visits = [params, params]
    else:  # F-cycle
        from dataclasses import replace

        visits = [params, replace(params, cycle_type="V")]
    first = True
    for visit_params in visits:
        if not first:
            # Re-restrict the updated residual for the second visit.
            r2 = b - np.asarray(spmv(level, "A", x_mid), dtype=np.float64)
            stats.spmv_calls += 1
            b_coarse = np.asarray(spmv(level, "R", r2), dtype=np.float64)
            stats.spmv_calls += 1
            x_coarse = accumulator(n_coarse)
        x_coarse = mg_cycle(
            hierarchy, b_coarse, x_coarse, spmv, visit_params, stats, level + 1
        )
        # Interpolation + correction (one SpMV).
        correction = np.asarray(spmv(level, "P", x_coarse), dtype=np.float64)
        stats.spmv_calls += 1
        x_mid = (x if first else x_mid) + correction
        first = False
    x = x_mid
    # Post-smoothing (mu2 SpMV calls).
    x = _smooth(hierarchy, level, x, b, spmv, params, stats, params.post_sweeps)
    return x


def amg_solve(
    hierarchy: AMGHierarchy,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    spmv: LevelSpMV | None = None,
    params: SolveParams | None = None,
) -> tuple[np.ndarray, SolveStats | list[SolveStats]]:
    """Iterate cycles until convergence or the iteration cap (paper: 50).

    The functional entry point: records the cycle into a
    :class:`repro.tape.CycleTape` (binding *spmv* — or the host matvec
    fallback — per (level, operator)) and runs the solve loop
    :func:`repro.tape.taped_solve` on it.  *b* is an ``(n,)`` vector or an
    ``(n, k)`` panel of right-hand sides (then one :class:`SolveStats`
    per column comes back); see ``taped_solve`` for the convergence
    semantics.  Callers that solve repeatedly against one hierarchy
    should hold the tape themselves (see
    :meth:`repro.hypre.boomeramg.BoomerAMG.get_tape`) to amortise the
    recording pass as well.
    """
    from repro.tape import record_cycle, taped_solve

    params = params or SolveParams()
    batch = 1 if np.ndim(b) == 1 else np.shape(b)[1]
    tape = record_cycle(hierarchy, params, spmv=spmv, batch=batch)
    return taped_solve(tape, b, x0=x0, params=params)
