"""Algebraic multigrid components.

The setup phase (Alg. 1) lives in :mod:`repro.amg.hierarchy` and composes
strength-of-connection (:mod:`repro.amg.strength`), PMIS coarsening
(:mod:`repro.amg.coarsen`), SpGEMM-based interpolation
(:mod:`repro.amg.interp`) and the Galerkin product
(:mod:`repro.amg.galerkin`).  The solve phase (Alg. 2) executes through the
kernel tape (:mod:`repro.tape`); :mod:`repro.amg.cycle` holds its
functional entry point :func:`amg_solve` and the interpreted reference
cycle :func:`mg_cycle`, with smoothers in :mod:`repro.amg.smoothers` and
the coarsest-level solver in :mod:`repro.amg.coarse`.
:class:`repro.amg.solver.AmgTSolver` is the standalone public API.
"""

from repro.amg.strength import strength_of_connection
from repro.amg.coarsen import pmis_coarsen
from repro.amg.interp import build_interpolation, truncate_interpolation
from repro.amg.galerkin import galerkin_product
from repro.amg.hierarchy import AMGHierarchy, AMGLevel, SetupParams, amg_setup
from repro.amg.smoothers import l1_jacobi_diagonal, jacobi_sweep
from repro.amg.cycle import mg_cycle, SolveParams, amg_solve
from repro.amg.coarse import CoarseSolver
from repro.amg.precision import PrecisionSchedule

__all__ = [
    "strength_of_connection",
    "pmis_coarsen",
    "build_interpolation",
    "truncate_interpolation",
    "galerkin_product",
    "AMGHierarchy",
    "AMGLevel",
    "SetupParams",
    "amg_setup",
    "l1_jacobi_diagonal",
    "jacobi_sweep",
    "mg_cycle",
    "SolveParams",
    "amg_solve",
    "CoarseSolver",
    "PrecisionSchedule",
    "AmgTSolver",
    "SolveResult",
]


def __getattr__(name: str):
    # The solver sits on the HYPRE layer, which itself imports this
    # package (``hypre.backends`` -> ``amg.precision``): resolve it on
    # first access so importing either package first works.
    if name in ("AmgTSolver", "SolveResult"):
        from repro.amg import solver

        return getattr(solver, name)
    raise AttributeError(f"module 'repro.amg' has no attribute {name!r}")
