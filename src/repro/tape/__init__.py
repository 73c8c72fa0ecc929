"""Kernel-tape compilation of the multigrid cycle — the solve phase's one
execution path: record once, replay with zero per-iteration dispatch.

* :func:`record_cycle` — one instrumented pass over the cycle recursion,
  emitting fully-bound closures over a preallocated workspace of
  ``(batch, n)`` row panels (a single right-hand side is a panel of one);
* :class:`CycleTape` — the recorded tape: replay, staleness check,
  differential verification against :func:`repro.amg.cycle.mg_cycle`,
  perf/metrics templates;
* :func:`taped_solve` — the solve loop, over an ``(n,)`` vector or an
  ``(n, k)`` panel, per-column bit-identical to the vector solve.

High-level entry points: ``AmgTSolver.solve``, ``AmgTSolver.solve_multi``
(the same path on a panel), ``BoomerAMG.solve`` / ``precondition`` and
the functional ``amg_solve``.
"""

from repro.tape.recorder import record_cycle
from repro.tape.tape import CycleTape, TapeOp, Workspace, taped_solve

__all__ = [
    "CycleTape",
    "TapeOp",
    "Workspace",
    "record_cycle",
    "taped_solve",
]
