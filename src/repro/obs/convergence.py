"""Convergence telemetry: residual norms, contraction, per-cycle timing.

Each traced solve contributes one :class:`SolveTelemetry` to the
process-wide :data:`CONVERGENCE` log: the per-iteration residual norms
(index 0 is the initial norm), the per-cycle wall time, and the per-level
wall breakdown of each cycle (harvested from the cycle's span subtree).
The contraction factor sequence ``r[i+1] / r[i]`` and its geometric mean
are derived on demand — the paper's convergence claim (Table: AmgT reaches
the same residual trajectory as hypre) is checked against exactly these
numbers.

Sharing the ``REPRO_TRACE`` gate keeps untraced solves allocation-free:
:func:`start_solve` returns ``None`` when tracing is off and the call
sites guard with ``if tel is not None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.trace import is_active

__all__ = [
    "SolveTelemetry",
    "ConvergenceLog",
    "CONVERGENCE",
    "get_convergence",
    "start_solve",
    "observe_history",
]


@dataclass
class SolveTelemetry:
    """Per-iteration record of one solver run."""

    solver: str
    attrs: dict = field(default_factory=dict)
    residual_norms: list[float] = field(default_factory=list)
    cycle_wall_ns: list[int] = field(default_factory=list)
    #: One ``{level: wall_ns}`` dict per cycle (empty when the solver has
    #: no level structure, e.g. the Krylov methods).
    level_wall_ns: list[dict[int, int]] = field(default_factory=list)
    converged: bool = False

    # ------------------------------------------------------------------
    def record_initial(self, norm0: float) -> None:
        self.residual_norms.append(float(norm0))

    def record_iteration(self, residual: float, cycle_span=None) -> None:
        """Append one iteration; *cycle_span* (a closed, truthy span)
        contributes its wall time and per-level breakdown — the wall time
        of its kernel spans, by their ``level`` attribute."""
        self.residual_norms.append(float(residual))
        if cycle_span:
            self.cycle_wall_ns.append(cycle_span.wall_ns)
            per_level: dict[int, int] = {}
            for sp in cycle_span.find(kind="kernel"):
                lvl = int(sp.attrs.get("level", -1))
                per_level[lvl] = per_level.get(lvl, 0) + sp.wall_ns
            self.level_wall_ns.append(per_level)

    # ------------------------------------------------------------------
    @property
    def iterations(self) -> int:
        return max(len(self.residual_norms) - 1, 0)

    @property
    def contraction_factors(self) -> list[float]:
        """``r[i+1] / r[i]`` per iteration (inf where ``r[i]`` is 0)."""
        out: list[float] = []
        for prev, curr in zip(self.residual_norms, self.residual_norms[1:]):
            out.append(curr / prev if prev > 0.0 else math.inf)
        return out

    @property
    def average_contraction(self) -> float:
        """Geometric-mean contraction factor (nan without iterations)."""
        factors = [f for f in self.contraction_factors if 0.0 < f < math.inf]
        if not factors:
            return math.nan
        return math.exp(sum(math.log(f) for f in factors) / len(factors))

    def summary(self) -> dict:
        return {
            "solver": self.solver,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_residual": self.residual_norms[-1] if self.residual_norms else None,
            "average_contraction": self.average_contraction,
            "cycle_wall_ns": list(self.cycle_wall_ns),
            **self.attrs,
        }


class ConvergenceLog:
    """All solves telemetered in this process (in start order)."""

    def __init__(self) -> None:
        self.solves: list[SolveTelemetry] = []

    def start(self, solver: str, **attrs) -> SolveTelemetry:
        tel = SolveTelemetry(solver=solver, attrs=dict(attrs))
        self.solves.append(tel)
        return tel

    def last(self) -> SolveTelemetry | None:
        return self.solves[-1] if self.solves else None

    def reset(self) -> None:
        self.solves = []

    def __len__(self) -> int:
        return len(self.solves)


CONVERGENCE = ConvergenceLog()


def get_convergence() -> ConvergenceLog:
    return CONVERGENCE


def start_solve(solver: str, **attrs) -> SolveTelemetry | None:
    """Open a telemetry record when tracing is active, else ``None``."""
    if not is_active():
        return None
    return CONVERGENCE.start(solver, **attrs)


def observe_history(
    solver: str, history, converged: bool = False, **attrs
) -> SolveTelemetry | None:
    """One-shot form for solvers that already keep a residual-history
    list (the Krylov methods): fold the finished history in."""
    if not is_active():
        return None
    tel = CONVERGENCE.start(solver, **attrs)
    tel.residual_norms = [float(r) for r in history]
    tel.converged = bool(converged)
    return tel
