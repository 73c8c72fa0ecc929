"""Performance recording and reporting.

:mod:`repro.perf.timeline` collects one record per simulated kernel call
(the data behind Fig. 8); :mod:`repro.perf.report` aggregates phase
breakdowns and geomean speedups (Figs. 1, 2, 7, 9 and the headline
numbers of the abstract).
"""

from repro.perf.timeline import PerformanceLog, PhaseTotals
from repro.perf.report import geomean, speedup_table, PhaseBreakdown
from repro.perf.export import to_csv, to_json

__all__ = [
    "PerformanceLog",
    "PhaseTotals",
    "geomean",
    "speedup_table",
    "PhaseBreakdown",
    "to_csv",
    "to_json",
]
