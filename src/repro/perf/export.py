"""Export the performance log to CSV / JSON.

The benchmark harnesses print paper-shaped tables; downstream analysis
(plotting Fig. 8-style dot sequences, regression tracking) wants the raw
per-call records instead.  ``to_csv`` / ``to_json`` dump one row per
simulated kernel call; the per-level aggregate behind the banded
structure of Fig. 8 is :func:`repro.obs.profile.attribute_log`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.perf.timeline import PerformanceLog

__all__ = ["to_csv", "to_json"]

_FIELDS = [
    "index",
    "phase",
    "kernel",
    "backend",
    "precision",
    "level",
    "sim_time_us",
    "mma_issues",
    "scalar_flops",
    "bytes_read",
    "bytes_written",
    "launches",
    "imbalance",
]


def _rows(log: PerformanceLog):
    for i, rec in enumerate(log.records):
        yield {
            "index": i,
            "phase": rec.phase,
            "kernel": rec.kernel,
            "backend": rec.backend,
            "precision": rec.precision.value,
            "level": rec.level,
            "sim_time_us": rec.sim_time_us,
            "mma_issues": rec.counters.total_mma,
            "scalar_flops": rec.counters.total_scalar_flops,
            "bytes_read": rec.counters.bytes_read,
            "bytes_written": rec.counters.bytes_written,
            "launches": rec.counters.launches,
            "imbalance": rec.counters.imbalance,
        }


def to_csv(log: PerformanceLog, path: str | Path) -> Path:
    """Write one CSV row per kernel call; returns the path written."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FIELDS)
        writer.writeheader()
        for row in _rows(log):
            writer.writerow(row)
    return path


def to_json(log: PerformanceLog, path: str | Path | None = None):
    """Return the records as a list of dicts; optionally write JSON."""
    data = list(_rows(log))
    if path is not None:
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
    return data
