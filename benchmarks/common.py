"""Shared plumbing for the benchmark scripts.

Both ``bench_hotpath.py`` and ``bench_setup.py`` follow the same recipe:
read the matrix list and repeat count from environment knobs, median-time
paired fast/baseline closures, summarise per-op speedups, and write a
``BENCH_*.json`` payload at the repo root.  This module holds that recipe
once.

Payloads additionally carry a ``metrics`` key: one
:class:`repro.obs.MetricsRegistry` snapshot *per benchmarked matrix*,
each taken from a separate, *untimed* instrumented pass over a
representative slice of that matrix's workload.  The registry is reset
between configurations (see :func:`reset_metrics`), so a snapshot never
mixes counters from two matrices.  The timed sections always run with
observability off — tracing costs would perturb the medians — so the
snapshots document what the benchmark exercised (cache hits, dispatch
paths, kernel counters) without touching the numbers.  The same pass
returns the performance logs it charged; the payload's ``attribution``
is :func:`repro.obs.profile.attribute_log` over their records, so every
row carries its AMG level and exact per-precision counters.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.perf.timeline import PerformanceLog

__all__ = [
    "matrices_from_env",
    "repeats_from_env",
    "median_time",
    "median_time_stats",
    "summarize_speedups",
    "reset_metrics",
    "collect_metrics",
    "attribution",
    "write_payload",
]

#: Device whose roofline the payload's attribution is measured against.
ATTRIBUTION_DEVICE = "H100"


def matrices_from_env(env_var: str, default: list[str]) -> list[str]:
    """Comma-separated matrix names from *env_var*, else *default*."""
    raw = os.environ.get(env_var, "")
    if raw.strip():
        return [n.strip() for n in raw.split(",") if n.strip()]
    return list(default)


def repeats_from_env(env_var: str, default: int = 5) -> int:
    return int(os.environ.get(env_var, str(default)))


def median_time_stats(fn: Callable[[], object], repeats: int) -> tuple[float, float]:
    """``(median, spread_rel)`` wall-clock seconds of *repeats* calls.

    ``spread_rel`` is ``(max - min) / median`` — the run-to-run jitter the
    regression sentinel (``repro obs diff``) folds into its tolerance, so
    a noisy op does not trip the gate while a tight one still can.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    spread = (max(times) - min(times)) / med if med > 0 else 0.0
    return med, spread


def median_time(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of *repeats* calls to *fn*."""
    return median_time_stats(fn, repeats)[0]


def summarize_speedups(results: list[dict], ops) -> dict:
    """Per-op ``{median_speedup, min_speedup}`` over the result records."""
    summary = {}
    for op in ops:
        ratios = [r["speedup"] for r in results if r["op"] == op]
        summary[op] = {
            "median_speedup": statistics.median(ratios),
            "min_speedup": min(ratios),
        }
    return summary


def reset_metrics() -> None:
    """Clear all observability state (metrics registry, trace spans).

    Call between bench configurations: counters otherwise accumulate
    across matrices within one run, so the second matrix's snapshot
    would silently include the first matrix's cache hits and dispatches.
    """
    import repro.obs as obs

    obs.reset()


def collect_metrics(
    workload: Callable[[], list[PerformanceLog]],
) -> tuple[dict, PerformanceLog]:
    """Run *workload* once with observability on; return the registry
    snapshot it produced and one :class:`~repro.perf.timeline.PerformanceLog`
    holding, in order, the records of every log the workload returns (the
    logs it charged).  Obs state is reset before and after, so the
    snapshot covers exactly this pass — nothing carried over from any
    earlier configuration, nothing leaked into the next."""
    import repro.obs as obs
    from repro.perf.timeline import PerformanceLog

    reset_metrics()
    with obs.trace_region():
        logs = workload()
    snapshot = obs.REGISTRY.snapshot()
    reset_metrics()
    return snapshot, PerformanceLog([r for log in logs for r in log.records])


def attribution(logs: dict) -> dict:
    """Roofline attribution per benchmarked matrix, folded from the
    records its instrumented pass charged (see :mod:`repro.obs.profile`)."""
    from repro.obs import profile

    return {
        name: profile.roofline_payload(
            profile.attribute_log(log, ATTRIBUTION_DEVICE), ATTRIBUTION_DEVICE)
        for name, log in logs.items()
    }


def write_payload(
    out_path: str,
    generated_by: str,
    config: dict,
    results: list[dict],
    summary: dict,
    metrics: dict,
    logs: dict,
    op_width: int = 10,
) -> dict:
    """Assemble the payload, write it as JSON, print the summary lines.

    Every payload is stamped with run provenance (``meta``: git SHA +
    dirty flag, timestamp, host, interpreter/numpy versions) and carries
    a roofline ``attribution`` section per matrix, folded from the
    records of its instrumented pass (*logs*, as
    :func:`collect_metrics` returns them).  When ``REPRO_LEDGER`` names a
    path, the run is also appended to that JSONL perf ledger.
    """
    from repro.obs import ledger

    payload = {
        "generated_by": generated_by,
        "config": config,
        "results": results,
        "summary": summary,
        "metrics": metrics,
        "meta": ledger.run_metadata(),
        "attribution": attribution(logs),
    }
    with open(out_path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"\nwrote {os.path.abspath(out_path)}")
    for op, s in summary.items():
        print(f"  {op:<{op_width}} median speedup {s['median_speedup']:.2f}x "
              f"(min {s['min_speedup']:.2f}x)")
    ledger_path = os.environ.get("REPRO_LEDGER", "").strip()
    if ledger_path:
        ledger.append_run(ledger_path, payload, bench=generated_by)
        print(f"appended run to ledger {os.path.abspath(ledger_path)}")
    return payload
