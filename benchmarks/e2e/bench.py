"""Measurement loop and metrics of the end-to-end benchmark.

:func:`run_workload` measures one workload for a time budget and returns
its report.  Untraced, it repeats the workload's cases round by round
(in a seeded order per round) until the budget is spent and every case
has run at least once, and reports the end-to-end metrics.  Traced, it
spends half the budget the same way, then runs one more round with
:func:`repro.obs.trace_region` on around each case, and reports the
per-layer metrics: exclusive span times, registry counters, and the
priced kernel records of that round.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import sys
import traceback

import numpy as np

from layers import ReconciliationError, host_layers, registry_layers, sim_layers, sim_totals
from repro import obs
from repro.matrices import load_suite_matrix, poisson2d
from repro.obs import trace as obs_trace
from workloads import Sample, clock, make_workload

__all__ = ["END_TO_END", "PER_LAYER", "run_workload"]

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}

#: Per-layer metrics (traced run) and their units.
PER_LAYER = {
    # host clock: exclusive span time of the traced round
    "amg.setup.self_ms": "ms",
    "kernels.spgemm.host_ms": "ms",
    "formats.conversion.host_ms": "ms",
    "kernels.spmv.host_ms": "ms",
    "amg.smoother.host_ms": "ms",
    "amg.cycle.host_ms": "ms",
    "tape.replay.host_ms": "ms",
    "tape.record.host_ms": "ms",
    "solvers.krylov.self_ms": "ms",
    "amg.reuse.exact_ms": "ms",
    "amg.reuse.patch_ms": "ms",
    "bench.unattributed_frac": "ratio",
    # host clock: untraced rounds of the traced run
    "rhs_p50_ms": "ms",
    "tape.latency_p90_ms": "ms",
    "panel_rhs_per_s": "RHS/s",
    # engine counters
    "kernels.operator_cache.hit_ratio": "ratio",
    "kernels.setup_cache.hit_ratio": "ratio",
    "amg.reuse.exact_frac": "ratio",
    "amg.reuse.patched_frac": "ratio",
    "amg.reuse.fallback_frac": "ratio",
    "tape.records": "count",
    "tape.replay_cycles": "count",
    "iterations": "count",
    "solvers.contraction_geomean": "ratio",
    "amg.levels": "count",
    "amg.operator_complexity": "ratio",
    "amg.cycle_complexity": "ratio",
    # simulated clock (H100), AmgT solvers
    "sim_setup_us": "us",
    "sim_solve_us": "us",
    "sim_panel_us_per_rhs": "us",
    "sim_speedup_fp64": "x",
    "sim_speedup_mixed": "x",
    **{f"gpu.{p}.L{i}_us": "us" for p in ("setup", "solve") for i in range(7)},
    "gpu.setup.unleveled_us": "us",
    "gpu.solve.unleveled_us": "us",
    "gpu.setup.spgemm_us": "us",
    "gpu.setup.conversion_us": "us",
    "gpu.setup.other_us": "us",
    "gpu.solve.spmv_us": "us",
    "gpu.solve.other_us": "us",
    "kernels.spgemm.calls": "count",
    "kernels.spgemm.tc_frac": "ratio",
    "formats.conversion.calls": "count",
    "kernels.spmv.calls": "count",
    "kernels.spmv.tc_frac": "ratio",
    "kernels.bytes_computed": "B",
    "kernels.mma_issues": "count",
    "kernels.scalar_flops": "count",
    "kernels.flops_per_byte": "ratio",
    # measurement health
    "obs.trace_overhead_frac": "ratio",
    "obs.dropped_spans": "count",
}


#: Per-repeat fields kept in the report.
RAW_FIELDS = ("round", "setup_s", "solve_s", "solve_calls", "wall_s", "iterations",
              "residuals", "resetup_s", "width1_s", "panel_s", "ok")


def run_case(wl, case: str, rnd: int, traced: bool = False) -> Sample:
    """Prepare, run (inside a root span when *traced*) and check one case."""
    inputs = wl.prepare(case, rnd)
    sample = Sample(case)
    t = clock()
    with obs_trace.trace_region(traced), obs_trace.span(f"case:{case}", "bench"):
        try:
            sample = wl.run(case, inputs, traced)
        except Exception as exc:  # a failing case is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            sample.failures.append(f"{case}: {type(exc).__name__}: {exc}")
            sample.attempted += 1
    sample.wall_s = clock() - t
    sample.round = "traced" if traced else rnd
    wl.check(sample, oracle=traced)
    return sample


def measure(wl, budget_s: float) -> tuple[dict[str, list[Sample]], float]:
    """Closed loop over the cases until *budget_s* is spent.

    Round 0 runs every case once in declared order, so the peak RSS
    returned (MiB, read after that round) covers a fixed amount of work;
    later rounds run in a seeded order, stopping case by case.
    """
    start = clock()
    samples = {case: [run_case(wl, case, 0)] for case in wl.cases}
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rnd = 1
    while clock() - start < budget_s:
        order = list(wl.cases)
        random.Random(f"{wl.seed}/{rnd}").shuffle(order)
        for case in order:
            samples[case].append(run_case(wl, case, rnd))
            if clock() - start >= budget_s:
                break
        rnd += 1
    return samples, peak_rss


def _per_case_sum(samples: dict, field: str, stat) -> float:
    """Sum over cases of *stat* of *field* over the case's passing samples."""
    total = 0.0
    for runs in samples.values():
        values = [getattr(s, field) for s in runs if s.ok]
        if values:
            total += stat(values)
    return total


def _fastest_calls_sum(samples: dict) -> float:
    """Sum over cases and over each case's k-th solve call of the fastest
    passing repeat of that call."""
    total = 0.0
    for runs in samples.values():
        calls = [s.solve_calls for s in runs if s.ok]
        for k in range(max(map(len, calls), default=0)):
            total += min(c[k] for c in calls if len(c) > k)
    return total


def end_to_end(samples: dict, peak_rss: float) -> dict:
    # Interference on a shared host only ever slows a sample down, and it
    # comes in spells long enough to cover most of a run's repeats of a
    # case: the per-case median then tracks the neighbours, the fastest
    # repeat tracks the program (fig7-paper on a shared 2-vCPU VM: solve_s
    # spread over ten seeds 17% with the fastest repeat, 32% with the median).
    # The fastest repeat is taken per solve call, not per case, so that a
    # case of many calls (rhs-stream: 17 per round) needs a quiet spell of
    # one call, not of the whole case.
    return {
        "setup_s": _per_case_sum(samples, "setup_s", statistics.median),
        "solve_s": _fastest_calls_sum(samples),
        "peak_rss_mib": peak_rss,
    }


def _geomean(values: list) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def _sim_metrics(wl, traced: dict) -> dict:
    """AmgT setup/solve/panel totals and the Fig. 7 speedups over HYPRE."""
    amgt = [r for s in traced.values() for m, recs in s.records if m != "hypre" for r in recs]
    panel = [r for s in traced.values() for r in s.panel_records]
    per_case = {s.case: sim_totals(r for _, recs in s.records for r in recs)
                for s in traced.values() if s.records}
    speedups: dict = {"amgt-fp64": [], "amgt-mixed": []}
    for case, hypre_us in per_case.items():
        if not case.endswith("/hypre"):
            continue
        matrix = case.split("/")[0]
        for variant, values in speedups.items():
            if per_case.get(f"{matrix}/{variant}"):
                values.append(hypre_us / per_case[f"{matrix}/{variant}"])
    return {
        **sim_layers(amgt),
        "sim_setup_us": math.fsum(r.sim_time_us for r in amgt if r.phase == "setup"),
        "sim_solve_us": math.fsum(r.sim_time_us for r in amgt if r.phase == "solve"),
        "sim_panel_us_per_rhs": sim_totals(panel) / wl.width,
        "sim_speedup_fp64": _geomean(speedups["amgt-fp64"]),
        "sim_speedup_mixed": _geomean(speedups["amgt-mixed"]),
    }


def _contraction(history: list) -> float | None:
    """Mean per-iteration residual contraction of one Krylov solve."""
    if len(history) < 2 or history[0] <= 0 or history[-1] <= 0:
        return None
    return (history[-1] / history[0]) ** (1.0 / (len(history) - 1))


def per_layer(wl, untraced: dict, traced: dict) -> dict:
    tracer = obs.get_tracer()
    if tracer.dropped:
        raise ReconciliationError(f"{tracer.dropped} spans dropped")
    out = host_layers(tracer.roots)
    out.update(registry_layers(obs.get_registry().snapshot()))
    out.update(_sim_metrics(wl, traced))

    facts = [f for s in traced.values() for m, f in s.hierarchies if m != "hypre"]
    contractions = [c for s in traced.values() for h in s.histories
                    if (c := _contraction(h)) is not None]
    width1 = [t for runs in untraced.values() for s in runs for t in s.width1_s]
    panels = [t for runs in untraced.values() for s in runs for t in s.panel_s]
    untraced_wall = sum(statistics.median(s.wall_s for s in runs) for runs in untraced.values())
    traced_wall = sum(traced[case].wall_s for case in untraced)
    out.update({
        "rhs_p50_ms": 1e3 * float(np.percentile(width1, 50)) if width1 else 0.0,
        "tape.latency_p90_ms": 1e3 * float(np.percentile(width1, 90)) if width1 else 0.0,
        "panel_rhs_per_s": len(panels) * wl.width / sum(panels) if panels else 0.0,
        "iterations": sum(s.iterations for s in traced.values()),
        "solvers.contraction_geomean": _geomean(contractions),
        "amg.levels": statistics.fmean(f[0] for f in facts) if facts else 0.0,
        "amg.operator_complexity": statistics.fmean(f[1] for f in facts) if facts else 0.0,
        "amg.cycle_complexity": statistics.fmean(f[2] for f in facts) if facts else 0.0,
        "obs.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "obs.dropped_spans": tracer.dropped,
    })
    return out


def warm_up(name: str, seed: int) -> None:
    """One untimed round of a tiny instance: lazy imports and first-call
    set-up of every API path the workload uses happen here."""
    tiny = make_workload(name, seed, "smoke", load=lambda _: poisson2d(12))
    for case in tiny.cases:
        run_case(tiny, case, 0)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", load=load_suite_matrix) -> dict:
    """Measure workload *name* for *seconds*; return the report dict.

    *scale* (``"full"`` or ``"smoke"``) sizes the problems; *load* maps a
    suite-matrix name to its matrix (tests inject broken inputs here).
    """
    wl = make_workload(name, seed, scale, load)
    warm_up(name, seed)
    untraced, peak_rss = measure(wl, seconds / 2 if trace else seconds)
    runs = [s for case_runs in untraced.values() for s in case_runs]
    if trace:
        obs.reset()
        traced = {case: run_case(wl, case, 0, traced=True) for case in wl.traced_cases}
        metrics = per_layer(wl, untraced, traced)
        runs += traced.values()
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, peak_rss)
        units = END_TO_END
    failures = [f for s in runs for f in s.failures]
    attempted = sum(s.attempted for s in runs)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": {
            case: [{k: getattr(s, k) for k in RAW_FIELDS} for s in case_runs]
            for case, case_runs in untraced.items()
        },
    }
