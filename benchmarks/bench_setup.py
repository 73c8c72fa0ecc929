"""Setup-engine benchmark: pattern-keyed plan replay vs cold setup.

Times the setup-phase engine of ``repro.kernels.setup_cache`` on suite
matrices:

* ``resetup``          — steady-state ``BoomerAMG.setup(a, reuse=True)``
  (frozen coarsening/interpolation, fused numeric-only Galerkin replay)
  versus a cold ``setup(a)`` on a fresh backend.  The serving scenario:
  the operator's coefficients update, its pattern does not.  The values
  alternate x2 / x1/2 between calls, so every row is dirty and every
  level replays in full (an unchanged matrix would replay nothing).
* ``spgemm_plan_hit``  — ``mbsr_spgemm`` against a warm plan cache (the
  analysis + symbolic phases replayed, numeric only) versus the cold
  three-phase call.
* ``conversion_replay`` — ``AmgT_CSR2mBSR`` through a captured tile-layout
  template (value fill only) versus the cold two-pass conversion.

Correctness is asserted in-run: every replayed hierarchy must be
bit-identical to the cold one of the same scaled matrix (level matrices,
interpolation, smoothing diagonals, C/F markers; a power-of-two scale
keeps every bit exact), every cache-hit SpGEMM must launch exactly one
kernel (the numeric phase) and produce the cold product's bits.

Results land in ``BENCH_setup.json`` at the repo root with the same shape
as ``BENCH_hotpath.json``: one record per (matrix, op) with median seconds
per path and the speedup, per-op median-of-speedups in ``summary``, and
one ``repro.obs`` metrics snapshot per matrix (from untimed instrumented
passes, registry reset between matrices) in ``metrics`` (the timed
sections always run with observability off).

Run with ``PYTHONPATH=src python benchmarks/bench_setup.py``; environment
knobs: ``REPRO_SETUP_MATRICES`` (comma-separated names, default
``thermal1,bcsstk39,cant``) and ``REPRO_SETUP_REPEATS``.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

import common

from repro.amg.cycle import SolveParams
from repro.formats.convert import csr_to_mbsr
from repro.gpu.specs import get_device
from repro.hypre.backends import AmgTBackend
from repro.hypre.boomeramg import BoomerAMG
from repro.kernels.setup_cache import SetupPlanCache
from repro.kernels.spgemm import mbsr_spgemm
from repro.matrices import load_suite_matrix

DEFAULT_MATRICES = ["thermal1", "bcsstk39", "cant"]
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_setup.json")
#: Every backend prices on the device the payload's attribution divides by.
DEVICE = get_device(common.ATTRIBUTION_DEVICE)

_median_time = common.median_time


def _assert_hierarchies_identical(cold, replayed) -> None:
    """Bit-identity of the replayed hierarchy against the cold one."""
    assert replayed.reused, "re-setup did not take the reuse path"
    assert cold.num_levels == replayed.num_levels
    for lc, lr in zip(cold.levels, replayed.levels):
        for name in ("a", "p", "r"):
            mc, mr = getattr(lc, name), getattr(lr, name)
            assert (mc is None) == (mr is None)
            if mc is None:
                continue
            np.testing.assert_array_equal(mc.indptr, mr.indptr)
            np.testing.assert_array_equal(mc.indices, mr.indices)
            np.testing.assert_array_equal(mc.data, mr.data)
        np.testing.assert_array_equal(lc.dinv, lr.dinv)
        if lc.cf_marker is not None:
            np.testing.assert_array_equal(lc.cf_marker, lr.cf_marker)


def _cold_setup(csr):
    amg = BoomerAMG(AmgTBackend(DEVICE, precision="fp64"))
    return amg, amg.setup(csr)


def _scaled(csr, factor):
    out = csr.copy()
    out.data = csr.data * factor
    return out


def bench_resetup(csr, repeats):
    """Steady-state all-dirty numeric re-setup vs cold setup (fresh
    backend each)."""
    inputs = [(m, _cold_setup(m)[1]) for m in (_scaled(csr, 2.0), csr)]

    amg = BoomerAMG(AmgTBackend(DEVICE, precision="fp64"))
    amg.setup(csr)
    # Warm-up pair: assembles the fused RAP plans (the intermediate's
    # pattern differs from the cold path's pruned one when the Galerkin
    # product cancels exactly, so its plan is built here, once).
    for m, h_cold in inputs:
        _assert_hierarchies_identical(h_cold, amg.setup(m, reuse=True))
    calls = itertools.cycle(inputs)

    def resetup():
        m, h_cold = next(calls)
        n0 = len(amg.perf.records)
        h = amg.setup(m, reuse=True)
        _assert_hierarchies_identical(h_cold, h)
        for rec in amg.perf.records[n0:]:
            if rec.kernel == "spgemm":
                assert rec.counters.launches == 1, (
                    "steady-state re-setup ran a symbolic phase"
                )
        return h

    resetup()  # steady state reached: every plan and template hits
    new_s, spread = common.median_time_stats(resetup, repeats)
    return new_s, _median_time(lambda: _cold_setup(csr), repeats), spread


def bench_spgemm_plan_hit(csr, repeats):
    """Plan-cache-hit SpGEMM (numeric only) vs the cold three-phase call."""
    mbsr = csr_to_mbsr(csr)
    pt = csr_to_mbsr(csr.transpose())
    cold, cold_rec = mbsr_spgemm(pt, mbsr)
    assert cold_rec.counters.launches == 4

    cache = SetupPlanCache()
    mbsr_spgemm(pt, mbsr, plan_cache=cache)  # populates the plan

    def hit():
        out, rec = mbsr_spgemm(pt, mbsr, plan_cache=cache)
        assert rec.counters.launches == 1, "plan-cache hit ran symbolic"
        np.testing.assert_array_equal(out.blc_val, cold.blc_val)
        np.testing.assert_array_equal(out.blc_map, cold.blc_map)
        return out

    new_s, spread = common.median_time_stats(hit, repeats)
    return new_s, _median_time(lambda: mbsr_spgemm(pt, mbsr), repeats), spread


def bench_conversion_replay(csr, repeats):
    """Template-hit CSR2MBSR (value fill only) vs the cold conversion."""
    cold = csr_to_mbsr(csr)
    cache = SetupPlanCache()
    cache.csr2mbsr(csr)  # captures the tile layout

    def hit():
        out, stats = cache.csr2mbsr(csr)
        np.testing.assert_array_equal(out.blc_val, cold.blc_val)
        np.testing.assert_array_equal(out.blc_map, cold.blc_map)
        return out, stats

    new_s, spread = common.median_time_stats(hit, repeats)
    return (new_s,
            _median_time(lambda: csr_to_mbsr(csr, return_stats=True), repeats),
            spread)


def _instrumented_pass(csr):
    """One cold setup plus one all-dirty numeric re-setup, re-run
    (untimed) with observability on so the payload's metrics snapshot
    documents the plan-cache and conversion-template behaviour being
    benchmarked, then one V-cycle: setup charges no work to the coarsest
    level, the cycle's coarse solve does, so the attribution has a row at
    every level.  Returns the log it charged."""
    amg = BoomerAMG(AmgTBackend(DEVICE, precision="fp64"))
    amg.setup(csr)
    amg.setup(_scaled(csr, 2.0), reuse=True)
    amg.solve(np.ones(csr.nrows), params=SolveParams(max_iterations=1))
    return [amg.perf]


def run(matrices=None, repeats=None, out_path=OUT_PATH):
    matrices = matrices or common.matrices_from_env(
        "REPRO_SETUP_MATRICES", DEFAULT_MATRICES
    )
    repeats = repeats or common.repeats_from_env("REPRO_SETUP_REPEATS")
    results = []
    metrics, logs = {}, {}
    for name in matrices:
        # Isolate this matrix's run: counters must not accumulate across
        # configurations, or a later snapshot would claim earlier work.
        common.reset_metrics()
        csr = load_suite_matrix(name)
        for op, (new_s, cold_s, spread) in (
            ("resetup", bench_resetup(csr, repeats)),
            ("spgemm_plan_hit", bench_spgemm_plan_hit(csr, repeats)),
            ("conversion_replay", bench_conversion_replay(csr, repeats)),
        ):
            rec = {
                "matrix": name,
                "op": op,
                "median_s": new_s,
                "cold_median_s": cold_s,
                "speedup": cold_s / new_s if new_s > 0 else float("inf"),
                "spread_rel": spread,
            }
            results.append(rec)
            print(
                f"{name:>12} {op:<18} replay {new_s:.5f}s  "
                f"cold {cold_s:.5f}s  speedup {rec['speedup']:.2f}x"
            )
        metrics[name], logs[name] = common.collect_metrics(
            lambda csr=csr: _instrumented_pass(csr)
        )
    summary = common.summarize_speedups(
        results, ("resetup", "spgemm_plan_hit", "conversion_replay")
    )
    return common.write_payload(
        out_path,
        "benchmarks/bench_setup.py",
        {
            "matrices": matrices,
            "repeats": repeats,
            "precision": "fp64",
        },
        results,
        summary,
        metrics,
        logs,
        op_width=18,
    )


if __name__ == "__main__":
    run()
