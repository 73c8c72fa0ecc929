"""Evolving-problem benchmark: incremental hierarchy patching vs re-setup.

Drives the three :func:`repro.matrices.generators.evolving_sequence`
families (Newton chain with Jacobian pattern growth, time-stepping with a
moving stencil window, local refinement) through ``BoomerAMG`` on the AmgT
backend and times, per step and per dirty fraction:

* ``patch@Npct``   — incremental re-setup ``setup(a, reuse=h, patch=True)``
  (per-block-row fingerprint diff, dirty-row SpGEMM replay, spliced plans)
  versus a cold ``setup(a)`` on a fresh backend.
* the same steps also time the exact re-setup (``setup(a, reuse=h)``
  without ``patch``: frozen interpolation, dirty Galerkin rows replayed)
  as the ``resetup_median_s`` baseline, chained on the previous step's
  exact hierarchy the way the patch path is chained on its own.  A
  pattern-changing step knocks it back to a cold build, which the
  record's ``resetup_outcome`` reports — the gap the patch path closes.

Correctness is asserted in-run: every hierarchy the patch path returns
must be bit-identical to a cold setup of the same matrix (level
operators, interpolation, restriction, smoothing diagonals, C/F
markers) — fallbacks included, since a fallback IS a cold build.  All
three paths are timed the same way: each timed call's output is kept
and checked after the clock stops (patched and cold outputs against the
first cold setup, exact re-setups against the first exact one).  Each
record carries its honest ``outcome``: coarse-level C/F drift or a
flooded diff (the 20% moving window) legitimately falls back.  The run
asserts at the end that at least two families kept every <= 5% step on
the patch path with a >= 2x median win over cold.

Results land in ``BENCH_evolve.json`` at the repo root with the usual
shape: one record per (family, dirty fraction, step) with median seconds
per path and the speedup, per-op median-of-speedups in ``summary``, and
one ``repro.obs`` metrics snapshot per family in ``metrics`` (untimed
instrumented passes surfacing the ``setup_reuse_total`` counters; the
timed sections run with observability off).

Run with ``PYTHONPATH=src python benchmarks/bench_evolve.py``; environment
knobs: ``REPRO_EVOLVE_FAMILIES`` (comma-separated, default
``newton,timestep,refine``), ``REPRO_EVOLVE_FRACS`` (default
``0.01,0.05,0.20``), ``REPRO_EVOLVE_NX``, ``REPRO_EVOLVE_STEPS`` and
``REPRO_EVOLVE_REPEATS``.
"""

from __future__ import annotations

import os

import numpy as np

import common

from repro.amg.cycle import SolveParams
from repro.gpu.specs import get_device
from repro.hypre.backends import AmgTBackend
from repro.hypre.boomeramg import BoomerAMG
from repro.matrices.generators import evolving_sequence

DEFAULT_FAMILIES = ["newton", "timestep", "refine"]
DEFAULT_FRACS = [0.01, 0.05, 0.20]
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_evolve.json")
#: Every backend prices on the device the payload's attribution divides by.
DEVICE = get_device(common.ATTRIBUTION_DEVICE)

NX = int(os.environ.get("REPRO_EVOLVE_NX", "64"))
STEPS = int(os.environ.get("REPRO_EVOLVE_STEPS", "3"))


def _fracs_from_env() -> list[float]:
    raw = os.environ.get("REPRO_EVOLVE_FRACS", "")
    if raw.strip():
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    return list(DEFAULT_FRACS)


def _assert_bit_identical(cold, other) -> None:
    """*other* must carry *cold*'s exact bits (a patched hierarchy those of
    a cold setup; a repeated exact re-setup those of its first run)."""
    assert cold.num_levels == other.num_levels
    for lc, lo in zip(cold.levels, other.levels):
        for name in ("a", "p", "r"):
            mc, mo = getattr(lc, name), getattr(lo, name)
            assert (mc is None) == (mo is None)
            if mc is None:
                continue
            np.testing.assert_array_equal(mc.indptr, mo.indptr)
            np.testing.assert_array_equal(mc.indices, mo.indices)
            np.testing.assert_array_equal(mc.data, mo.data)
        np.testing.assert_array_equal(lc.dinv, lo.dinv)
        if lc.cf_marker is not None:
            np.testing.assert_array_equal(lc.cf_marker, lo.cf_marker)


def _solver() -> BoomerAMG:
    return BoomerAMG(AmgTBackend(DEVICE, precision="fp64"))


def _cold_setup(csr):
    amg = _solver()
    return amg, amg.setup(csr)


def _timed(fn, repeats: int):
    """``(median, spread_rel, outputs)`` of *repeats* calls to *fn*; the
    outputs are kept for checking once the clock has stopped."""
    outputs: list = []
    med, spread = common.median_time_stats(lambda: outputs.append(fn()),
                                           repeats)
    return med, spread, outputs


def bench_family(kind: str, frac: float, repeats: int) -> list[dict]:
    """Time every step of one evolving sequence at one dirty fraction."""
    seq = evolving_sequence(kind, nx=NX, steps=STEPS, dirty_frac=frac, seed=1)
    op = f"patch@{frac:g}"

    solver = _solver()
    prev = solver.setup(seq[0])
    exact_solver = _solver()
    exact_prev = exact_solver.setup(seq[0])

    records = []
    for step, a in enumerate(seq[1:], start=1):
        _, h_cold = _cold_setup(a)
        h = solver.setup(a, reuse=prev, patch=True)
        _assert_bit_identical(h_cold, h)
        patched = bool(h.patched)

        patched_s, spread, patched_outs = _timed(
            lambda a=a, prev=prev: solver.setup(a, reuse=prev, patch=True),
            repeats)
        cold_s, _, cold_outs = _timed(lambda a=a: _cold_setup(a)[1], repeats)
        h_exact = exact_solver.setup(a, reuse=exact_prev)
        resetup_s, _, exact_outs = _timed(
            lambda a=a, exact_prev=exact_prev: exact_solver.setup(
                a, reuse=exact_prev),
            repeats)
        for out in patched_outs + cold_outs:
            _assert_bit_identical(h_cold, out)
        for out in exact_outs:
            _assert_bit_identical(h_exact, out)

        stats = h.patch_stats if patched else None
        records.append({
            "matrix": kind,
            "op": op,
            "step": step,
            "outcome": "patched" if patched else "fallback",
            "resetup_outcome": "exact" if h_exact.reused else "fallback",
            "dirty_rows": None if stats is None else stats["dirty_rows"],
            "median_s": patched_s,
            "cold_median_s": cold_s,
            "resetup_median_s": resetup_s,
            "speedup": cold_s / patched_s,
            "resetup_speedup": resetup_s / patched_s,
            "spread_rel": spread,
        })
        prev, exact_prev = h, h_exact
    return records


def _metrics_pass(kind: str, frac: float):
    """Untimed instrumented chain: surfaces ``setup_reuse_total``.  One
    V-cycle on the last hierarchy follows (setup charges no work to the
    coarsest level, the cycle's coarse solve does), so the attribution
    has a row at every level; the workload returns the log it charged."""
    def workload():
        seq = evolving_sequence(kind, nx=NX, steps=STEPS, dirty_frac=frac, seed=1)
        solver = _solver()
        prev = solver.setup(seq[0])
        for a in seq[1:]:
            prev = solver.setup(a, reuse=prev, patch=True)
        solver.solve(np.ones(seq[-1].nrows),
                     params=SolveParams(max_iterations=1))
        return [solver.perf]
    return workload


def run(families=None, fracs=None, repeats=None, out_path=OUT_PATH) -> dict:
    families = families or common.matrices_from_env(
        "REPRO_EVOLVE_FAMILIES", DEFAULT_FAMILIES)
    fracs = fracs or _fracs_from_env()
    repeats = repeats or common.repeats_from_env("REPRO_EVOLVE_REPEATS", 5)

    results: list[dict] = []
    metrics: dict = {}
    logs: dict = {}
    for kind in families:
        print(f"== {kind} (nx={NX}, steps={STEPS}) ==")
        for frac in fracs:
            for rec in bench_family(kind, frac, repeats):
                results.append(rec)
                print(
                    f"  {rec['op']:<12} step {rec['step']} "
                    f"[{rec['outcome']:<8}] patched {rec['median_s']*1e3:8.2f} ms  "
                    f"cold {rec['cold_median_s']*1e3:8.2f} ms  "
                    f"({rec['speedup']:.2f}x, vs resetup {rec['resetup_speedup']:.2f}x)"
                )
        metrics[kind], logs[kind] = common.collect_metrics(
            _metrics_pass(kind, min(fracs)))

    ops = [f"patch@{f:g}" for f in fracs]
    summary = common.summarize_speedups(results, ops)
    # Families whose patched re-setup wins >= 2x over cold at <= 5% dirt.
    small = [r for r in results if float(r["op"].split("@")[1]) <= 0.05]
    winners = sorted({
        kind for kind in families
        if all(r["outcome"] == "patched" for r in small if r["matrix"] == kind)
        and np.median([r["speedup"] for r in small if r["matrix"] == kind]) >= 2.0
    })
    if small:
        summary["acceptance"] = {
            "families_2x_at_5pct": winners,
            "median_speedup": float(np.median([r["speedup"] for r in small])),
            "min_speedup": float(np.min([r["speedup"] for r in small])),
        }
        assert len(winners) >= min(2, len(families)), (
            f"patched re-setup won >= 2x over cold at <= 5% dirt on only "
            f"{winners} — need at least two families"
        )

    return common.write_payload(
        out_path,
        "benchmarks/bench_evolve.py",
        {
            "device": common.ATTRIBUTION_DEVICE,
            "precision": "fp64",
            "nx": NX,
            "steps": STEPS,
            "families": families,
            "dirty_fracs": fracs,
            "repeats": repeats,
        },
        results,
        summary,
        metrics,
        logs,
        op_width=12,
    )


if __name__ == "__main__":
    run()
