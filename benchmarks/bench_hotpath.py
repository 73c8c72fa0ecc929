"""Host hot-path benchmark: cached kernel engine vs the pre-cache dataflow.

Times the three wall-clock-dominant host paths on suite matrices:

* ``spmv_warm``   — 50 SpMV calls against a warm operator cache, versus the
  naive per-call path (plan + popcount recomputed, tiles double-cast,
  ``einsum(optimize=True)`` contraction, ``np.add.at`` scatter).
* ``spgemm_rap``  — the numeric phase of the setup-shaped Galerkin product
  R·(A·P) with a prebuilt symbolic plan, versus the naive numeric phase.
* ``v_cycle``     — one full V-cycle driven by mBSR SpMVs, versus the same
  cycle with per-call casts/einsum/scatter (plans prebuilt for the naive
  path too, matching what the pre-cache hypre layer memoised).
* ``v_cycle_taped`` — the same V-cycle replayed from a ``repro.tape``
  recording (pre-resolved dispatch, preallocated workspace slots, no
  per-call record construction), versus the interpreted cached-engine
  cycle that ``v_cycle`` times as its fast path.

Both paths compute bit-identical values (asserted per run), so the measured
ratio isolates the engine change.  Results land in ``BENCH_hotpath.json``
at the repo root: one record per (matrix, op) with median seconds for each
path and the speedup, per-op median-of-speedups in ``summary``, and one
``repro.obs`` metrics snapshot per matrix (from an untimed instrumented
setup + V-cycle through ``BoomerAMG`` on the AmgT backend, registry
reset between matrices) in ``metrics``, with the per-level roofline
``attribution`` of the records that pass charged (the timed sections
always run with observability off).

Run with ``PYTHONPATH=src python benchmarks/bench_hotpath.py``; environment
knobs: ``REPRO_HOTPATH_MATRICES`` (comma-separated names, default
``thermal1,bcsstk39,cant``) and ``REPRO_HOTPATH_REPEATS``.
"""

from __future__ import annotations

import os

import numpy as np

import common

from repro.amg.cycle import SolveParams, SolveStats, mg_cycle
from repro.amg.hierarchy import SetupParams, amg_setup
from repro.formats.bitmap import BLOCK_SIZE, bitmap_multiply, bitmap_popcount
from repro.formats.convert import csr_to_mbsr
from repro.gpu.counters import Precision
from repro.gpu.specs import get_device
from repro.hypre.backends import AmgTBackend
from repro.hypre.boomeramg import BoomerAMG
from repro.kernels.spgemm import mbsr_spgemm_symbolic_plan
from repro.kernels.spgemm_numeric import numeric_spgemm
from repro.kernels.spmv import build_spmv_plan, mbsr_spmv
from repro.matrices import load_suite_matrix

DEFAULT_MATRICES = ["thermal1", "bcsstk39", "cant"]
SPMV_CALLS = 50
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_hotpath.json")

_median_time = common.median_time


# ----------------------------------------------------------------------
# The naive (pre-cache) dataflows.  These reproduce the replaced host
# paths exactly — same values, same rounding — so the timing ratio is a
# like-for-like measurement of the engine change.
# ----------------------------------------------------------------------

def naive_spmv_values(mat, x, precision, plan=None):
    """Pre-cache SpMV: per-call plan/popcount, double cast, einsum, add.at."""
    in_dtype = precision.np_dtype
    acc_dtype = precision.accum_dtype
    if plan is None:
        plan = build_spmv_plan(mat)  # recomputes bitmap popcounts per call
    xp = np.zeros(mat.nb * BLOCK_SIZE, dtype=in_dtype)
    xp[: mat.ncols] = x.astype(in_dtype)
    y = np.zeros(mat.mb * BLOCK_SIZE, dtype=acc_dtype)
    if mat.blc_num:
        xblk = xp.reshape(mat.nb, BLOCK_SIZE)[mat.blc_idx]
        tiles = mat.blc_val.astype(in_dtype).astype(acc_dtype)
        contrib = np.einsum(
            "bij,bj->bi", tiles, xblk.astype(acc_dtype), optimize=True
        )
        rows = np.repeat(
            np.arange(mat.mb, dtype=np.int64), np.diff(mat.blc_ptr)
        )
        # lint: disable=R2 -- naive reference path: the bench measures
        # the segops engine against exactly this unbuffered scatter
        np.add.at(y.reshape(mat.mb, BLOCK_SIZE), rows, contrib)
    return y[: mat.nrows]


def naive_numeric_values(mat_a, mat_b, symbolic, precision):
    """Pre-cache numeric SpGEMM: popcount + double cast + einsum + ufunc.at."""
    in_dtype = precision.np_dtype
    acc_dtype = precision.accum_dtype
    blc_num_c = symbolic.blc_num_c
    pair_a, pair_b = symbolic.pair_a, symbolic.pair_b
    blc_val_c = np.zeros((blc_num_c, 4, 4), dtype=acc_dtype)
    blc_map_c = np.zeros(blc_num_c, dtype=np.uint16)
    if pair_a.shape[0] == 0:
        return blc_val_c, blc_map_c
    # Output tile of every pair, from the plan's per-tile pair pointer.
    pos = np.repeat(np.arange(blc_num_c, dtype=np.int64), np.diff(symbolic.pair_ptr))
    bitmap_popcount(mat_a.blc_map)[pair_a]  # recomputed per call pre-cache
    pair_map = bitmap_multiply(mat_a.blc_map[pair_a], mat_b.blc_map[pair_b])
    tiles_a = mat_a.blc_val[pair_a].astype(in_dtype).astype(acc_dtype)
    tiles_b = mat_b.blc_val[pair_b].astype(in_dtype).astype(acc_dtype)
    prod = np.einsum("pik,pkj->pij", tiles_a, tiles_b, optimize=True)
    # lint: disable=R2 -- naive reference path: the bench measures
    # the segops engine against exactly this unbuffered scatter
    np.add.at(blc_val_c, pos, prod)
    # lint: disable=R2 -- naive reference path, see above
    np.bitwise_or.at(blc_map_c, pos, pair_map)
    return blc_val_c, blc_map_c


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------

def bench_spmv(mbsr, rng, repeats):
    x = rng.normal(size=mbsr.ncols)
    precision = Precision.FP64

    # Warm every cache the fast path uses before timing.
    y_new, _ = mbsr_spmv(mbsr, x, precision)
    y_naive = naive_spmv_values(mbsr, x, precision)
    np.testing.assert_array_equal(np.asarray(y_new), y_naive)

    def run_new():
        for _ in range(SPMV_CALLS):
            mbsr_spmv(mbsr, x, precision)

    def run_naive():
        for _ in range(SPMV_CALLS):
            naive_spmv_values(mbsr, x, precision)

    new_s, spread = common.median_time_stats(run_new, repeats)
    return new_s, _median_time(run_naive, repeats), spread


def bench_spgemm_rap(hierarchy, repeats):
    """Numeric phase of the level-0 Galerkin product R·(A·P)."""
    lvl = hierarchy.levels[0]
    a = csr_to_mbsr(lvl.a)
    p = csr_to_mbsr(lvl.p)
    r = csr_to_mbsr(lvl.r)
    precision = Precision.FP64

    plan_ap = mbsr_spgemm_symbolic_plan(a, p)
    ap = numeric_spgemm(a, p, plan_ap.symbolic, precision)
    from repro.formats.mbsr import MBSRMatrix

    ap_mat = MBSRMatrix(
        shape=(a.nrows, p.ncols),
        blc_ptr=plan_ap.symbolic.blc_ptr_c,
        blc_idx=plan_ap.symbolic.blc_idx_c,
        blc_val=ap.blc_val_c,
        blc_map=ap.blc_map_c,
    )
    plan_rap = mbsr_spgemm_symbolic_plan(r, ap_mat)

    # Sanity: identical numeric output on both paths.
    got = numeric_spgemm(r, ap_mat, plan_rap.symbolic, precision)
    want_val, want_map = naive_numeric_values(r, ap_mat, plan_rap.symbolic, precision)
    np.testing.assert_array_equal(got.blc_val_c, want_val)
    np.testing.assert_array_equal(got.blc_map_c, want_map)

    def run_new():
        numeric_spgemm(a, p, plan_ap.symbolic, precision)
        numeric_spgemm(r, ap_mat, plan_rap.symbolic, precision)

    def run_naive():
        naive_numeric_values(a, p, plan_ap.symbolic, precision)
        naive_numeric_values(r, ap_mat, plan_rap.symbolic, precision)

    new_s, spread = common.median_time_stats(run_new, repeats)
    return new_s, _median_time(run_naive, repeats), spread


def _wrap_levels(hierarchy):
    """mBSR-wrap every level operator, with prebuilt SpMV plans."""
    wrapped = []
    plans = []
    for lvl in hierarchy.levels:
        entry, plan_entry = {}, {}
        for op, mat in (("A", lvl.a), ("R", lvl.r), ("P", lvl.p)):
            if mat is None:
                continue
            entry[op] = csr_to_mbsr(mat)
            # The pre-cache hypre layer memoised plans per operator, so the
            # naive path gets them prebuilt too; only the per-call work
            # (casts, contraction path search, scatter) differs.
            plan_entry[op] = build_spmv_plan(entry[op])
        wrapped.append(entry)
        plans.append(plan_entry)
    return wrapped, plans


def bench_v_cycle(hierarchy, rng, repeats):
    """One full V-cycle with every SpMV routed through the mBSR kernel."""
    precision = Precision.FP64
    wrapped, plans = _wrap_levels(hierarchy)

    def spmv_new(level, op, x):
        y, _ = mbsr_spmv(wrapped[level][op], np.asarray(x, dtype=np.float64),
                         precision)
        return y

    def spmv_naive(level, op, x):
        return naive_spmv_values(
            wrapped[level][op], np.asarray(x, dtype=np.float64), precision,
            plan=plans[level][op],
        )

    n = hierarchy.levels[0].n
    b = rng.normal(size=n)
    params = SolveParams()

    def one_cycle(spmv):
        return mg_cycle(hierarchy, b, np.zeros(n), spmv, params, SolveStats())

    x_new = one_cycle(spmv_new)  # also warms every operator cache
    x_naive = one_cycle(spmv_naive)
    np.testing.assert_array_equal(x_new, x_naive)

    new_s, spread = common.median_time_stats(
        lambda: one_cycle(spmv_new), repeats
    )
    return new_s, _median_time(lambda: one_cycle(spmv_naive), repeats), spread


def bench_v_cycle_taped(hierarchy, rng, repeats):
    """Tape-replayed V-cycle vs the interpreted cached-engine cycle.

    The baseline here is ``bench_v_cycle``'s *fast* path (warm operator
    caches, prebuilt plans) — the ratio isolates what the tape removes:
    per-call dispatch, record construction, and cycle-recursion overhead.
    """
    from repro.kernels.spmv import bind_spmv
    from repro.tape import record_cycle

    precision = Precision.FP64
    wrapped, _ = _wrap_levels(hierarchy)
    tape = record_cycle(
        hierarchy,
        SolveParams(),
        bindings=lambda level, op, width: bind_spmv(
            wrapped[level][op], precision, width=width),
    )

    def spmv_new(level, op, x):
        y, _ = mbsr_spmv(wrapped[level][op], np.asarray(x, dtype=np.float64),
                         precision)
        return y

    n = hierarchy.levels[0].n
    b = rng.normal(size=n)
    params = SolveParams()

    def interpreted():
        return mg_cycle(hierarchy, b, np.zeros(n), spmv_new, params,
                        SolveStats())

    x_taped = tape.cycle(b)
    x_interp = interpreted()
    np.testing.assert_array_equal(x_taped, x_interp)

    new_s, spread = common.median_time_stats(lambda: tape.cycle(b), repeats)
    return new_s, _median_time(interpreted, repeats), spread


def _instrumented_pass(csr, rng):
    """The benchmark's setup and V-cycle, re-run (untimed) with
    observability on through the AmgT backend, so the payload's metrics
    snapshot documents the dispatch paths, cache behaviour and tape
    record/replay counters the benchmark exercised, and its attribution
    has priced rows at every level (a one-iteration solve: the cycle plus
    its residuals and coarse solve).  Returns the log it charged."""
    amg = BoomerAMG(AmgTBackend(get_device(common.ATTRIBUTION_DEVICE)))
    amg.setup(csr)
    amg.solve(rng.normal(size=csr.nrows), params=SolveParams(max_iterations=1))
    return [amg.perf]


def run(matrices=None, repeats=None, out_path=OUT_PATH):
    matrices = matrices or common.matrices_from_env(
        "REPRO_HOTPATH_MATRICES", DEFAULT_MATRICES
    )
    repeats = repeats or common.repeats_from_env("REPRO_HOTPATH_REPEATS")
    rng = np.random.default_rng(0)
    results = []
    metrics, logs = {}, {}
    for name in matrices:
        # Isolate this matrix's run: counters must not accumulate across
        # configurations, or a later snapshot would claim earlier work.
        common.reset_metrics()
        csr = load_suite_matrix(name)
        mbsr = csr_to_mbsr(csr)
        hierarchy = amg_setup(csr, SetupParams())
        for op, (new_s, naive_s, spread) in (
            ("spmv_warm", bench_spmv(mbsr, rng, repeats)),
            ("spgemm_rap", bench_spgemm_rap(hierarchy, repeats)),
            ("v_cycle", bench_v_cycle(hierarchy, rng, repeats)),
            ("v_cycle_taped", bench_v_cycle_taped(hierarchy, rng, repeats)),
        ):
            rec = {
                "matrix": name,
                "op": op,
                "median_s": new_s,
                "naive_median_s": naive_s,
                "speedup": naive_s / new_s if new_s > 0 else float("inf"),
                "spread_rel": spread,
            }
            results.append(rec)
            print(
                f"{name:>12} {op:<13} new {new_s:.5f}s  "
                f"naive {naive_s:.5f}s  speedup {rec['speedup']:.2f}x"
            )
        metrics[name], logs[name] = common.collect_metrics(
            lambda csr=csr: _instrumented_pass(csr, rng)
        )
    summary = common.summarize_speedups(
        results, ("spmv_warm", "spgemm_rap", "v_cycle", "v_cycle_taped")
    )
    return common.write_payload(
        out_path,
        "benchmarks/bench_hotpath.py",
        {
            "matrices": matrices,
            "repeats": repeats,
            "spmv_calls": SPMV_CALLS,
            "precision": "fp64",
        },
        results,
        summary,
        metrics,
        logs,
        op_width=13,
    )


if __name__ == "__main__":
    run()
