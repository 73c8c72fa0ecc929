"""Multi-RHS serving benchmark: batched tape replay vs width-1 replay.

Prices one taped V-cycle at several RHS widths and reports *per-RHS*
throughput on the simulated device: the batched cycle runs every SpMV
as one blocked SpMM, so the matrix's tiles, indices and bitmaps stream
from device memory once per panel instead of once per RHS.  For the
memory-bound AMG cycle that amortisation is the whole game — per-RHS
simulated time drops severalfold and the arithmetic intensity of the
recorded kernel work rises with width (the paper's tensor-core
economics: each loaded mBSR tile amortised across the panel).

``speedup`` is therefore measured on the cost model — the sum of the
priced kernel records of one cycle, the same accounting every other
figure of the reproduction uses.  The host wall-clock of the replay is
recorded alongside (``cycle_host_s``, ``per_rhs_host_s``), with
``host_speedup`` the per-RHS host gain over the width-1 replay: the
host SpMM runs each tile contraction once per panel through scipy's
multi-vector CSR product, so per-call overheads amortise across the
panel, while its arithmetic stays O(width).

Every configuration first asserts the bit-identity contract in-run:
column ``j`` of the batched cycle equals the width-1 taped cycle on
column ``j``, bit for bit.

Results land in ``BENCH_serve.json`` at the repo root: one record per
(matrix, width) with the simulated panel-cycle time, the per-RHS
simulated time and speedup over the width-1 taped cycle, the arithmetic
intensity (flops/byte) of the recorded cycle, and the host replay
medians; ``summary`` holds the per-width median speedups and
``metrics`` one ``repro.obs`` snapshot per matrix from an untimed
instrumented pass.

Run with ``PYTHONPATH=src python benchmarks/bench_multirhs.py``;
environment knobs: ``REPRO_MULTIRHS_MATRICES`` (comma-separated suite
names, default ``thermal1,bcsstk39``), ``REPRO_MULTIRHS_WIDTHS``
(comma-separated widths, default ``1,8,64``) and
``REPRO_MULTIRHS_REPEATS``.
"""

from __future__ import annotations

import os

import numpy as np

import common

from repro.amg.cycle import SolveParams
from repro.amg.solver import AmgTSolver
from repro.gpu.counters import MMA_FLOPS
from repro.matrices import load_suite_matrix

DEFAULT_MATRICES = ["thermal1", "bcsstk39"]
DEFAULT_WIDTHS = [1, 8, 64]
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_serve.json")


def widths_from_env() -> list[int]:
    raw = os.environ.get("REPRO_MULTIRHS_WIDTHS", "")
    if raw.strip():
        return [int(w) for w in raw.split(",") if w.strip()]
    return list(DEFAULT_WIDTHS)


def sim_cycle_us(tape) -> float:
    """Simulated device time of one cycle's kernel work (already priced
    by the backend at bind time)."""
    return sum(rec.sim_time_us for rec in tape.records)


def arithmetic_intensity(records) -> float:
    """Flops per byte over the recorded kernel work of one cycle."""
    flops = bytes_moved = 0.0
    for rec in records:
        c = rec.counters
        flops += sum(c.scalar_flops.values())
        flops += sum(c.mma_issues.values()) * MMA_FLOPS
        bytes_moved += c.bytes_read + c.bytes_written
    return flops / bytes_moved if bytes_moved else 0.0


def bench_matrix(name: str, widths: list[int], repeats: int, rng) -> list[dict]:
    csr = load_suite_matrix(name)
    solver = AmgTSolver(backend="amgt", precision="fp64").setup(csr)
    driver = solver._driver
    params = SolveParams()
    n = driver.hierarchy.levels[0].n

    tape1 = driver.get_tape(params)
    sim1_us = sim_cycle_us(tape1)
    b1 = rng.normal(size=n)
    tape1.cycle(b1)  # warm

    records = []
    host1_s = None
    for width in widths:
        panel = np.ascontiguousarray(rng.normal(size=(width, n)))
        if width == 1:
            tape_w, cycle_arg = tape1, panel[0]
        else:
            tape_w, cycle_arg = driver.get_tape(params, batch=width), panel

        # Bit-identity contract, asserted before anything is measured.
        x_w = np.atleast_2d(tape_w.cycle(cycle_arg))
        for j in range(width):
            np.testing.assert_array_equal(x_w[j], tape1.cycle(panel[j]))

        sim_us = sim_cycle_us(tape_w)
        per_rhs_us = sim_us / width
        host_s, spread = common.median_time_stats(
            lambda tape_w=tape_w, cycle_arg=cycle_arg: tape_w.cycle(cycle_arg),
            repeats,
        )
        if width == 1:
            host1_s = host_s
        rec = {
            "matrix": name,
            "op": f"width{width}",
            "width": width,
            "cycle_sim_us": sim_us,
            "per_rhs_sim_us": per_rhs_us,
            "speedup": sim1_us / per_rhs_us if per_rhs_us > 0
            else float("inf"),
            "arithmetic_intensity": arithmetic_intensity(tape_w.records),
            "cycle_host_s": host_s,
            "per_rhs_host_s": host_s / width,
            "host_speedup": host1_s * width / host_s if host1_s else None,
            "spread_rel": spread,
        }
        records.append(rec)
        print(
            f"{name:>12} width {width:>3}  sim {sim_us:9.1f}us  "
            f"per-RHS {per_rhs_us:8.2f}us  speedup {rec['speedup']:.2f}x  "
            f"AI {rec['arithmetic_intensity']:.3f} flop/B  "
            f"host {host_s:.5f}s ({host_s / width * 1e3:.3f} ms/RHS)"
        )
    return records


def _instrumented_pass(name: str, widths: list[int], rng) -> None:
    """Record + replay a small slice with observability on so the
    metrics snapshot documents the SpMM dispatch paths exercised."""
    csr = load_suite_matrix(name)
    solver = AmgTSolver(backend="amgt", precision="fp64").setup(csr)
    n = solver.hierarchy.levels[0].n
    width = max(w for w in widths if w > 1) if any(w > 1 for w in widths) \
        else 2
    solver.solve_multi(rng.normal(size=(n, width)), max_iterations=2)


def run(matrices=None, widths=None, repeats=None, out_path=OUT_PATH):
    matrices = matrices or common.matrices_from_env(
        "REPRO_MULTIRHS_MATRICES", DEFAULT_MATRICES
    )
    widths = widths or widths_from_env()
    repeats = repeats or common.repeats_from_env("REPRO_MULTIRHS_REPEATS")
    rng = np.random.default_rng(0)
    results = []
    metrics = {}
    for name in matrices:
        common.reset_metrics()
        results.extend(bench_matrix(name, widths, repeats, rng))
        metrics[name] = common.collect_metrics(
            lambda name=name: _instrumented_pass(name, widths, rng)
        )
    summary = common.summarize_speedups(
        results, [f"width{w}" for w in widths]
    )
    return common.write_payload(
        out_path,
        "benchmarks/bench_multirhs.py",
        {"matrices": matrices, "widths": widths, "repeats": repeats},
        results,
        summary,
        metrics,
    )


if __name__ == "__main__":
    run()
