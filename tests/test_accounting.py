"""Reconciliation of the one priced event stream.

A priced :class:`~repro.kernels.record.KernelRecord` enters accounting in
exactly one place, :class:`~repro.perf.timeline.PerformanceLog`, and every
other view derives from the log's records: the ``repro_kernel_*``
registry counters (folded by the log while a trace is active), the
roofline / per-level attribution (:func:`repro.obs.profile.attribute_log`),
the Fig. 1/2 phase split (:meth:`PerformanceLog.phase_totals`, bucketed by
:func:`repro.perf.timeline.kernel_class`) and the bench payloads'
``attribution`` blocks.  These tests run a traced setup, a vector solve, a
panel solve and a patched re-setup on each solver configuration and
assert that all of those views agree with the records.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from collections import defaultdict
from functools import partial, reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro import AmgTSolver, SetupParams, amg_setup
from repro.gpu.cost import CostModel
from repro.gpu.specs import get_device
from repro.matrices import evolving_sequence, poisson2d
from repro.obs import names as obs_names
from repro.obs import profile as obs_profile
from repro.perf.timeline import KERNEL_CLASSES, PerformanceLog, kernel_class

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

import common  # noqa: E402

CONFIGS = [("hypre", "fp64"), ("amgt", "fp64"), ("amgt", "mixed")]
WIDTH = 4

#: ``repro_kernel_*`` counter -> the value one record adds to it.
_COUNTERS = {
    obs_names.KERNEL_CALLS: lambda r: 1.0,
    obs_names.KERNEL_SIM_US: lambda r: r.sim_time_us,
    obs_names.KERNEL_BYTES_READ: lambda r: r.counters.bytes_read,
    obs_names.KERNEL_BYTES_WRITTEN: lambda r: r.counters.bytes_written,
    obs_names.KERNEL_MMA_ISSUES: lambda r: r.counters.total_mma,
    obs_names.KERNEL_SCALAR_FLOPS: lambda r: r.counters.total_scalar_flops,
}


def _labels(rec) -> tuple:
    """The registry label set of one record: (kernel, phase, backend,
    precision, class)."""
    return tuple(sorted({
        "kernel": rec.kernel,
        "phase": rec.phase,
        "backend": rec.backend,
        "precision": rec.precision.name.lower(),
        "kernel_class": rec.kernel_class or f"{rec.backend}_{rec.kernel}",
    }.items()))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def _full_run(backend: str, precision: str):
    """Traced setup, vector solve, panel solve and patched re-setup."""
    a = poisson2d(32)
    obs.reset()
    with obs.trace_region():
        solver = AmgTSolver(backend=backend, precision=precision).setup(a)
        solver.solve(np.ones(a.nrows), max_iterations=3)
        solver.solve_multi(np.ones((a.nrows, WIDTH)), max_iterations=3)
        solver.setup(a, reuse=True, patch=True)
        snapshot = obs.REGISTRY.snapshot()
    obs.reset()
    return solver, snapshot


@pytest.fixture(scope="module", params=CONFIGS,
                ids=[f"{b}-{p}" for b, p in CONFIGS])
def run(request):
    return _full_run(*request.param)


class TestReconciliation:
    def test_run_covers_every_phase_and_width(self, run):
        solver, _ = run
        kernels = {(r.phase, r.kernel) for r in solver.performance.records}
        for key in (("setup", "spgemm"), ("solve", "spmv"),
                    ("solve", "spmm")):
            assert key in kernels
        assert solver.hierarchy.patched or solver.hierarchy.reused

    def test_registry_counters_equal_log_fold(self, run):
        """Every ``repro_kernel_*`` label set holds exactly the fold of the
        log's records with those labels: the same calls, the same µs,
        bytes, MMA issues and scalar flops."""
        solver, snapshot = run
        records = solver.performance.records
        for name, value_of in _COUNTERS.items():
            fold: dict = defaultdict(float)
            for rec in records:
                fold[_labels(rec)] += value_of(rec)
            registry = {
                tuple(sorted(s["labels"].items())): s["value"]
                for s in snapshot.get(name, {}).get("samples", [])
            }
            for key in fold.keys() | registry.keys():
                got, want = registry.get(key, 0.0), fold.get(key, 0.0)
                if name == obs_names.KERNEL_CALLS:
                    assert got == want, (name, key)
                else:
                    assert _close(got, want), (name, key, got, want)

    def test_attribution_totals_equal_record_sums(self, run):
        solver, _ = run
        records = solver.performance.records
        agg = obs_profile.totals(
            obs_profile.attribute_log(solver.performance, "H100"))
        assert agg["calls"] == len(records)
        for field, value_of in (
            ("sim_us", lambda r: r.sim_time_us),
            ("bytes_read", lambda r: r.counters.bytes_read),
            ("bytes_written", lambda r: r.counters.bytes_written),
            ("mma_issues", lambda r: r.counters.total_mma),
            ("scalar_flops", lambda r: r.counters.total_scalar_flops),
        ):
            assert _close(agg[field], math.fsum(map(value_of, records))), field

    def test_attribution_projects_onto_phase_totals(self, run):
        """Attribution cells summed per (phase, kernel class) give the
        Fig. 1/2 split of :meth:`PerformanceLog.phase_totals`."""
        solver, _ = run
        cells = obs_profile.attribute_log(solver.performance, "H100")
        for phase in ("setup", "solve"):
            parts = solver.performance.phase_totals(phase).parts
            for cls in KERNEL_CLASSES:
                projected = math.fsum(
                    c.sim_us for c in cells
                    if c.phase == phase and kernel_class(c.kernel) == cls
                )
                assert _close(projected, parts[cls]), (phase, cls)

    def test_attribution_rows_at_every_level(self, run):
        solver, _ = run
        levels = {c.level for c in
                  obs_profile.attribute_log(solver.performance, "H100")}
        assert levels == set(range(solver.hierarchy.num_levels))


class TestChargePoint:
    def test_log_folds_only_while_tracing(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        a = poisson2d(12)
        obs.reset()
        solver = AmgTSolver().setup(a)
        assert solver.performance.records
        assert obs.REGISTRY.total(obs_names.KERNEL_CALLS) == 0
        with obs.trace_region():
            solver.solve(np.ones(a.nrows), max_iterations=2)
        solve = solver.performance.by_phase("solve")
        assert obs.REGISTRY.total(obs_names.KERNEL_CALLS) == len(solve)
        obs.reset()

    def test_append_and_extend_fold_every_record(self):
        recs = AmgTSolver().setup(poisson2d(12)).performance.records[:5]
        log = PerformanceLog()
        obs.reset()
        with obs.trace_region():
            log.append(recs[0])
            log.extend(recs[1:])
        assert log.records == recs
        assert obs.REGISTRY.total(obs_names.KERNEL_CALLS) == len(recs)
        assert _close(obs.REGISTRY.total(obs_names.KERNEL_SIM_US),
                      math.fsum(r.sim_time_us for r in recs))
        obs.reset()


    @pytest.mark.parametrize("backend,precision", CONFIGS)
    def test_kernel_spans_carry_their_records(self, backend, precision):
        """The charge point stamps each setup kernel span with the facts of
        the records it charged, in the same order as the log."""
        a = poisson2d(24)
        obs.reset()
        with obs.trace_region():
            solver = AmgTSolver(backend=backend, precision=precision).setup(a)
            spans = [sp for root in obs.TRACER.roots for sp in root.walk()
                     if sp.kind == "kernel" and "sim_us" in sp.attrs]
        obs.reset()
        records = solver.performance.by_phase("setup")
        for kernel in ("spgemm", "csr2mbsr", "mbsr2csr"):
            recs = [r for r in records if r.kernel == kernel]
            stamped = [sp for sp in spans if sp.name == kernel]
            assert len(stamped) == len(recs)
            for sp, rec in zip(stamped, recs):
                assert sp.attrs["sim_us"] == rec.sim_time_us
                assert sp.attrs["level"] == rec.level
                assert sp.attrs["precision"] == rec.precision.name.lower()


class TestPanelPhaseSplit:
    """A panel solve's SpMM records are SpMV work in the Fig. 2 split."""

    @pytest.mark.parametrize("backend", ["amgt", "hypre"])
    @pytest.mark.parametrize("width", [1, WIDTH])
    def test_spmv_bucket_holds_spmv_and_spmm(self, backend, width):
        a = poisson2d(32)
        solver = AmgTSolver(backend=backend).setup(a)
        with obs.trace_region():
            if width == 1:
                solver.solve(np.ones(a.nrows), max_iterations=3)
            else:
                solver.solve_multi(np.ones((a.nrows, width)),
                                   max_iterations=3)
            data = obs.phase_report_data(solver.performance, obs.TRACER)
        obs.reset()
        perf = solver.performance
        solve = perf.by_phase("solve")
        spmv = [r for r in solve if r.kernel in ("spmv", "spmm")]
        assert any(r.kernel == "spmm" for r in spmv) == (width > 1)
        totals = perf.solve
        assert _close(totals.spmv_us, math.fsum(r.sim_time_us for r in spmv))
        # Bucket sums run in record order: width 1 keeps its exact bits.
        assert totals.spmv_us == reduce(add, (r.sim_time_us for r in spmv), 0.0)
        summary = perf.summary()
        assert summary["solve_spmv_us"] == totals.spmv_us > 0
        assert summary["spmv_calls"] == sum(
            r.kernel in ("spmv", "spmm") for r in perf.records)
        assert data["solve"]["simulated_us"]["spmv"] == totals.spmv_us
        assert data["solve"]["simulated_pct"]["spmv"] > 0
        assert data["solve"]["measured_us"]["spmv"] > 0


class TestPayloadAttribution:
    @pytest.mark.parametrize("bench",
                             ["bench_hotpath", "bench_setup", "bench_evolve"])
    def test_bench_pass_attribution_is_levelled(self, bench, monkeypatch):
        """Each bench's instrumented pass charges priced records at every
        level of its hierarchy, and the payload block totals them."""
        module = importlib.import_module(bench)
        a = poisson2d(32)
        if bench == "bench_evolve":
            monkeypatch.setattr(module, "NX", 24)
            workload = module._metrics_pass("newton", 0.02)
            a = evolving_sequence("newton", nx=24, steps=module.STEPS,
                                  dirty_frac=0.02, seed=1)[-1]
        elif bench == "bench_hotpath":
            workload = partial(module._instrumented_pass, a,
                               np.random.default_rng(0))
        else:
            workload = partial(module._instrumented_pass, a)
        _, log = common.collect_metrics(workload)
        block = common.attribution({"m": log})["m"]
        levels = amg_setup(a, SetupParams()).num_levels
        assert {r["level"] for r in block["records"]} == set(range(levels))
        assert block["totals"]["calls"] == len(log.records)
        assert _close(block["totals"]["sim_us"],
                      math.fsum(r.sim_time_us for r in log.records))
        # Priced on the device the attribution divides by.
        model = CostModel(get_device(common.ATTRIBUTION_DEVICE))
        assert all(_close(r.sim_time_us,
                          model.kernel_time_us(r.counters, r.kernel_class))
                   for r in log.records)

    def test_payload_attribution_is_attribute_log(self, tmp_path):
        """A bench payload's attribution is ``attribute_log`` over the
        records its instrumented pass charged — per level, with each cell
        priced from its records' exact per-precision counters (on a mixed
        run FP16/FP32 SpGEMMs also carry FP64 work)."""
        a = poisson2d(32)

        def workload():
            solver = AmgTSolver(backend="amgt", precision="mixed").setup(a)
            solver.solve(np.ones(a.nrows), max_iterations=2)
            return [solver.performance]

        snapshot, log = common.collect_metrics(workload)
        payload = common.write_payload(
            str(tmp_path / "BENCH_x.json"), "test", {}, [], {},
            {"m": snapshot}, {"m": log},
        )
        device = common.ATTRIBUTION_DEVICE
        cells = obs_profile.attribute_log(log, device)
        expected = json.loads(json.dumps(
            obs_profile.roofline_payload(cells, device)))
        written = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert written["attribution"]["m"] == expected
        assert payload["attribution"]["m"]["totals"]["calls"] == len(log.records)
        assert any(c.level > 0 for c in cells)

        model = CostModel(get_device(device))
        members: dict = defaultdict(list)
        for rec in log.records:
            members[(rec.kernel, rec.phase, rec.backend,
                     rec.precision.name.lower(), rec.kernel_class,
                     rec.level)].append(rec)
        assert any(c.precision == "fp16" and c.kernel == "spgemm"
                   for c in cells)
        for c in cells:
            recs = members[(c.kernel, c.phase, c.backend, c.precision,
                            c.kernel_class, c.level)]
            assert c.calls == len(recs)
            assert _close(c.peak_compute_us, math.fsum(
                model.compute_us(r.counters, sustained=1.0) for r in recs))
            assert _close(c.peak_memory_us, math.fsum(
                model.memory_us(r.counters, sustained=1.0) for r in recs))
