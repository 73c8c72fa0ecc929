"""Tests for the performance-intelligence layer on top of ``repro.obs``.

Covers the three new subsystems end to end: roofline attribution
(:mod:`repro.obs.profile`) and its reconciliation with the perf log's
records (the registry side lives in ``test_accounting.py``), the
always-on flight recorder (:mod:`repro.obs.blackbox`) — event capture, bounded ring, postmortem
dump/load/render, the forced-ContractViolation path under checked mode,
bit-identity and warm-path overhead — and the perf ledger / regression
sentinel (:mod:`repro.obs.ledger`) with its noise-aware ``obs diff``.
Plus the satellites: the span-drop counter and warning, the Prometheus
histogram round-trip, ``repro obs report --format=json``, and the run
provenance stamp.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro import AmgTSolver, SetupParams
from repro.check import ContractViolation, checked_region
from repro.cli import main
from repro.matrices import poisson2d
from repro.obs import blackbox as obs_blackbox
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.perf.timeline import PerformanceLog


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def _traced_solve(n=12, iterations=3, backend="amgt"):
    a = poisson2d(n)
    with obs.trace_region():
        solver = AmgTSolver(
            backend=backend, device="H100",
            setup_params=SetupParams(max_levels=2),
        )
        solver.setup(a)
        solver.solve(np.ones(a.nrows), max_iterations=iterations)
    return solver


# ---------------------------------------------------------------------------
# Roofline attribution: exact reconciliation and classification
# ---------------------------------------------------------------------------


class TestAttribution:
    def test_log_attribution_reconciles_with_perf_records(self):
        solver = _traced_solve()
        records = obs_profile.attribute_log(solver.performance, "H100")
        assert records
        agg = obs_profile.totals(records)
        assert agg["calls"] == len(solver.performance.records)
        sim = math.fsum(r.sim_time_us for r in solver.performance.records)
        assert math.isclose(agg["sim_us"], sim, rel_tol=1e-12)

    def test_efficiency_and_bound_are_well_formed(self):
        """The priced time includes launch overhead, sub-peak sustained
        throughput and imbalance, so efficiency lands in (0, 1]; the
        boundness tag matches the larger peak-model component."""
        solver = _traced_solve()
        for r in obs_profile.attribute_log(solver.performance, "H100"):
            assert 0.0 < r.efficiency <= 1.0 + 1e-12, r
            assert r.bound in ("compute", "memory")
            if r.bound == "compute":
                assert r.peak_compute_us >= r.peak_memory_us
            else:
                assert r.peak_memory_us > r.peak_compute_us

    def test_mixed_precision_tc_fraction(self):
        """An amgt mixed-precision solve issues MMA work somewhere: the
        attribution must show a nonzero tensor-core flop share."""
        a = poisson2d(16)
        with obs.trace_region():
            solver = AmgTSolver(backend="amgt", precision="mixed")
            solver.setup(a)
            solver.solve(np.ones(a.nrows), max_iterations=2)
        records = obs_profile.attribute_log(solver.performance, "H100")
        assert any(r.tc_fraction > 0 for r in records)
        agg = obs_profile.totals(records)
        assert 0.0 < agg["tc_fraction"] <= 1.0

    def test_roofline_payload_and_text(self):
        solver = _traced_solve()
        records = obs_profile.attribute_log(solver.performance, "H100")
        doc = obs_profile.roofline_payload(records, "H100")
        assert doc["device"] == "H100"
        assert len(doc["records"]) == len(records)
        assert doc["totals"]["calls"] == obs_profile.totals(records)["calls"]
        json.dumps(doc)  # payload-embeddable
        text = obs_profile.format_roofline(records, "H100")
        assert "roofline attribution on H100" in text
        assert "total" in text

    def test_empty_log_attributes_to_nothing(self):
        assert obs_profile.attribute_log(PerformanceLog(), "H100") == []
        agg = obs_profile.totals([])
        assert agg["calls"] == 0.0
        assert agg["arithmetic_intensity"] == 0.0


# ---------------------------------------------------------------------------
# Flight recorder: events, ring bound, postmortems
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_setup_and_solve_leave_events(self):
        _traced_solve()
        kinds = {e["kind"] for e in obs_blackbox.RECORDER.events()}
        assert "dispatch_decision" in kinds
        assert "operator_cache_miss" in kinds
        assert "amg_solve" in kinds
        # ... and the event counter tracks them.
        assert obs.REGISTRY.total(obs_names.BLACKBOX_EVENTS) > 0

    def test_ring_is_bounded(self):
        rec = obs_blackbox.FlightRecorder(capacity=64)
        rec.enabled = True
        for i in range(200):
            rec._seq += 1
            rec._events.append({"seq": rec._seq, "t": 0.0, "kind": f"e{i}"})
        assert len(rec.events()) == 64
        bundle = rec.trigger("test")
        assert bundle["events_recorded"] == 200
        assert bundle["events"][-1]["kind"] == "e199"

    def test_env_gate_disables_recording(self, monkeypatch):
        monkeypatch.setenv(obs_blackbox.ENV_VAR, "0")
        obs_blackbox.RECORDER.reset()
        obs_blackbox.record("never", a=1)
        assert obs_blackbox.RECORDER.events() == []

    def test_bundle_shape_and_context_providers(self):
        obs_blackbox.record("warmup", step=1)
        obs_blackbox.set_context("good", lambda: {"answer": 42})
        obs_blackbox.set_context("bad", lambda: 1 / 0)
        bundle = obs_blackbox.trigger("unit-test", detail="synthetic")
        assert bundle["schema"] == "repro.obs.blackbox/1"
        assert bundle["reason"] == "unit-test"
        assert bundle["context"]["good"] == {"answer": 42}
        assert "failed" in bundle["context"]["bad"]
        assert bundle["env"]["numpy"] == np.__version__
        assert any(e["kind"] == "warmup" for e in bundle["events"])
        assert obs_blackbox.RECORDER.last_bundle is bundle

    def test_dump_load_render_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_blackbox.DIR_VAR, str(tmp_path))
        obs_blackbox.record("tape_record", batch=1, rerecord=False)
        bundle = obs_blackbox.trigger("divergence", detail="rel=42")
        path = bundle["path"]
        assert os.path.dirname(path) == str(tmp_path)
        loaded = obs_blackbox.load_bundle(path)
        assert loaded["reason"] == "divergence"
        text = obs_blackbox.render_postmortem(loaded)
        assert "postmortem: divergence" in text
        assert "rel=42" in text
        assert "tape_record" in text

    def test_load_bundle_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "not_a_bundle.json"
        p.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a flight-recorder bundle"):
            obs_blackbox.load_bundle(p)

    def test_contract_violation_triggers_postmortem(self):
        """Raising the violation — however it happens — freezes the ring."""
        obs_blackbox.record("before_failure", step=3)
        with pytest.raises(ContractViolation):
            raise ContractViolation(
                "mbsr_spmv", "spmv/differential", detail="seeded",
                operands={"a": "deadbeef"},
            )
        bundle = obs_blackbox.RECORDER.last_bundle
        assert bundle is not None
        assert bundle["reason"] == "contract-violation"
        assert bundle["extra"]["kernel"] == "mbsr_spmv"
        assert bundle["extra"]["invariant"] == "spmv/differential"
        assert any(e["kind"] == "before_failure" for e in bundle["events"])

    @pytest.mark.contract
    def test_checked_mode_violation_dumps_bundle(self, tmp_path, monkeypatch):
        """A real checked-mode failure (corrupted tape under the replay
        differential oracle) produces a loadable, renderable bundle."""
        monkeypatch.setenv(obs_blackbox.DIR_VAR, str(tmp_path))
        s = AmgTSolver(backend="amgt", precision="fp64")
        s.setup(poisson2d(24))
        rng = np.random.default_rng(7)
        b = rng.normal(size=s.hierarchy.levels[0].n)
        with checked_region():
            # Checked solves replay their own tape (the check gate is in
            # the tape key): corrupt that one.
            s.solve(b, max_iterations=2)
            tape = s._driver.get_tape()
        bad = next(op for op in tape.ops if op.kind == "smooth")
        orig = bad.fn

        def corrupted():
            orig()
            tape.workspace.x[bad.level][0] += 1e-6

        bad.fn = corrupted
        object.__setattr__(tape, "_fns", tuple(op.fn for op in tape.ops))
        try:
            with checked_region():
                with pytest.raises(ContractViolation):
                    s.solve(b, max_iterations=2, tape=True)
        finally:
            bad.fn = orig
            object.__setattr__(tape, "_fns", tuple(op.fn for op in tape.ops))
        bundle = obs_blackbox.RECORDER.last_bundle
        assert bundle["reason"] == "contract-violation"
        assert "replay-differential" in bundle["detail"]
        loaded = obs_blackbox.load_bundle(bundle["path"])
        text = obs_blackbox.render_postmortem(loaded)
        assert "contract-violation" in text
        # The solver registered hierarchy context before the failure.
        assert "hierarchy" in loaded["context"]

    def test_krylov_solve_event_and_breakdown(self):
        from repro.solvers import pcg

        a = poisson2d(10)
        result = pcg(a, np.ones(a.nrows), tolerance=1e-8)
        events = [
            e for e in obs_blackbox.RECORDER.events()
            if e["kind"] == "krylov_solve"
        ]
        assert events and events[-1]["solver"] == "pcg"
        assert events[-1]["converged"] == result.converged

        class FakeResult:
            iterations = 4
            converged = False
            residual_history = [1.0, 0.5, 0.7, 0.9]
            breakdown = "rho-zero"

        obs_blackbox.observe_solve("bicgstab", FakeResult())
        bundle = obs_blackbox.RECORDER.last_bundle
        assert bundle["reason"] == "krylov-breakdown"
        assert bundle["extra"]["breakdown"] == "rho-zero"

    def test_reset_clears_everything(self):
        obs_blackbox.record("x")
        obs_blackbox.set_context("k", lambda: 1)
        obs_blackbox.trigger("t")
        obs.reset()
        rec = obs_blackbox.RECORDER
        assert rec.events() == []
        assert rec.last_bundle is None
        assert rec._context == {}


class TestRecorderTransparency:
    @given(st.integers(0, 3))
    @settings(max_examples=4, deadline=None)
    def test_solver_bits_identical_with_recorder_on_and_off(self, seed):
        """The recorder observes; it must never perturb: enabled vs
        disabled solves produce the same bits."""
        a = poisson2d(16)
        rng = np.random.default_rng(seed)
        b = rng.normal(size=a.nrows)

        def run():
            obs.reset()
            s = AmgTSolver(backend="amgt", precision="fp64")
            s.setup(a)
            return s.solve(b, max_iterations=4)

        old = os.environ.get(obs_blackbox.ENV_VAR)
        try:
            os.environ.pop(obs_blackbox.ENV_VAR, None)
            obs_blackbox.RECORDER.reset()
            assert obs_blackbox.RECORDER.enabled
            r_on = run()
            os.environ[obs_blackbox.ENV_VAR] = "0"
            obs_blackbox.RECORDER.reset()
            assert not obs_blackbox.RECORDER.enabled
            r_off = run()
        finally:
            if old is None:
                os.environ.pop(obs_blackbox.ENV_VAR, None)
            else:
                os.environ[obs_blackbox.ENV_VAR] = old
            obs_blackbox.RECORDER.reset()
        np.testing.assert_array_equal(r_on.x, r_off.x)
        assert r_on.iterations == r_off.iterations
        np.testing.assert_array_equal(
            r_on.stats.residual_history, r_off.stats.residual_history
        )


@pytest.mark.perf_smoke
def test_recorder_overhead_on_warm_spmv_within_two_percent(monkeypatch):
    """The warm SpMV loop never touches the recorder (events sit on cold
    paths only): zero events with it enabled, and enabled-vs-disabled
    timing within 2%.

    The zero-events assert is the deterministic half — any event site
    accidentally added to the warm path fails it every time.  The timing
    half compares interleaved paired batches (alternating which config
    goes first: the second batch of a pair runs in the first one's
    turbo/thermal shadow) and retries the whole measurement a few times,
    because a true-null wall-clock comparison on a noisy host jitters
    past 2% per trial; a real overhead fails every trial.
    """
    import statistics

    from repro.formats.convert import csr_to_mbsr
    from repro.gpu.counters import Precision
    from repro.kernels.spmv import build_spmv_plan, mbsr_spmv

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_CHECK", raising=False)

    mat = csr_to_mbsr(poisson2d(48))
    plan = build_spmv_plan(mat)
    x = np.random.default_rng(0).normal(size=mat.ncols)
    mbsr_spmv(mat, x, Precision.FP64, plan)  # warm every cache

    # Deterministic: the warm loop records nothing even when enabled.
    monkeypatch.delenv(obs_blackbox.ENV_VAR, raising=False)
    obs_blackbox.RECORDER.reset()
    assert obs_blackbox.RECORDER.enabled
    for _ in range(20):
        mbsr_spmv(mat, x, Precision.FP64, plan)
    assert obs_blackbox.RECORDER.events() == []
    assert obs_blackbox.RECORDER._seq == 0

    def batch():
        t0 = time.perf_counter()
        for _ in range(40):
            mbsr_spmv(mat, x, Precision.FP64, plan)
        return time.perf_counter() - t0

    def measure(config):
        if config == "disabled":
            monkeypatch.setenv(obs_blackbox.ENV_VAR, "0")
        else:
            monkeypatch.delenv(obs_blackbox.ENV_VAR, raising=False)
        obs_blackbox.RECORDER.reset()
        return batch()

    def overhead_trial():
        ratios = []
        for i in range(8):
            order = (
                ("disabled", "enabled") if i % 2 else ("enabled", "disabled")
            )
            pair = {config: measure(config) for config in order}
            ratios.append(pair["enabled"] / pair["disabled"])
        return statistics.median(ratios)

    observed = []
    for _ in range(4):
        ratio = overhead_trial()
        observed.append(ratio)
        if ratio <= 1.02:
            break
    obs_blackbox.RECORDER.reset()
    assert min(observed) <= 1.02, (
        f"recorder overhead above 2% in every trial: "
        f"{', '.join(f'{100.0 * (r - 1.0):+.2f}%' for r in observed)}"
    )


# ---------------------------------------------------------------------------
# Ledger + regression sentinel
# ---------------------------------------------------------------------------


def _payload(speedups, spread=0.0, **extra_fields):
    results = []
    for i, sp in enumerate(speedups):
        rec = {
            "matrix": "thermal1", "op": f"op{i}", "speedup": sp,
            "spread_rel": spread, "median_s": 1.0 / sp,
        }
        rec.update(extra_fields)
        results.append(rec)
    return {
        "generated_by": "test",
        "config": {},
        "results": results,
        "summary": {},
        "metrics": {},
        "meta": obs_ledger.run_metadata(),
    }


class TestLedgerDiff:
    def test_identical_payloads_pass_clean(self):
        p = _payload([1.5, 2.0, 3.0])
        report = obs_ledger.diff_payloads(p, p)
        assert report.ok
        assert report.regressions == []
        assert len(report.entries) == 3
        assert all(e.status == "ok" for e in report.entries)

    def test_injected_twenty_percent_slowdown_flagged(self):
        old = _payload([2.0, 2.0])
        new = _payload([2.0, 2.0])
        new["results"][1]["speedup"] = 1.6  # 20% worse than baseline
        report = obs_ledger.diff_payloads(old, new, tolerance=0.10)
        assert not report.ok
        assert len(report.regressions) == 1
        reg = report.regressions[0]
        assert reg.key == ("thermal1", "op1")
        assert math.isclose(reg.change, -0.2)

    def test_improvement_is_not_a_regression(self):
        old = _payload([2.0])
        new = _payload([3.0])
        report = obs_ledger.diff_payloads(old, new)
        assert report.ok
        assert len(report.improvements) == 1

    def test_spread_widens_tolerance(self):
        """A 20% drop inside the measured jitter band must not fire."""
        old = _payload([2.0], spread=0.15)
        new = _payload([1.6], spread=0.15)
        report = obs_ledger.diff_payloads(
            old, new, tolerance=0.10, spread_factor=1.0
        )
        assert report.ok, [e.to_dict() for e in report.entries]
        assert report.entries[0].tolerance == pytest.approx(0.30)

    def test_times_only_with_include_times(self):
        old = _payload([2.0])
        new = _payload([2.0])
        new["results"][0]["median_s"] = 10.0
        assert obs_ledger.diff_payloads(old, new).ok
        report = obs_ledger.diff_payloads(old, new, include_times=True)
        assert not report.ok
        assert report.regressions[0].metric == "median_s"

    def test_width_and_step_qualify_keys(self):
        rec = {"matrix": "m", "op": "cycle", "width": 8}
        assert obs_ledger.record_key(rec) == ("m", "cycle", "width=8")
        old = _payload([2.0], width=4)
        new = _payload([2.0], width=8)
        report = obs_ledger.diff_payloads(old, new)
        assert report.entries == []
        assert report.only_old and report.only_new

    def test_report_serialises_both_ways(self):
        old = _payload([2.0, 2.0])
        new = _payload([1.0, 2.5])
        report = obs_ledger.diff_payloads(old, new)
        doc = report.to_json()
        assert doc["ok"] is False
        assert doc["compared"] == 2
        json.dumps(doc)
        text = report.format_text()
        assert "REGRESSION" in text
        assert "improvement" in text

    def test_ledger_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        p = _payload([2.0])
        obs_ledger.append_run(path, p, bench="bench_hotpath")
        obs_ledger.append_run(path, p, bench="bench_hotpath")
        entries = obs_ledger.read_ledger(path)
        assert len(entries) == 2
        assert entries[0]["bench"] == "bench_hotpath"
        assert entries[0]["results"] == p["results"]
        assert entries[0]["meta"]["numpy"] == np.__version__

    def test_run_metadata_is_complete(self):
        meta = obs_ledger.run_metadata()
        assert set(meta) == {
            "git_sha", "git_dirty", "timestamp", "hostname", "python", "numpy",
        }
        assert meta["python"] == ".".join(
            str(v) for v in __import__("sys").version_info[:3]
        )
        # ISO-ish local timestamp, parseable prefix.
        assert meta["timestamp"][:4].isdigit()


# ---------------------------------------------------------------------------
# Satellites: span-drop accounting, histogram round-trip, CLI surfaces
# ---------------------------------------------------------------------------


class TestSpanDropAccounting:
    def test_cap_counts_drops_and_warns_once(self):
        obs.enable()
        tracer = obs_trace.get_tracer()
        orig_cap = tracer.max_spans
        tracer.max_spans = 3
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for i in range(6):
                    sp = tracer.open(f"s{i}")
                    tracer.close(sp)
            assert tracer.dropped == 3
            assert obs.REGISTRY.value(obs_names.TRACE_SPANS_DROPPED) == 3
            warned = [
                w for w in caught if "span cap reached" in str(w.message)
            ]
            assert len(warned) == 1
            assert issubclass(warned[0].category, RuntimeWarning)
            doc = obs.chrome_trace(tracer)
            assert doc["otherData"]["dropped_spans"] == 3
        finally:
            tracer.max_spans = orig_cap
            obs.disable()

    def test_no_drops_no_warning(self):
        obs.enable()
        try:
            tracer = obs_trace.get_tracer()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sp = tracer.open("fine")
                tracer.close(sp)
            assert tracer.dropped == 0
            assert not caught
            assert obs.chrome_trace(tracer)["otherData"]["dropped_spans"] == 0
        finally:
            obs.disable()


class TestHistogramRoundTrip:
    def test_prometheus_histogram_round_trip(self):
        obs.enable()
        try:
            for v in (0.5, 3.0, 7.0, 100.0):
                obs_metrics.observe(
                    obs_names.SPMV_TILE_POPCOUNT, v, kernel="spmv"
                )
        finally:
            obs.disable()
        text = obs.prometheus_text(obs.REGISTRY)
        parsed = obs.parse_prometheus(text)
        name = obs_names.SPMV_TILE_POPCOUNT
        labels = (("kernel", "spmv"),)
        assert parsed[(f"{name}_count", labels)] == 4
        assert parsed[(f"{name}_sum", labels)] == pytest.approx(110.5)
        inf_key = (f"{name}_bucket", tuple(sorted(labels + (("le", "+Inf"),))))
        assert parsed[inf_key] == 4
        # Bucket counts are cumulative and monotone up to +Inf.
        buckets = sorted(
            (k, v) for k, v in parsed.items() if k[0] == f"{name}_bucket"
        )
        values = [v for _, v in buckets]
        assert max(values) == 4

    def test_snapshot_carries_histogram_buckets(self):
        obs.enable()
        try:
            obs_metrics.observe(obs_names.SPMV_TILE_POPCOUNT, 2.0)
        finally:
            obs.disable()
        snap = obs.REGISTRY.snapshot()
        entry = snap[obs_names.SPMV_TILE_POPCOUNT]
        assert entry["type"] == "histogram"
        sample = entry["samples"][0]
        assert sample["count"] == 1
        assert sample["sum"] == 2.0


class TestCLISurfaces:
    def test_obs_report_json(self, capsys):
        rc = main([
            "obs", "report", "--matrix", "poisson2d:16", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matrix"] == "poisson2d:16"
        assert set(doc["phases"]) == {"setup", "solve"}
        for phase in doc["phases"].values():
            assert phase["measured_us"]["total"] > 0
            assert phase["simulated_us"]["total"] > 0
        assert doc["spans"] > 0
        assert doc["convergence"]["iterations"] > 0

    def test_obs_roofline_text_and_json(self, capsys):
        rc = main(["obs", "roofline", "--matrix", "poisson2d:16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "roofline attribution on" in out
        rc = main([
            "obs", "roofline", "--matrix", "poisson2d:16",
            "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"]
        assert doc["totals"]["sim_us"] > 0

    def test_obs_diff_exit_codes(self, tmp_path, capsys):
        old_p = tmp_path / "old.json"
        new_p = tmp_path / "new.json"
        old_p.write_text(json.dumps(_payload([2.0, 2.0])))
        same = _payload([2.0, 2.0])
        new_p.write_text(json.dumps(same))
        assert main(["obs", "diff", str(old_p), str(new_p)]) == 0
        same["results"][0]["speedup"] = 1.5  # -25%
        new_p.write_text(json.dumps(same))
        assert main(["obs", "diff", str(old_p), str(new_p)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert main([
            "obs", "diff", str(old_p), str(new_p), "--tolerance", "0.5",
        ]) == 0

    def test_obs_postmortem_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(obs_blackbox.DIR_VAR, str(tmp_path))
        obs_blackbox.record("dispatch_decision", kernel="spmv", core="tc")
        bundle = obs_blackbox.trigger("patch-fallback", detail="drift")
        rc = main(["obs", "postmortem", bundle["path"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "postmortem: patch-fallback" in out
        assert "dispatch_decision" in out
