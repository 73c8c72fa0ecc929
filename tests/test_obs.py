"""Tests for ``repro.obs``: tracing, metrics, convergence, exporters.

Covers the observability contract end to end: the ``REPRO_TRACE`` gate
and its zero-allocation disabled path, the span-tree shape of a traced
two-level V-cycle solve (``solve > cycle[k] > kernel``, every replayed
kernel span carrying its phase and level), the
Chrome-trace JSON schema, the Prometheus text round-trip, rank tagging
in distributed spans, and the measured-vs-simulated phase report.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import repro.obs as obs
from repro import AmgTSolver, SetupParams
from repro.matrices import poisson2d
from repro.obs import convergence as obs_conv
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def env_off(monkeypatch):
    """Pin the env gate off: for tests asserting disabled-path behaviour
    (CI also runs the whole suite under ``REPRO_TRACE=1``)."""
    monkeypatch.delenv(obs_trace.ENV_VAR, raising=False)


def _two_level_solve(iterations=2, backend="amgt"):
    """One setup+solve on a forced two-level hierarchy."""
    a = poisson2d(12)
    solver = AmgTSolver(
        backend=backend,
        device="H100",
        setup_params=SetupParams(max_levels=2),
    )
    solver.setup(a)
    result = solver.solve(np.ones(a.nrows), max_iterations=iterations)
    return solver, result


# ---------------------------------------------------------------------------
# the gate and the disabled fast path
# ---------------------------------------------------------------------------


class TestGate:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(obs_trace.ENV_VAR, raising=False)
        assert not obs_trace.is_active()

    @pytest.mark.parametrize("value", ["1", "true", "ON", "yes"])
    def test_env_var_enables(self, monkeypatch, value):
        monkeypatch.setenv(obs_trace.ENV_VAR, value)
        assert obs_trace.is_active()

    @pytest.mark.parametrize("value", ["0", "off", "", "no"])
    def test_falsy_env_values_stay_off(self, monkeypatch, value):
        monkeypatch.setenv(obs_trace.ENV_VAR, value)
        assert not obs_trace.is_active()

    def test_trace_region_nests(self, env_off):
        assert not obs_trace.is_active()
        with obs.trace_region():
            assert obs_trace.is_active()
            with obs.trace_region():
                assert obs_trace.is_active()
            assert obs_trace.is_active()
        assert not obs_trace.is_active()

    def test_trace_region_disabled_flag(self, env_off):
        with obs.trace_region(enabled=False):
            assert not obs_trace.is_active()

    def test_null_span_identity_and_noops(self, env_off):
        sp = obs.span("anything", "kernel")
        assert sp is obs_trace.NULL_SPAN
        assert not sp  # falsy
        assert sp.set(level=3) is sp
        with sp as entered:
            assert entered is sp
        assert obs_trace.phase_span("solve") is obs_trace.NULL_SPAN
        assert obs.current_span() is None

    def test_disabled_solve_leaves_no_state(self, env_off):
        solver, result = _two_level_solve()
        assert obs_trace.TRACER.span_count == 0
        assert obs_trace.TRACER.roots == []
        assert len(obs_metrics.REGISTRY) == 0
        assert len(obs_conv.CONVERGENCE) == 0

    def test_tracing_does_not_change_results(self):
        _, plain = _two_level_solve()
        obs.reset()
        with obs.trace_region():
            _, traced = _two_level_solve()
        np.testing.assert_array_equal(plain.x, traced.x)
        assert plain.iterations == traced.iterations
        np.testing.assert_array_equal(
            plain.stats.residual_history, traced.stats.residual_history
        )


# ---------------------------------------------------------------------------
# span-tree shape
# ---------------------------------------------------------------------------


class TestSpanTree:
    def test_two_level_vcycle_shape(self):
        with obs.trace_region():
            solver, result = _two_level_solve(iterations=2)
        roots = obs_trace.TRACER.roots
        assert [r.name for r in roots] == [
            "AmgTSolver.setup", "AmgTSolver.solve"
        ]
        setup_root, solve_root = roots

        phases = setup_root.find(kind="phase")
        assert [p.name for p in phases] == ["setup"]

        # exactly one solve phase span (the nested drivers no-op)
        solve_phases = solve_root.find(kind="phase")
        assert [p.name for p in solve_phases] == ["solve"]
        solve_phase = solve_phases[0]

        cycles = solve_phase.find(kind="cycle")
        assert [c.name for c in cycles] == ["cycle[0]", "cycle[1]"]
        for k, cycle in enumerate(cycles):
            assert cycle.attrs["iteration"] == k
            assert cycle.attrs["taped"] is True
            kernels = cycle.find(kind="kernel")
            assert kernels, "cycle has no kernel spans"
            assert {k.name for k in kernels} == {"spmv", "smoother"}
            # two-level V-cycle: every SpMV and sweep runs on the fine
            # level; the coarse visit is the direct solve alone
            assert {sp.attrs["level"] for sp in kernels} == {0}
            # replayed SpMV spans carry phase/sim facts
            spmvs = [k for k in kernels if k.name == "spmv"]
            assert spmvs
            for sp in spmvs:
                assert sp.attrs["phase"] == "solve"
                assert sp.attrs["sim_us"] > 0
                assert sp.attrs["backend"]
                assert sp.attrs["precision"]

    def test_span_nesting_intervals(self):
        with obs.trace_region():
            _two_level_solve()
        for root in obs_trace.TRACER.roots:
            for sp in root.walk():
                assert sp.end_ns >= sp.start_ns
                for child in sp.children:
                    assert child.start_ns >= sp.start_ns
                    assert child.end_ns <= sp.end_ns

    def test_phase_span_idempotent(self):
        with obs.trace_region():
            with obs_trace.phase_span("solve") as outer:
                inner = obs_trace.phase_span("solve")
                assert inner is obs_trace.NULL_SPAN
            assert outer.name == "solve"

    def test_span_cap_drops_not_grows(self):
        tracer = obs_trace.Tracer(max_spans=2)
        with obs.trace_region():
            a = tracer.open("a")
            b = tracer.open("b")
            c = tracer.open("c")
            assert c is obs_trace.NULL_SPAN
            tracer.close(b)
            tracer.close(a)
        assert tracer.span_count == 2
        assert tracer.dropped == 1

    def test_unbalanced_close_tolerated(self):
        tracer = obs_trace.Tracer()
        outer = tracer.open("outer")
        tracer.open("inner")  # never closed explicitly
        tracer.close(outer)
        assert tracer.current() is None
        assert all(sp.end_ns for sp in outer.walk())

    def test_traced_decorator(self, env_off):
        @obs_trace.traced("work", kind="region")
        def work(x):
            return x + 1

        assert work(1) == 2  # disabled: no spans
        assert obs_trace.TRACER.span_count == 0
        with obs.trace_region():
            assert work(2) == 3
        assert [r.name for r in obs_trace.TRACER.roots] == ["work"]


# ---------------------------------------------------------------------------
# public solver entry points: one root span each, no charge outside a span
# ---------------------------------------------------------------------------


def _perturbed(a, seed=3):
    """A copy of *a* with four rows scaled: same pattern, new values."""
    from repro.formats.csr import CSRMatrix

    data = a.data.copy()
    rng = np.random.default_rng(seed)
    rows = rng.choice(a.nrows, size=4, replace=False)
    for r in rows:
        data[a.indptr[r]:a.indptr[r + 1]] *= 1.05
    return CSRMatrix(a.shape, a.indptr, a.indices, data)


def _amgt(backend, a):
    return AmgTSolver(backend=backend, device="H100").setup(a)


def _driver(backend, a):
    from repro.gpu.specs import get_device
    from repro.hypre.backends import make_backend
    from repro.hypre.boomeramg import BoomerAMG

    driver = BoomerAMG(make_backend(backend, get_device("H100")))
    driver.setup(a)
    return driver


def _par(backend, a):
    from repro.dist.par_solver import ParAMGSolver

    return ParAMGSolver(num_ranks=2, backend=backend).setup(a)


def _krylov(method):
    def call(backend, a, b):
        from repro import solvers

        m = _amgt(backend, a).as_preconditioner()
        return lambda: getattr(solvers, method)(
            a.matvec, b, preconditioner=m, max_iterations=3)
    return call


#: entry point -> (root span name, whether it charges a PerformanceLog,
#: ``build(backend, a, b)``).  ``build`` runs untraced: it does the
#: preparation (a default argument such as ``s=_amgt(be, a)`` is the
#: set-up solver) and returns the zero-argument call the test traces.
ENTRY_POINTS = {
    "AmgTSolver.setup": ("AmgTSolver.setup", True, lambda be, a, b: (
        lambda: AmgTSolver(backend=be, device="H100").setup(a))),
    "AmgTSolver.setup[reuse,patch]": ("AmgTSolver.setup", True,
        lambda be, a, b: (lambda s=_amgt(be, a): s.setup(
            _perturbed(a), reuse=True, patch=True))),
    "AmgTSolver.solve": ("AmgTSolver.solve", True, lambda be, a, b: (
        lambda s=_amgt(be, a): s.solve(b, max_iterations=2))),
    "AmgTSolver.solve_multi": ("AmgTSolver.solve_multi", True,
        lambda be, a, b: (lambda s=_amgt(be, a): s.solve_multi(
            np.stack([b, 2 * b], axis=1), max_iterations=2))),
    "AmgTSolver.solve_krylov": ("AmgTSolver.solve_krylov", True,
        lambda be, a, b: (lambda s=_amgt(be, a): s.solve_krylov(
            b, max_iterations=3))),
    "ParAMGSolver.setup": ("ParAMGSolver.setup", False, lambda be, a, b: (
        lambda: _par(be, a))),
    "ParAMGSolver.solve": ("ParAMGSolver.solve", False, lambda be, a, b: (
        lambda s=_par(be, a): s.solve(b, max_iterations=2))),
    "ParAMGSolver.solve_pcg": ("ParAMGSolver.solve_pcg", False,
        lambda be, a, b: (lambda s=_par(be, a): s.solve_pcg(
            b, max_iterations=3))),
    "pcg": ("pcg", True, _krylov("pcg")),
    "gmres": ("gmres", True, _krylov("gmres")),
    "bicgstab": ("bicgstab", True, _krylov("bicgstab")),
    "BoomerAMG.setup": ("setup", True, lambda be, a, b: (
        lambda: _driver(be, a))),
    "BoomerAMG.solve": ("solve", True, lambda be, a, b: (
        lambda d=_driver(be, a): d.solve(b))),
    "BoomerAMG.precondition": ("solve", True, lambda be, a, b: (
        lambda d=_driver(be, a): d.precondition(b))),
    "VCyclePreconditioner.apply": ("solve", True, lambda be, a, b: (
        lambda m=_amgt(be, a).as_preconditioner(): m.apply(b))),
}


class TestEntryPoints:
    """Every public solver entry point, traced from a cold start: the call
    opens exactly one root span, named for the entry point (the driver's
    own entry points root at their phase span), and every record reaching
    the one charge point, :meth:`PerformanceLog.extend`, lands while a
    span is open."""

    @pytest.mark.parametrize("backend", ["amgt", "hypre"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_one_root_span_and_no_spanless_charge(
        self, monkeypatch, entry, backend
    ):
        from repro.perf.timeline import PerformanceLog

        root, charges_log, build = ENTRY_POINTS[entry]
        a = poisson2d(12)
        call = build(backend, a, np.ones(a.nrows))
        obs.reset()
        charges = []
        extend = PerformanceLog.extend

        def watched(log, records):
            charges.append((len(records), obs_trace.TRACER.current()))
            return extend(log, records)

        monkeypatch.setattr(PerformanceLog, "extend", watched)
        with obs.trace_region():
            call()
        assert [r.name for r in obs_trace.TRACER.roots] == [root]
        assert bool(charges) == charges_log
        assert [n for n, span in charges if span is None] == []


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_solve_populates_kernel_and_cache_metrics(self):
        with obs.trace_region():
            _two_level_solve()
        reg = obs_metrics.REGISTRY
        assert reg.total("repro_kernel_calls_total") > 0
        assert reg.total("repro_kernel_sim_us_total") > 0
        assert reg.total("repro_kernel_bytes_read_total") > 0
        assert reg.total("repro_spmv_dispatch_total") > 0
        assert reg.total("repro_operator_cache_requests_total") > 0
        assert reg.total("repro_smoother_sweeps_total") > 0
        hist = reg.histogram(
            "repro_spmv_tile_popcount",
            buckets=obs_metrics.POP_BUCKETS,
            kernel="spmv",
        )
        assert hist.count > 0
        assert hist.quantile(1.0) <= 16.0

    def test_histogram_prometheus_le_semantics(self):
        h = obs_metrics.Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 3.0, 100.0):
            h.observe(v)
        assert h.counts == [2, 0, 1, 1]  # le-1, le-2, le-4, +Inf
        assert h.count == 4
        assert h.sum == pytest.approx(104.5)

    def test_observe_counts_bincount_shape(self):
        h = obs_metrics.Histogram("pop", buckets=obs_metrics.POP_BUCKETS)
        h.observe_counts(np.bincount([0, 3, 3, 16], minlength=17))
        assert h.count == 4
        assert h.sum == pytest.approx(22.0)

    def test_helpers_are_noops_when_disabled(self, env_off):
        obs_metrics.inc("c_total")
        obs_metrics.set_gauge("g", 1.0)
        obs_metrics.observe("h", 2.0)
        assert len(obs_metrics.REGISTRY) == 0

    def test_value_and_total(self):
        with obs.trace_region():
            obs_metrics.inc("c_total", amount=2.0, kind="a")
            obs_metrics.inc("c_total", kind="b")
        reg = obs_metrics.REGISTRY
        assert reg.value("c_total", kind="a") == 2.0
        assert reg.total("c_total") == 3.0
        assert reg.value("never_touched") == 0.0


# ---------------------------------------------------------------------------
# convergence telemetry
# ---------------------------------------------------------------------------


class TestConvergence:
    def test_amg_solve_telemetry(self):
        with obs.trace_region():
            solver, result = _two_level_solve(iterations=3)
        tel = obs_conv.CONVERGENCE.last()
        assert tel.solver == "amg"
        assert tel.iterations == result.iterations == 3
        assert len(tel.residual_norms) == 4  # initial + 3
        assert len(tel.cycle_wall_ns) == 3
        assert all(ns > 0 for ns in tel.cycle_wall_ns)
        # per-cycle level breakdown, from the replayed kernel spans: the
        # two-level cycle runs its kernels on the fine level
        assert all(set(d) == {0} for d in tel.level_wall_ns)
        assert all(ns > 0 for d in tel.level_wall_ns for ns in d.values())
        factors = tel.contraction_factors
        assert len(factors) == 3
        assert all(0.0 < f < 1.0 for f in factors)  # poisson V-cycle contracts
        assert 0.0 < tel.average_contraction < 1.0
        summary = tel.summary()
        assert summary["solver"] == "amg"
        assert summary["iterations"] == 3

    def test_krylov_history_fold_in(self):
        a = poisson2d(10)
        from repro.solvers import pcg

        with obs.trace_region():
            result = pcg(a, np.ones(a.nrows), tolerance=1e-8)
        tel = obs_conv.CONVERGENCE.last()
        assert tel.solver == "pcg"
        assert tel.converged == result.converged
        np.testing.assert_array_equal(
            tel.residual_norms, result.residual_history
        )

    def test_start_solve_none_when_disabled(self, env_off):
        assert obs_conv.start_solve("amg") is None
        assert obs_conv.observe_history("pcg", [1.0, 0.1]) is None

    def test_contraction_inf_on_zero_residual(self):
        tel = obs_conv.SolveTelemetry(solver="x")
        tel.record_initial(0.0)
        tel.record_iteration(1.0)
        assert tel.contraction_factors == [math.inf]
        assert math.isnan(tel.average_contraction)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class TestChromeTrace:
    def test_schema(self, tmp_path):
        with obs.trace_region():
            _two_level_solve()
        doc = obs.chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == obs_trace.TRACER.span_count
        for e in complete:
            assert set(e) == {
                "name", "cat", "ph", "ts", "dur", "pid", "tid", "args"
            }
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["args"], dict)
            for v in e["args"].values():
                assert v is None or isinstance(v, (int, float, str, bool))
        assert meta and meta[0]["name"] == "thread_name"
        # serialisable and reloadable
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path)
        reloaded = json.loads(path.read_text())
        assert len(reloaded["traceEvents"]) == len(events)

    def test_rank_tagged_spans_get_own_tid(self):
        from repro.dist.par_solver import ParAMGSolver

        a = poisson2d(12)
        with obs.trace_region():
            solver = ParAMGSolver(
                num_ranks=2, backend="amgt", device="A100",
                setup_params=SetupParams(max_levels=2),
            ).setup(a)
            solver.solve(np.ones(a.nrows), max_iterations=2)
        ranked = [
            sp
            for root in obs_trace.TRACER.roots
            for sp in root.walk()
            if "rank" in sp.attrs
        ]
        assert {sp.attrs["rank"] for sp in ranked} == {0, 1}
        assert all(sp.kind == "kernel" for sp in ranked)
        doc = obs.chrome_trace()
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert tids == {0, 1}
        names = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert names == {"main", "rank 1"}


class TestPrometheus:
    def test_round_trip(self):
        with obs.trace_region():
            obs_metrics.inc("repro_demo_total", amount=3, core="tc")
            obs_metrics.inc("repro_demo_total", core="cuda")
            obs_metrics.set_gauge("repro_level_gauge", 2.5, level=1)
            obs_metrics.observe("repro_lat", 3.0)
            obs_metrics.observe("repro_lat", 100000.0)
        text = obs.prometheus_text()
        parsed = obs.parse_prometheus(text)
        assert parsed[("repro_demo_total", (("core", "tc"),))] == 3.0
        assert parsed[("repro_demo_total", (("core", "cuda"),))] == 1.0
        assert parsed[("repro_level_gauge", (("level", "1"),))] == 2.5
        assert parsed[("repro_lat_count", ())] == 2.0
        assert parsed[("repro_lat_sum", ())] == 100003.0
        # cumulative buckets: the +Inf bucket equals the count
        assert parsed[("repro_lat_bucket", (("le", "+Inf"),))] == 2.0
        assert parsed[("repro_lat_bucket", (("le", "4"),))] == 1.0

    def test_type_lines_once_per_name(self):
        with obs.trace_region():
            obs_metrics.inc("repro_demo_total", core="tc")
            obs_metrics.inc("repro_demo_total", core="cuda")
        text = obs.prometheus_text()
        type_lines = [
            ln for ln in text.splitlines() if ln.startswith("# TYPE")
        ]
        assert type_lines == ["# TYPE repro_demo_total counter"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable"):
            obs.parse_prometheus("}{ not a sample\n")

    def test_solve_registry_round_trips(self):
        with obs.trace_region():
            _two_level_solve()
        text = obs.prometheus_text()
        parsed = obs.parse_prometheus(text)
        total = sum(
            v
            for (name, _), v in parsed.items()
            if name == "repro_kernel_calls_total"
        )
        assert total == obs_metrics.REGISTRY.total("repro_kernel_calls_total")


class TestPhaseReport:
    def test_measured_buckets_sum_to_total(self):
        with obs.trace_region():
            _two_level_solve()
        totals = obs.measured_phase_totals()
        assert set(totals) == {"setup", "solve"}
        for phase, buckets in totals.items():
            parts = (
                buckets["spgemm"] + buckets["spmv"]
                + buckets["conversion"] + buckets["other"]
            )
            assert parts == pytest.approx(buckets["total"], rel=1e-6)
        assert totals["solve"]["spmv"] > 0

    def test_phase_report_text(self):
        with obs.trace_region():
            solver, _ = _two_level_solve()
        report = obs.phase_report(solver.performance)
        assert "measured µs" in report and "simulated µs" in report
        assert "spgemm share" in report and "spmv share" in report
        for phase in ("setup", "solve"):
            assert phase in report

    def test_report_with_empty_tracer(self):
        solver, _ = _two_level_solve()  # untraced: measured columns zero
        report = obs.phase_report(solver.performance)
        assert "solve" in report  # simulated side still prints
