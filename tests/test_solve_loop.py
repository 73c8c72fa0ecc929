"""The one solve loop: check gating, observability parity, postmortems,
and the mixed-precision smoother oracle every checked replay runs.

Every solve — width 1 or a panel, standalone, Krylov-preconditioned or
distributed — replays a recorded cycle tape through
:func:`repro.tape.taped_solve`.  These tests pin what that loop must
carry over from the interpreted solve it replaced: checked regions verify
every SpMV whatever tape they replay, the perf log and the metrics
registry count the same kernels, a diverged solve leaves a postmortem
bundle (per column for panels), and a traced replay attributes its time
to kernel spans.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.amg.cycle import SolveParams
from repro.amg.solver import AmgTSolver
from repro.check import ContractViolation, checked_region, oracle
from repro.matrices import poisson2d
from repro.obs import blackbox as obs_blackbox
from repro.obs import names as obs_names
from repro.obs import trace as obs_trace
from repro.tape import taped_solve

from conftest import random_spd_csr


@pytest.fixture
def count_spmv_checks(monkeypatch):
    """Count the SpMV oracle's calls (bindings look it up per call)."""
    calls = []
    real = oracle.verify_spmv

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "verify_spmv", counting)
    return calls


# ---------------------------------------------------------------------------
# Checked regions verify tapes recorded outside them
# ---------------------------------------------------------------------------


@pytest.mark.contract
class TestCheckGate:
    def test_replay_in_checked_region_verifies_every_spmv(
        self, monkeypatch, count_spmv_checks
    ):
        """A tape recorded unchecked must not serve a checked region: the
        gate is part of both memo keys (driver tapes, operator bindings)."""
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        params = SolveParams(max_iterations=3)

        def checked_replay(record_inside: bool) -> tuple[int, int]:
            s = AmgTSolver().setup(poisson2d(24))
            b = np.random.default_rng(5).normal(size=s.hierarchy.levels[0].n)
            if not record_inside:
                s._driver.get_tape(params)
            del count_spmv_checks[:]
            with checked_region():
                _, stats = taped_solve(s._driver.get_tape(params), b,
                                       params=params)
            return len(count_spmv_checks), stats.spmv_calls

        outside, spmv_calls = checked_replay(record_inside=False)
        inside, _ = checked_replay(record_inside=True)
        assert outside >= spmv_calls
        assert outside == inside

    def test_checked_tape_not_reused_unchecked(self, monkeypatch,
                                               count_spmv_checks):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        s = AmgTSolver().setup(poisson2d(16))
        b = np.ones(s.hierarchy.levels[0].n)
        with checked_region():
            s.solve(b, max_iterations=2)
        del count_spmv_checks[:]
        s.solve(b, max_iterations=2)
        assert count_spmv_checks == []
        assert len(s._driver._tapes) == 2


# ---------------------------------------------------------------------------
# One priced stream: the registry counts exactly what the perf log holds
# ---------------------------------------------------------------------------


def _registry_calls() -> dict:
    counts: dict = {}
    snap = obs.REGISTRY.snapshot().get(obs_names.KERNEL_CALLS, {})
    for sample in snap.get("samples", []):
        key = (sample["labels"]["kernel"], sample["labels"]["phase"])
        counts[key] = counts.get(key, 0) + sample["value"]
    return counts


def _log_calls(records) -> dict:
    counts: dict = {}
    for rec in records:
        key = (rec.kernel, rec.phase)
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestRegistryParity:
    @pytest.mark.parametrize("backend", ["amgt", "hypre"])
    @pytest.mark.parametrize(
        "entry", ["solve", "solve_multi", "precondition", "solve_krylov"]
    )
    def test_registry_matches_perf_log(self, backend, entry):
        s = AmgTSolver(backend=backend).setup(poisson2d(32))
        n = s.hierarchy.levels[0].n
        b = np.random.default_rng(1).normal(size=n)
        log = s.performance.records
        n0 = len(log)
        obs.reset()
        try:
            with obs.trace_region():
                if entry == "solve":
                    s.solve(b, max_iterations=10)
                elif entry == "solve_multi":
                    s.solve_multi(np.stack([b, -b, 2 * b], axis=1),
                                  max_iterations=10)
                elif entry == "precondition":
                    s.as_preconditioner().apply(b)
                else:
                    s.solve_krylov(b, "pcg", tolerance=1e-8)
            registry = _registry_calls()
        finally:
            obs.reset()
        expected = _log_calls(log[n0:])
        assert registry == expected
        assert any(kernel in ("spmv", "spmm") for kernel, _ in expected)


# ---------------------------------------------------------------------------
# Postmortems: a diverged replay dumps a bundle, per column for panels
# ---------------------------------------------------------------------------


def _diverging_solver():
    s = AmgTSolver().setup(poisson2d(24))
    for lvl in s.hierarchy.levels:
        lvl.dinv = lvl.dinv * 4.0  # over-relaxed smoother: the cycle diverges
    s.hierarchy.invalidate_solve_tapes()
    return s


class TestDivergencePostmortem:
    @pytest.fixture(autouse=True)
    def bundle_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_blackbox.DIR_VAR, str(tmp_path))
        obs_blackbox.RECORDER.reset()
        yield
        obs_blackbox.RECORDER.reset()

    def test_width1_replay_dumps_divergence(self):
        s = _diverging_solver()
        b = np.ones(s.hierarchy.levels[0].n)
        x, stats = taped_solve(s._driver.get_tape(), b)
        assert stats.final_relative_residual > 1e10
        bundle = obs_blackbox.RECORDER.last_bundle
        assert bundle is not None and bundle["reason"] == "divergence"
        assert bundle["extra"]["iterations"] == stats.iterations
        assert obs_blackbox.RECORDER.dumps == 1

    def test_panel_dumps_one_bundle_per_diverged_column(self):
        s = _diverging_solver()
        n = s.hierarchy.levels[0].n
        panel = np.stack([np.ones(n), np.zeros(n), -np.ones(n)], axis=1)
        res = s.solve_multi(panel)
        assert res.stats[1].converged  # zero column: nothing to diverge
        assert obs_blackbox.RECORDER.dumps == 2
        bundle = obs_blackbox.RECORDER.last_bundle
        assert bundle["reason"] == "divergence"
        assert bundle["extra"]["column"] == 2
        assert "column 2" in bundle["detail"]

    def test_converged_solve_dumps_nothing(self):
        s = AmgTSolver().setup(poisson2d(24))
        s.solve(np.ones(s.hierarchy.levels[0].n), max_iterations=5)
        assert obs_blackbox.RECORDER.last_bundle is None
        kinds = [e["kind"] for e in obs_blackbox.RECORDER.events()]
        assert "amg_solve" in kinds


# ---------------------------------------------------------------------------
# Traced replays attribute their time to kernel spans
# ---------------------------------------------------------------------------


class TestReplaySpans:
    def test_traced_replay_opens_kernel_spans(self, monkeypatch):
        # Checked replays re-run the interpreted oracle cycle, whose own
        # spans would land in the same cycle span.
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        s = AmgTSolver().setup(poisson2d(24))
        b = np.ones(s.hierarchy.levels[0].n)
        s.solve(b, max_iterations=1)  # record outside the trace
        tape = s._driver.get_tape()
        obs.reset()
        try:
            with obs.trace_region():
                s.solve(b, max_iterations=2)
            (cycle,) = obs_trace.TRACER.roots[0].find(kind="cycle")[:1]
            kernels = cycle.find(kind="kernel")
            assert obs_trace.TRACER.dropped == 0
        finally:
            obs.reset()
        spmv_ops = [op for op in tape.ops
                    if op.kind in ("residual", "restrict", "correct")]
        smooth_ops = [op for op in tape.ops if op.kind == "smooth"]
        names = [sp.name for sp in kernels]
        # every SpMV op plus the per-iteration residual, every smooth op
        assert names.count("spmv") == len(spmv_ops) + 1
        assert names.count("smoother") == len(smooth_ops)
        for sp in kernels:
            assert sp.attrs["phase"] == "solve"
            assert 0 <= sp.attrs["level"] < s.hierarchy.num_levels - 1

    def test_untraced_replay_opens_no_spans(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        s = AmgTSolver().setup(poisson2d(16))
        obs.reset()
        s.solve(np.ones(s.hierarchy.levels[0].n), max_iterations=3)
        assert obs_trace.TRACER.span_count == 0


# ---------------------------------------------------------------------------
# The smoother oracle at FP16's gradual underflow
# ---------------------------------------------------------------------------


def _capture_smoother_checks(monkeypatch):
    seen = []
    real = oracle.verify_smoother

    def capturing(a, dinv, x0, b, x_out, num_sweeps, **kwargs):
        seen.append((a, np.array(dinv), np.array(x0), np.array(b),
                     np.array(x_out), num_sweeps))
        return real(a, dinv, x0, b, x_out, num_sweeps, **kwargs)

    monkeypatch.setattr(oracle, "verify_smoother", capturing)
    return seen


@pytest.mark.contract
class TestSmootherOracleUnderflow:
    """Mixed precision, W-cycle, l1-Jacobi on ``random_spd_csr(29, 0.25,
    seed=42)``: levels [29, 9, 4, 1] at FP64/FP32/FP16/FP16.  On the
    4-row FP16 level the iterate's entries (1e-6 .. 4e-8) sit below FP16's
    smallest normal, so the SpMV quantises them onto the subnormal grid —
    absolute errors up to 2**-25 that a purely relative band rejects."""

    def _solve(self):
        a = random_spd_csr(29, 0.25, seed=42)
        s = AmgTSolver(precision="mixed", checked=True).setup(a)
        assert [lvl.n for lvl in s.hierarchy.levels] == [29, 9, 4, 1]
        b = np.random.default_rng(43).normal(size=29)
        return s.solve(b, max_iterations=3, cycle_type="W",
                       smoother="l1-jacobi")

    def test_fp16_subnormal_iterate_accepted(self, monkeypatch):
        seen = _capture_smoother_checks(monkeypatch)
        res = self._solve()
        assert res.iterations == 3
        tiny = float(np.finfo(np.float16).tiny)
        assert any(a.nrows == 4 and np.abs(x0).max() < tiny
                   for a, _, x0, *_ in seen)

    def test_corrupted_output_still_rejected(self, monkeypatch):
        seen = _capture_smoother_checks(monkeypatch)
        self._solve()
        tiny = float(np.finfo(np.float16).tiny)
        a, dinv, x0, b, x_out, sweeps = next(
            case for case in seen
            if case[0].nrows == 4 and 0 < np.abs(case[2]).max() < tiny
        )
        oracle.verify_smoother(a, dinv, x0, b, x_out, sweeps)
        bad = x_out.copy()
        bad[2] += 1e-6
        with pytest.raises(ContractViolation, match="l1_jacobi_sweep"):
            oracle.verify_smoother(a, dinv, x0, b, bad, sweeps)
