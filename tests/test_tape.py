"""Kernel-tape record/replay: bit-identity, invalidation, perf parity.

Every solve runs through the tape, so its contract is strict: a replayed
solve produces *the same bits* as the interpreted reference — the
``mg_cycle`` recursion, iterated by ``conftest.reference_solve`` — for
every backend, precision, cycle shape and smoother, not merely the same
convergence.  These tests pin that contract (hypothesis-driven and on the
model problems), the invalidation protocol (hierarchy mutations force a
re-record, never a stale replay), the checked-mode differential oracle,
the perf-log replication, and the replay speedup the tape exists to
deliver.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amg.cycle import SolveParams, SolveStats, amg_solve, mg_cycle
from repro.amg.hierarchy import SetupParams, amg_setup
from repro.amg.solver import AmgTSolver
from repro.check import ContractViolation, checked_region
from repro.matrices import poisson2d
from repro.tape import CycleTape, Workspace, record_cycle, taped_solve

from conftest import backend_spmv, random_spd_csr, reference_solve


def _solver(backend="amgt", precision="fp64", n=32):
    s = AmgTSolver(backend=backend, precision=precision)
    s.setup(poisson2d(n))
    return s


def _rhs(s, seed=7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=s.hierarchy.levels[0].n)


def _reference(s, b, x0=None, **kw):
    """The interpreted reference solve of solver *s* (same kernels)."""
    return reference_solve(s.hierarchy, b, x0=x0, spmv=backend_spmv(s),
                           params=SolveParams(**kw))


def _assert_matches_reference(result, ref):
    x_ref, st_ref = ref
    np.testing.assert_array_equal(result.x, x_ref)
    assert result.stats.residual_history == st_ref.residual_history
    assert result.stats.spmv_calls == st_ref.spmv_calls
    assert result.stats.converged == st_ref.converged


# ---------------------------------------------------------------------------
# Bit-identity: taped vs the interpreted reference
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["amgt", "hypre"])
    @pytest.mark.parametrize("precision", ["fp64", "mixed"])
    def test_backend_precision_identity(self, backend, precision):
        s = _solver(backend, precision)
        b = _rhs(s)
        taped = s.solve(b, max_iterations=5)
        _assert_matches_reference(taped, _reference(s, b, max_iterations=5))

    @pytest.mark.parametrize("cycle_type", ["V", "W", "F"])
    @pytest.mark.parametrize(
        "smoother", ["l1-jacobi", "chebyshev", "gauss-seidel"]
    )
    def test_cycle_shape_smoother_identity(self, cycle_type, smoother):
        s = _solver()
        b = _rhs(s)
        kw = dict(max_iterations=3, cycle_type=cycle_type, smoother=smoother)
        taped = s.solve(b, **kw)
        _assert_matches_reference(taped, _reference(s, b, **kw))

    def test_tape_recorded_before_any_interpreted_solve(self):
        """Recording first (cold extras caches, e.g. the Chebyshev
        spectral-radius estimate) must still match a later interpreted
        solve bit for bit."""
        s = _solver()
        b = _rhs(s)
        taped = s.solve(b, max_iterations=3, smoother="chebyshev")
        ref = _reference(s, b, max_iterations=3, smoother="chebyshev")
        _assert_matches_reference(taped, ref)

    def test_nonzero_initial_guess(self):
        s = _solver()
        b = _rhs(s)
        x0 = np.linspace(-1.0, 1.0, b.shape[0])
        taped = s.solve(b, x0=x0, max_iterations=4)
        _assert_matches_reference(taped, _reference(s, b, x0, max_iterations=4))

    def test_tolerance_stops_where_reference_does(self):
        s = _solver()
        b = _rhs(s)
        taped = s.solve(b, max_iterations=40, tolerance=1e-8)
        ref = _reference(s, b, max_iterations=40, tolerance=1e-8)
        _assert_matches_reference(taped, ref)
        assert taped.converged and taped.iterations < 40

    def test_amg_solve_tape_flag(self):
        """The functional entry point records + replays in one call, on the
        host matvec fallback."""
        a = poisson2d(24)
        h = amg_setup(a, SetupParams())
        rng = np.random.default_rng(3)
        b = rng.normal(size=h.levels[0].n)
        params = SolveParams(max_iterations=4)
        x_t, st_t = amg_solve(h, b, params=params)
        x_i, st_i = reference_solve(h, b, params=params)
        np.testing.assert_array_equal(x_i, x_t)
        assert st_i.residual_history == st_t.residual_history
        assert st_i.spmv_calls == st_t.spmv_calls

    @given(
        n=st.integers(10, 36),
        seed=st.integers(0, 99),
        cycle_type=st.sampled_from(["V", "W"]),
        smoother=st.sampled_from(["l1-jacobi", "chebyshev", "gauss-seidel"]),
        precision=st.sampled_from(["fp64", "mixed"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_identity(self, n, seed, cycle_type, smoother, precision):
        a = random_spd_csr(n, 0.25, seed=seed)
        s = AmgTSolver(precision=precision)
        s.setup(a)
        rng = np.random.default_rng(seed + 1)
        b = rng.normal(size=n)
        kw = dict(max_iterations=3, cycle_type=cycle_type, smoother=smoother)
        taped = s.solve(b, **kw)
        _assert_matches_reference(taped, _reference(s, b, **kw))


# ---------------------------------------------------------------------------
# Krylov solvers through the taped preconditioner
# ---------------------------------------------------------------------------


def _reference_cycle(s, r):
    """One zero-guess interpreted V-cycle through solver *s*'s kernels."""
    n = s.hierarchy.levels[0].n
    return mg_cycle(s.hierarchy, r, np.zeros(n), backend_spmv(s),
                    SolveParams(), SolveStats())


class TestTapedKrylov:
    @pytest.mark.parametrize("method", ["pcg", "gmres", "bicgstab"])
    def test_krylov_identity(self, method):
        from repro import solvers

        a = poisson2d(28)
        rng = np.random.default_rng(11)
        b = rng.normal(size=a.nrows)
        s = AmgTSolver().setup(a)
        rt = s.solve_krylov(b, method=method, tolerance=1e-10)
        ref = AmgTSolver().setup(a)
        spmv = backend_spmv(ref)
        ri = getattr(solvers, method)(
            lambda v: spmv(0, "A", v), b, tolerance=1e-10,
            preconditioner=lambda r: _reference_cycle(ref, r),
        )
        np.testing.assert_array_equal(ri.x, rt.x)
        assert ri.iterations == rt.iterations

    def test_as_preconditioner_tape_flag(self):
        s = _solver()
        m_taped = s.as_preconditioner(tape=True)  # accepted, ignored
        r = _rhs(s)
        np.testing.assert_array_equal(m_taped.apply(r), _reference_cycle(s, r))
        np.testing.assert_array_equal(s.as_preconditioner()(r),
                                      m_taped.apply(r))
        # Repeated applications reuse the same recorded tape.
        t = s._driver._tapes
        m_taped.apply(r)
        assert len(t) == 1


# ---------------------------------------------------------------------------
# Invalidation: hierarchy mutations force a re-record
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_generation_bump_marks_stale(self):
        s = _solver()
        s.solve(_rhs(s), max_iterations=2, tape=True)
        tape = s._driver.get_tape()
        assert not tape.is_stale()
        s.hierarchy.invalidate_solve_tapes()
        assert tape.is_stale()

    def test_stale_tape_refuses_to_replay(self):
        s = _solver()
        b = _rhs(s)
        s.solve(b, max_iterations=2, tape=True)
        tape = s._driver.get_tape()
        s.hierarchy.invalidate_solve_tapes()
        with pytest.raises(RuntimeError, match="stale"):
            tape.cycle(b)
        with pytest.raises(RuntimeError, match="stale"):
            taped_solve(tape, b)

    def test_mutation_re_records_instead_of_replaying(self):
        """After the hierarchy changes, the driver records a fresh tape
        and the taped solve matches a fresh interpreted solve — it never
        replays the stale plans."""
        s = _solver()
        b = _rhs(s)
        s.solve(b, max_iterations=3, tape=True)
        stale = s._driver.get_tape()

        # Mutate the fine-level smoothing diagonal (a real numeric
        # change: the cycle's output moves) and declare it.
        s.hierarchy.levels[0].dinv = s.hierarchy.levels[0].dinv * 1.5
        s.hierarchy.invalidate_solve_tapes()

        taped = s.solve(b, max_iterations=3, tape=True)
        fresh = s._driver.get_tape()
        assert fresh is not stale
        assert not fresh.is_stale()
        _assert_matches_reference(taped, _reference(s, b, max_iterations=3))

    def test_setup_clears_cached_tapes(self):
        s = _solver()
        s.solve(_rhs(s), max_iterations=2, tape=True)
        assert s._driver._tapes
        s.setup(poisson2d(32))
        assert not s._driver._tapes

    def test_tapes_keyed_by_cycle_shape(self):
        s = _solver()
        b = _rhs(s)
        s.solve(b, max_iterations=2, tape=True)
        s.solve(b, max_iterations=2, cycle_type="W", tape=True)
        tapes = s._driver._tapes.values()
        assert sorted(t.params.cycle_type for t in tapes) == ["V", "W"]
        assert all(t.batch == 1 for t in tapes)
        # Same shape, different iteration cap: the cached tape is reused.
        before = s._driver.get_tape()
        s.solve(b, max_iterations=4, tape=True)
        assert s._driver.get_tape() is before

    def test_taped_solve_rejects_shape_mismatch(self):
        s = _solver()
        b = _rhs(s)
        s.solve(b, max_iterations=2, tape=True)
        tape = s._driver.get_tape()
        with pytest.raises(ValueError, match="shape"):
            taped_solve(tape, b, params=SolveParams(cycle_type="W"))


# ---------------------------------------------------------------------------
# Checked mode: the differential oracle audits every replay
# ---------------------------------------------------------------------------


@pytest.mark.contract
class TestCheckedReplay:
    def test_checked_region_replay_passes(self):
        s = _solver()
        b = _rhs(s)
        with checked_region():
            taped = s.solve(b, max_iterations=3, tape=True)
        _assert_matches_reference(taped, _reference(s, b, max_iterations=3))

    def test_corrupted_tape_raises_contract_violation(self):
        s = _solver()
        b = _rhs(s)
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
                with pytest.raises(
                    ContractViolation, match="replay-differential"
                ):
                    s.solve(b, max_iterations=2, tape=True)
        finally:
            bad.fn = orig
            object.__setattr__(tape, "_fns", tuple(op.fn for op in tape.ops))

    @pytest.mark.parametrize(
        "slot, coarse, view",
        [
            ("x", False, lambda a: a),
            ("r", True, lambda a: a[1]),
            ("b", True, lambda a: a.T),
            ("t", True, lambda a: a[:, 2]),
        ],
        ids=["slot", "row-view", "transposed-view", "column-view"],
    )
    def test_escape_guard_flags_slot_memory(self, slot, coarse, view):
        """Copy contract: any array sharing memory with a workspace slot
        (the slot, or a row, transposed or column view of a panel slot)
        is refused; a copy of the same view passes."""
        h = amg_setup(poisson2d(24), SetupParams())
        ws = Workspace(h, batch=3)
        level = h.num_levels - 1 if coarse else 0
        escaped = view(getattr(ws, slot)[level])
        with pytest.raises(
            ContractViolation, match=rf"escaping-slot.*slot {slot}\[{level}\]"
        ):
            ws.check_no_escape(escaped)
        ws.check_no_escape(escaped.copy())

    def test_checked_results_pass_the_escape_guard(self, monkeypatch):
        """Every result the tape hands out under checked mode — vector and
        panel solves, replayed cycles and preconditioner applications —
        runs through the guard, and passes it."""
        s = _solver()
        n = s.hierarchy.levels[0].n
        b = _rhs(s)
        panel = np.stack([b, 2.0 * b, -b], axis=1)
        guard, seen = Workspace.check_no_escape, []

        def spy(ws, result):
            seen.append(result.shape)
            guard(ws, result)

        monkeypatch.setattr(Workspace, "check_no_escape", spy)
        with checked_region():
            s.solve(b, max_iterations=2)
            s.solve_multi(panel, max_iterations=2)
            tape = s._driver.get_tape()
            tape.cycle(b)
            tape.apply(b)
            s._driver.get_tape(batch=3).cycle(panel.T)
        assert seen == [(n,), (n, 3), (n,), (n,), (3, n)]

    def test_escape_guard_off_outside_checked_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)

        def never(ws, result):
            raise AssertionError("escape guard ran outside checked mode")

        monkeypatch.setattr(Workspace, "check_no_escape", never)
        s = _solver()
        b = _rhs(s)
        s.solve(b, max_iterations=2)
        s.solve_multi(np.stack([b, -b], axis=1), max_iterations=2)
        tape = s._driver.get_tape()
        tape.cycle(b)
        tape.apply(b)


# ---------------------------------------------------------------------------
# Perf-log replication and tape structure
# ---------------------------------------------------------------------------


class TestPerfReplication:
    def test_solve_phase_records_match_interpreted(self):
        """A taped solve prices the same kernel sequence as the interpreted
        reference charging one record per SpMV call: same kernels, levels
        and simulated times, in the same order."""
        for backend in ("amgt", "hypre"):
            self._check_records_match_reference(backend)

    @staticmethod
    def _check_records_match_reference(backend):
        s = _solver(backend)
        b = _rhs(s)
        n0 = len(s.performance.records)
        s.solve(b, max_iterations=4)
        taped = [(r.kernel, r.level, r.sim_time_us)
                 for r in s.performance.records[n0:]
                 if r.phase == "solve" and r.kernel == "spmv"]

        ref = _solver(backend)
        driver, charged = ref._driver, []

        def spmv(level, op, x):
            binding = driver.backend.bind_matvec(
                driver._wrapped[level][op], driver.perf, "solve", level)
            charged.append(binding.record)
            return binding.run(x)

        reference_solve(ref.hierarchy, b, spmv=spmv,
                        params=SolveParams(max_iterations=4))
        assert taped == [(r.kernel, r.level, r.sim_time_us) for r in charged]

    def test_tape_structure(self):
        s = _solver()
        s.solve(_rhs(s), max_iterations=1, tape=True)
        tape = s._driver.get_tape()
        kinds = {op.kind for op in tape.ops}
        assert kinds == {"smooth", "residual", "restrict", "correct", "coarse"}
        assert tape.spmv_calls_per_cycle == sum(
            op.spmv_calls for op in tape.ops
        )
        assert tape.workspace.nbytes > 0
        assert "ops" in tape.describe() or "op" in tape.describe()

    def test_replay_emits_observability(self):
        import repro.obs as obs

        s = _solver()
        b = _rhs(s)
        obs.reset()
        with obs.trace_region():
            s.solve(b, max_iterations=3, tape=True)
        snap = obs.REGISTRY.snapshot()
        obs.reset()
        flat = str(snap)
        assert "repro_tape_records_total" in flat
        assert "repro_tape_replay_cycles_total" in flat


# ---------------------------------------------------------------------------
# Replay speed: the point of the whole exercise
# ---------------------------------------------------------------------------


@pytest.mark.perf_smoke
class TestReplaySpeed:
    def test_taped_cycle_faster_than_interpreted(self, monkeypatch):
        """Median replayed cycle ≥1.2× faster than the interpreted
        ``mg_cycle`` over per-call ``mbsr_spmv`` (the CI smoke bound;
        BENCH_hotpath.json tracks the ≥1.5× target on the full suite
        matrices)."""
        import statistics
        import time

        from repro.kernels.spmv import mbsr_spmv

        # The env gate cannot be turned off programmatically, so drop it
        # for the timed section: checked replays re-run the interpreted
        # cycle per iteration and would invert the comparison.
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)

        s = _solver(n=64)
        b = _rhs(s)
        driver = s._driver
        tape = driver.get_tape()
        hierarchy = driver.hierarchy
        params = SolveParams()
        n = hierarchy.levels[0].n

        backend = driver.backend

        def level_spmv(level, op, x):
            # Per-call dispatch, as the interpreted solve issued it: cast
            # lookup, plan lookup, kernel entry and record per SpMV.
            am = driver._wrapped[level][op].mbsr_at_precision(
                backend.schedule.for_level(level))
            y, _ = mbsr_spmv(
                am, x, backend.schedule.for_level(level),
                am.cache.spmv_plan(backend.allow_tensor_cores),
                allow_tensor_cores=backend.allow_tensor_cores,
                storage_itemsize=backend.storage_itemsize,
            )
            return np.asarray(y, dtype=np.float64)

        def interpreted():
            return mg_cycle(hierarchy, b, np.zeros(n), level_spmv, params,
                            SolveStats())

        def timed_pairs(reps=15):
            # Interleaved, so a spell of host load slows both sides alike.
            times: dict = {"tape": [], "interp": []}
            for _ in range(reps):
                for key, fn in (("tape", lambda: tape.cycle(b)),
                                ("interp", interpreted)):
                    t0 = time.perf_counter()
                    fn()
                    times[key].append(time.perf_counter() - t0)
            return (statistics.median(times["tape"]),
                    statistics.median(times["interp"]))

        np.testing.assert_array_equal(tape.cycle(b), interpreted())
        t_tape, t_interp = timed_pairs()
        assert t_interp / t_tape >= 1.2, (
            f"taped replay only {t_interp / t_tape:.2f}x faster "
            f"({t_tape * 1e3:.2f} ms vs {t_interp * 1e3:.2f} ms)"
        )


# ---------------------------------------------------------------------------
# Workspace mechanics
# ---------------------------------------------------------------------------


class TestWorkspace:
    def test_slots_per_level(self):
        h = amg_setup(poisson2d(24), SetupParams())
        ws = Workspace(h)
        sizes = [lvl.n for lvl in h.levels]
        for slots in (ws.x, ws.b, ws.r, ws.t):
            # A single right-hand side is a panel of one row.
            assert [v.shape for v in slots] == [(1, n) for n in sizes]
            assert all(v.dtype == np.float64 for v in slots)
        assert ws.nbytes == sum(
            v.nbytes for slots in (ws.x, ws.b, ws.r, ws.t) for v in slots
        )

    def test_replay_reuses_slots(self):
        """Replaying does not reallocate the workspace: the slot arrays
        are the same objects across cycles."""
        s = _solver()
        b = _rhs(s)
        s.solve(b, max_iterations=1, tape=True)
        tape = s._driver.get_tape()
        ids_before = [id(v) for v in tape.workspace.x + tape.workspace.b]
        s.solve(b, max_iterations=3, tape=True)
        assert [id(v) for v in tape.workspace.x + tape.workspace.b] == ids_before

    def test_cycle_result_does_not_alias_workspace(self):
        s = _solver()
        b = _rhs(s)
        s.solve(b, max_iterations=1, tape=True)
        tape = s._driver.get_tape()
        out = tape.cycle(b)
        assert out is not tape.workspace.x[0]
        ref = out.copy()
        tape.cycle(b + 1.0)  # replay on different data
        np.testing.assert_array_equal(out, ref)  # earlier result untouched
