"""Tests for the setup-phase engine: pattern-keyed SpGEMM plan cache,
fused RAP plans, conversion templates and structure-reusing re-setup."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.runtime import checked_region
from repro.formats.convert import csr_to_mbsr, mbsr_to_csr
from repro.gpu import A100
from repro.hypre.backends import AmgTBackend
from repro.hypre.boomeramg import BoomerAMG
from repro.kernels.setup_cache import SetupPlanCache
from repro.kernels.spgemm import mbsr_spgemm
from repro.matrices import poisson2d

from conftest import random_csr

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))


def _pair(seed, m=33, k=27, n=30, density=0.15):
    a = random_csr(m, k, density, seed=seed)
    b = random_csr(k, n, density, seed=seed + 5000)
    return csr_to_mbsr(a), csr_to_mbsr(b)


def _rescaled(csr, seed):
    """Same pattern, different values (the coefficient-update scenario)."""
    rng = np.random.default_rng(seed)
    out = csr.copy()
    out.data = out.data * (1.0 + rng.uniform(0.1, 0.9, size=out.data.shape))
    return out


def _assert_mbsr_identical(x, y):
    np.testing.assert_array_equal(x.blc_ptr, y.blc_ptr)
    np.testing.assert_array_equal(x.blc_idx, y.blc_idx)
    np.testing.assert_array_equal(x.blc_map, y.blc_map)
    np.testing.assert_array_equal(x.blc_val, y.blc_val)


def _assert_hierarchies_identical(cold, replayed):
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


# ======================================================================
# SpGEMM plan cache
# ======================================================================
class TestSpGEMMPlanCache:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cache_hit_bit_identical_and_numeric_only(self, seed):
        """A same-pattern product replays the cached plan: one launch
        (the numeric phase) and the cold product's exact bits — even when
        the values changed in between."""
        am, bm = _pair(seed)
        cold, cold_rec = mbsr_spgemm(am, bm)
        assert cold_rec.counters.launches == 4  # analysis + 2 symbolic + numeric

        cache = SetupPlanCache()
        miss, miss_rec = mbsr_spgemm(am, bm, plan_cache=cache)
        assert miss_rec.counters.launches == 4
        assert cache.stats.misses.get("spgemm") == 1
        _assert_mbsr_identical(miss, cold)

        hit, hit_rec = mbsr_spgemm(am, bm, plan_cache=cache)
        assert hit_rec.counters.launches == 1
        assert cache.stats.hits.get("spgemm") == 1
        _assert_mbsr_identical(hit, cold)

        # Coefficient update: same pattern, new values — still a hit,
        # still bit-identical to a cold product of the new operands.
        a2 = csr_to_mbsr(_rescaled(mbsr_to_csr(am), seed + 1))
        cold2, _ = mbsr_spgemm(a2, bm)
        hit2, rec2 = mbsr_spgemm(a2, bm, plan_cache=cache)
        assert rec2.counters.launches == 1
        assert cache.stats.hits.get("spgemm") == 2
        _assert_mbsr_identical(hit2, cold2)

    def test_pattern_mismatch_misses(self):
        """A different operand pattern must NOT hit the cached plan."""
        am, bm = _pair(7)
        cache = SetupPlanCache()
        mbsr_spgemm(am, bm, plan_cache=cache)
        # Same shapes, different sparsity structure.
        am2, _ = _pair(8)
        assert am2.cache.pattern_key != am.cache.pattern_key
        cold2, _ = mbsr_spgemm(am2, bm)
        out2, rec2 = mbsr_spgemm(am2, bm, plan_cache=cache)
        assert rec2.counters.launches == 4  # fresh symbolic, not a reuse
        assert cache.stats.misses.get("spgemm") == 2
        assert cache.stats.hits.get("spgemm") is None
        _assert_mbsr_identical(out2, cold2)

    def test_explicit_plan_rejects_wrong_pattern(self):
        """reuse_plan carries the operands' pattern keys and refuses
        structurally different matrices of the same shape."""
        from repro.kernels.spgemm import mbsr_spgemm_symbolic_plan

        am, bm = _pair(11)
        am2, _ = _pair(12)
        plan = mbsr_spgemm_symbolic_plan(am, bm)
        with pytest.raises(ValueError, match="different pattern"):
            mbsr_spgemm(am2, bm, reuse_plan=plan)

    @pytest.mark.contract
    def test_oracles_pass_on_hit_and_miss(self):
        """REPRO_CHECK verifies both the cold and the replayed product."""
        am, bm = _pair(21)
        cache = SetupPlanCache()
        with checked_region():
            mbsr_spgemm(am, bm, plan_cache=cache)  # miss path
            mbsr_spgemm(am, bm, plan_cache=cache)  # hit path
        assert cache.stats.hits.get("spgemm") == 1


# ======================================================================
# cache counter surface (hits/misses/evictions)
# ======================================================================
class TestSetupCacheCounters:
    def test_aggregate_hit_miss_properties(self):
        am, bm = _pair(31)
        cache = SetupPlanCache()
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        mbsr_spgemm(am, bm, plan_cache=cache)  # miss
        mbsr_spgemm(am, bm, plan_cache=cache)  # hit
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.evictions == 0

    def test_lru_eviction_counted(self):
        cache = SetupPlanCache(max_entries=1)
        for seed in (41, 42, 43):
            am, bm = _pair(seed)
            mbsr_spgemm(am, bm, plan_cache=cache)
        # entries 1 and 2 pushed out entry 0 and 1 respectively
        assert cache.evictions == 2
        assert cache.misses == 3

    def test_requests_feed_metrics_registry(self):
        import repro.obs as obs

        obs.reset()
        am, bm = _pair(51)
        cache = SetupPlanCache()
        with obs.trace_region():
            mbsr_spgemm(am, bm, plan_cache=cache)
            mbsr_spgemm(am, bm, plan_cache=cache)
        reg = obs.REGISTRY
        assert reg.value(
            "repro_setup_cache_requests_total", kind="spgemm", result="miss"
        ) == 1
        assert reg.value(
            "repro_setup_cache_requests_total", kind="spgemm", result="hit"
        ) == 1
        obs.reset()


# ======================================================================
# Fused RAP plans
# ======================================================================
class TestFusedRAP:
    def _triple(self, seed, n=36, k=14):
        a = random_csr(n, n, 0.2, seed=seed)
        p = random_csr(n, k, 0.25, seed=seed + 100)
        r = p.transpose()
        return csr_to_mbsr(r), csr_to_mbsr(a), csr_to_mbsr(p)

    def _classic_rap(self, rm, am, pm):
        """The backend's unfused flow: two products with a CSR round-trip
        (numeric pruning) of the intermediate."""
        ra, _ = mbsr_spgemm(rm, am)
        ra_csr = mbsr_to_csr(ra).eliminate_zeros(0.0)
        rap, _ = mbsr_spgemm(csr_to_mbsr(ra_csr), pm)
        return mbsr_to_csr(rap).eliminate_zeros(0.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fused_replay_matches_classic_path(self, seed):
        """The fused numeric replay equals the classic two-product chain
        bit for bit after the final zero elimination: the unpruned
        intermediate only adds exact-zero terms."""
        rm, am, pm = self._triple(seed)
        ref = self._classic_rap(rm, am, pm)

        cache = SetupPlanCache()
        plan, fresh = cache.rap_plan(rm, am, pm)
        assert fresh and plan.matches(rm, am, pm)
        # The first replay carries each stage plan's build, exactly once.
        first, records = cache.rap_numeric(plan, rm, am, pm)
        for rec in records:
            assert rec.counters.launches == 4  # analysis + 2 symbolic + numeric
            assert not rec.detail["symbolic_reused"]
        rap, records = cache.rap_numeric(plan, rm, am, pm)
        _assert_mbsr_identical(rap, first)
        got = mbsr_to_csr(rap).eliminate_zeros(0.0)
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data, ref.data)

        assert [r.detail["fused_rap"] for r in records] == ["ra", "rap"]
        for rec in records:
            assert rec.counters.launches == 1  # numeric pass only
            assert rec.detail["symbolic_reused"]

    def test_replay_tracks_value_updates(self):
        rm, am, pm = self._triple(3)
        cache = SetupPlanCache()
        plan, _ = cache.rap_plan(rm, am, pm)
        cache.rap_numeric(plan, rm, am, pm)

        am2 = csr_to_mbsr(_rescaled(mbsr_to_csr(am), 4))
        plan2, fresh2 = cache.rap_plan(rm, am2, pm)
        assert not fresh2 and plan2 is plan  # pattern unchanged -> same plan
        rap2, _ = cache.rap_numeric(plan2, rm, am2, pm)
        ref2 = self._classic_rap(rm, am2, pm)
        got2 = mbsr_to_csr(rap2).eliminate_zeros(0.0)
        np.testing.assert_array_equal(got2.data, ref2.data)
        np.testing.assert_array_equal(got2.indices, ref2.indices)

    def test_mismatched_operands_rejected(self):
        rm, am, pm = self._triple(5)
        cache = SetupPlanCache()
        plan, _ = cache.rap_plan(rm, am, pm)
        _, am_other, _ = self._triple(6)
        assert not plan.matches(rm, am_other, pm)
        with pytest.raises(ValueError, match="different pattern"):
            cache.rap_numeric(plan, rm, am_other, pm)

    @pytest.mark.contract
    def test_fused_replay_passes_oracles(self):
        rm, am, pm = self._triple(9)
        cache = SetupPlanCache()
        plan, _ = cache.rap_plan(rm, am, pm)
        with checked_region():
            cache.rap_numeric(plan, rm, am, pm)  # verify_spgemm on each stage


# ======================================================================
# Conversion templates
# ======================================================================
class TestConversionTemplates:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_csr2mbsr_template_exact(self, seed):
        csr = random_csr(41, 35, 0.12, seed=seed)
        cache = SetupPlanCache()
        first, cold_stats = cache.csr2mbsr(csr)
        _assert_mbsr_identical(first, csr_to_mbsr(csr))

        updated = _rescaled(csr, seed + 1)
        hit, hit_stats = cache.csr2mbsr(updated)
        assert cache.stats.hits.get("csr2mbsr") == 1
        _assert_mbsr_identical(hit, csr_to_mbsr(updated))
        # Replay stats cover the value traffic only.
        assert hit_stats.bytes_written < cold_stats.bytes_written
        assert hit_stats.bytes_read < cold_stats.bytes_read

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_mbsr2csr_template_exact(self, seed):
        mbsr = csr_to_mbsr(random_csr(38, 44, 0.12, seed=seed))
        cache = SetupPlanCache()
        ref = mbsr_to_csr(mbsr)
        first = cache.expansion(mbsr)[0]
        hit = cache.expansion(mbsr)[0]
        assert cache.stats.hits.get("mbsr2csr") == 1
        for got in (first, hit):
            np.testing.assert_array_equal(got.indptr, ref.indptr)
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_array_equal(got.data, ref.data)

    def test_gather_key_includes_bitmap(self):
        """Two mBSR matrices with identical tiles but different bitmaps
        (structural vs cancelled zeros) must use different templates."""
        from repro.formats.mbsr import MBSRMatrix

        base = csr_to_mbsr(random_csr(20, 20, 0.3, seed=2))
        # Clear one structural bit (keep its exact-zero value): the CSR
        # expansion loses that entry, so the template cannot be shared.
        blc_map = base.blc_map.copy()
        assert blc_map[0] != 0
        val = base.blc_val.copy()
        m = int(blc_map[0])
        bit = m & -m
        blc_map[0] = m & ~bit
        slot = bit.bit_length() - 1
        val[0, slot // 4, slot % 4] = 0.0
        other = MBSRMatrix(base.shape, base.blc_ptr, base.blc_idx, val,
                           blc_map, _trusted=True)
        cache = SetupPlanCache()
        cache.expansion(base)
        out = cache.expansion(other)[0]
        assert cache.stats.misses.get("mbsr2csr") == 2
        assert out.nnz == base.cache.pop_per_tile.sum() - 1


# ======================================================================
# Structure-reusing re-setup
# ======================================================================
class TestResetup:
    def _solver(self):
        return BoomerAMG(AmgTBackend(A100, precision="fp64"))

    def test_resetup_bit_identical_and_numeric_only(self, monkeypatch):
        # Counts the re-setup's own records: under REPRO_CHECK the
        # differential oracle replays its reference through the same
        # SpGEMM callable and logs those records too.
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        a = poisson2d(24)
        cold = self._solver().setup(a)

        amg = self._solver()
        amg.setup(a)
        n0 = len(amg.perf.records)
        h1 = amg.setup(a, reuse=True)  # unchanged matrix: every level clean
        assert h1.reused
        _assert_hierarchies_identical(cold, h1)
        assert h1.spgemm_calls == 0
        assert not [r for r in amg.perf.records[n0:] if r.kernel == "spgemm"]

        # Power-of-two rescales dirty every row and keep every bit exact.
        half = a.copy()
        half.data = a.data * 0.5
        h_half = amg.setup(half, reuse=True)  # warm-up: builds the fused plans
        _assert_hierarchies_identical(self._solver().setup(half), h_half)
        assert h_half.spgemm_calls == 2 * (h_half.num_levels - 1)

        n0 = len(amg.perf.records)
        h2 = amg.setup(a, reuse=True)  # x2, steady state: pure numeric replay
        _assert_hierarchies_identical(cold, h2)
        spgemms = [r for r in amg.perf.records[n0:] if r.kernel == "spgemm"]
        assert len(spgemms) == 2 * (h2.num_levels - 1)
        for rec in spgemms:
            assert rec.counters.launches == 1
            assert rec.detail["symbolic_reused"]
            assert rec.detail["fused_rap"] in ("ra", "rap")

    def test_resetup_accepts_explicit_hierarchy_and_solves(self):
        from repro.amg.cycle import SolveParams

        a = poisson2d(20)
        amg = self._solver()
        h0 = amg.setup(a)
        h1 = amg.setup(a, reuse=h0)
        assert h1.reused
        rng = np.random.default_rng(0)
        b = rng.normal(size=a.shape[0])
        x, stats = amg.solve(b, params=SolveParams(tolerance=1e-10))
        assert stats.converged

    def test_pattern_mismatch_falls_back_to_full_setup(self):
        a = poisson2d(20)
        amg = self._solver()
        amg.setup(a)
        # Different pattern (different grid): the fingerprint gate must
        # reject the frozen hierarchy and run the full setup.
        a2 = poisson2d(21)
        h = amg.setup(a2, reuse=True)
        assert not h.reused
        assert h.spgemm_calls == 3 * (h.num_levels - 1)
        cold = self._solver().setup(a2)
        _assert_hierarchies_identical(cold, h)

    def test_uniform_scale_reuses_numerically(self):
        """Scaling the operator by a power of two is exact in IEEE, so
        every Galerkin cancellation survives: the re-setup keeps the
        frozen interpolation and reproduces the scaled numerics exactly."""
        a = poisson2d(18)
        amg = self._solver()
        h0 = amg.setup(a)
        a2 = a.copy()
        a2.data = a.data * 2.0
        h = amg.setup(a2, reuse=True)
        assert h.reused
        for l0, l1 in zip(h0.levels, h.levels):
            if l0.p is not None:
                np.testing.assert_array_equal(l0.p.data, l1.p.data)  # frozen
            np.testing.assert_array_equal(l1.a.data, 2.0 * l0.a.data)
            np.testing.assert_array_equal(l1.dinv, 0.5 * l0.dinv)

    def test_random_value_update_is_contract_safe(self):
        """A random rescale can shift coarse cancellation patterns; the
        fingerprint gate must then fall back to a full (cold-identical)
        setup rather than replay a stale structure."""
        a = poisson2d(18)
        amg = self._solver()
        amg.setup(a)
        a2 = _rescaled(a, 13)
        h = amg.setup(a2, reuse=True)
        if not h.reused:
            assert h.spgemm_calls == 3 * (h.num_levels - 1)
            _assert_hierarchies_identical(self._solver().setup(a2), h)
        else:
            np.testing.assert_array_equal(h.levels[0].a.data, a2.data)

    @pytest.mark.contract
    def test_resetup_checked_mode(self):
        a = poisson2d(16)
        amg = self._solver()
        amg.setup(a)
        with checked_region():
            h = amg.setup(a, reuse=True)  # oracles + hierarchy validation
        assert h.reused


# ======================================================================
# Plan charging: every plan build lands on one record, once
# ======================================================================
class TestPlanCharging:
    def test_built_and_spliced_plans_charged_once(self, monkeypatch):
        """Plans assembled by a fused RAP build or spliced by a patch are
        charged (analysis + symbolic) by the first record that replays
        them, exactly once; an all-hit re-setup charges numeric work only."""
        from repro.matrices.generators import evolving_sequence

        # Counts the re-setups' own plans and records: under REPRO_CHECK
        # the differential oracles build and log their references too.
        monkeypatch.delenv("REPRO_CHECK", raising=False)

        seq = evolving_sequence("newton", nx=32, steps=3, dirty_frac=0.02,
                                seed=1)
        amg = BoomerAMG(AmgTBackend(A100, precision="fp64"))
        amg.setup(seq[0])
        stats = amg.backend.setup_cache.stats

        def plans_made():
            return stats.misses.get("spgemm", 0) + stats.hits.get(
                "spgemm_splice", 0)

        def fused_records(n0):
            return [r for r in amg.perf.records[n0:] if "fused_rap" in r.detail]

        for a, patch in zip(seq[1:], (True, True, False)):
            made, n0 = plans_made(), len(amg.perf.records)
            h = amg.setup(a, reuse=True, patch=patch)
            assert h.patched == patch and h.reused != patch
            charged = [r for r in fused_records(n0)
                       if not r.detail["symbolic_reused"]]
            assert len(charged) == plans_made() - made
            assert all(r.counters.launches > 1 for r in charged)

        doubled = seq[-1].copy()
        doubled.data = seq[-1].data * 2.0
        n0 = len(amg.perf.records)
        h = amg.setup(doubled, reuse=True)
        fused = fused_records(n0)
        assert len(fused) == 2 * (h.num_levels - 1)
        for rec in fused:
            assert rec.counters.launches == 1
            assert rec.detail["symbolic_reused"]


# ======================================================================
# Benchmark smoke
# ======================================================================
@pytest.mark.perf_smoke
def test_bench_setup_smoke(tmp_path, monkeypatch):
    """One small matrix through the setup benchmark: asserts bit-identity
    in-run and produces the BENCH_hotpath-shaped payload."""
    import bench_setup

    # Timing bench: under REPRO_CHECK the frozen policy's differential
    # oracle re-runs the full Galerkin chain inside every timed re-setup
    # and inverts the speedup.  The bench asserts bit-identity itself,
    # in-run, so drop the gate.
    monkeypatch.delenv("REPRO_CHECK", raising=False)

    payload = bench_setup.run(
        matrices=["thermal1"], repeats=1,
        out_path=str(tmp_path / "BENCH_setup.json"),
    )
    assert set(payload) == {
        "generated_by", "config", "results", "summary", "metrics",
        "meta", "attribution",
    }
    # One metrics snapshot per benchmarked matrix (registry reset between
    # configurations).  The instrumented pass runs a re-setup, so the
    # setup-cache request counters must be present in each snapshot.
    assert set(payload["metrics"]) == {"thermal1"}
    assert "repro_setup_cache_requests_total" in payload["metrics"]["thermal1"]
    ops = {"resetup", "spgemm_plan_hit", "conversion_replay"}
    assert {r["op"] for r in payload["results"]} == ops
    for op in ops:
        summary = payload["summary"][op]
        assert set(summary) == {"median_speedup", "min_speedup"}
        assert summary["min_speedup"] > 0
    assert payload["summary"]["resetup"]["median_speedup"] > 1.0
