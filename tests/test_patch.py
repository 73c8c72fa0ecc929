"""Incremental hierarchy patching: diffs, splices, fallbacks, tapes.

The patch path's contract is stronger than the exact re-setup's: whatever
it returns must carry *the same bits* as a cold setup of the new matrix —
level operators, interpolation, restriction, smoothing diagonals and C/F
markers — and every fallback must (a) still produce that cold hierarchy
and (b) leave an honest ``setup_reuse_total{outcome, reason}`` counter.
These tests pin that contract at the CSR engine level, through the AmgT
backend's block-aligned patcher, and across the solve-tape boundary
(patched setups bump the generation, so stale tapes re-record).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.amg.cycle import SolveParams
from repro.amg.hierarchy import SetupParams, amg_setup
from repro.amg.patch import LevelDirt, patched_resetup, replace_rows
from repro.amg.solver import AmgTSolver
from repro.check.fingerprint import (
    csr_block_row_digests,
    diff_rows,
    row_digests,
    splice_row_digests,
)
from repro.formats.csr import CSRMatrix
from repro.gpu import A100
from repro.hypre.backends import AmgTBackend, make_backend
from repro.hypre.boomeramg import BoomerAMG
from repro.matrices import poisson2d
from repro.matrices.generators import convection_diffusion_2d, evolving_sequence

from conftest import random_csr

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))


def _perturb(a, seed=0, n_edits=10, grow=0, mag=0.01):
    """Localised edits: scale a few rows by ``1 + mag``; optionally add
    *grow* weak couplings (diagonally compensated)."""
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(0, a.nrows, size=n_edits))
    data = np.where(np.isin(a.row_ids(), rows), a.data * (1.0 + mag), a.data)
    if not grow:
        return CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(), data,
                         _canonical=True)
    rr = rows[:grow]
    cc = (rr + 7) % a.nrows
    return CSRMatrix.from_coo(
        np.concatenate([a.row_ids(), rr, rr]),
        np.concatenate([a.indices, cc, rr]),
        np.concatenate([data, np.full(rr.size, 0.05), np.full(rr.size, 0.05)]),
        a.shape,
    )


def _assert_identical(h1, h2):
    assert h1.num_levels == h2.num_levels
    for l1, l2 in zip(h1.levels, h2.levels):
        for name in ("a", "p", "r"):
            m1, m2 = getattr(l1, name), getattr(l2, name)
            assert (m1 is None) == (m2 is None)
            if m1 is None:
                continue
            np.testing.assert_array_equal(m1.indptr, m2.indptr)
            np.testing.assert_array_equal(m1.indices, m2.indices)
            np.testing.assert_array_equal(m1.data, m2.data)
        np.testing.assert_array_equal(l1.dinv, l2.dinv)
        if l1.cf_marker is not None:
            np.testing.assert_array_equal(l1.cf_marker, l2.cf_marker)


def _reuse_counts():
    snap = obs.REGISTRY.snapshot().get("setup_reuse_total")
    if snap is None:
        return {}
    return {
        (s["labels"].get("outcome"), s["labels"].get("reason")): s["value"]
        for s in snap["samples"]
    }


# ---------------------------------------------------------------------------
# replace_rows: the row-splice primitive
# ---------------------------------------------------------------------------


class TestReplaceRows:
    def test_splice_matches_rebuild(self):
        a = random_csr(23, 17, density=0.3, seed=3)
        sub = random_csr(4, 17, density=0.5, seed=4)
        rows = np.array([2, 7, 8, 19])
        out = replace_rows(a, rows, sub)
        ref = [sub.extract_rows(np.array([list(rows).index(i)]))
               if i in rows else a.extract_rows(np.array([i]))
               for i in range(a.nrows)]
        for i, row in enumerate(ref):
            np.testing.assert_array_equal(
                out.extract_rows(np.array([i])).indices, row.indices)
            np.testing.assert_array_equal(
                out.extract_rows(np.array([i])).data, row.data)

    def test_empty_and_full_replacement(self):
        a = random_csr(9, 9, density=0.4, seed=5)
        same = replace_rows(a, np.array([], dtype=np.int64),
                            CSRMatrix.zeros((0, 9)))
        np.testing.assert_array_equal(same.indptr, a.indptr)
        np.testing.assert_array_equal(same.data, a.data)
        b = random_csr(9, 9, density=0.4, seed=6)
        swapped = replace_rows(a, np.arange(9), b)
        np.testing.assert_array_equal(swapped.indices, b.indices)
        np.testing.assert_array_equal(swapped.data, b.data)

    def test_splice_inherits_base_digests(self):
        """A splice's memoised row digests (and so its pattern key) are
        the ones a fresh hash of the result computes."""
        a = random_csr(23, 17, density=0.3, seed=3)
        a.pattern_key()
        row_digests(a, values=True)
        sub = random_csr(4, 17, density=0.5, seed=4)
        out = replace_rows(a, np.array([0, 7, 8, 22]), sub)
        memo = out.__dict__["_row_digest_memo"]
        assert set(memo) == {False, True}
        fresh = CSRMatrix(out.shape, out.indptr, out.indices, out.data,
                          _canonical=True)
        for values in (False, True):
            np.testing.assert_array_equal(
                memo[values], row_digests(fresh, values=values))
        assert out.pattern_key() == fresh.pattern_key()

    def test_transpose_splice_rehashes_only_given_rows(self):
        p_old = random_csr(20, 8, density=0.3, seed=11)
        p_old.transpose().pattern_key()
        covered = np.array([3, 4, 12])
        p_new = replace_rows(p_old, covered, random_csr(3, 8, 0.5, seed=12))
        r_old, r_new = p_old.transpose(), p_new.transpose()
        r_old.pattern_key()
        drift = np.unique(np.concatenate([
            p.extract_rows(covered).indices for p in (p_old, p_new)]))
        splice_row_digests(r_new, r_old, drift)
        fresh = CSRMatrix(r_new.shape, r_new.indptr, r_new.indices,
                          r_new.data, _canonical=True)
        np.testing.assert_array_equal(
            r_new.__dict__["_row_digest_memo"][False], row_digests(fresh))


# ---------------------------------------------------------------------------
# Fingerprint diff: the dirty-row oracle
# ---------------------------------------------------------------------------


class TestFingerprintDiff:
    def test_diff_rows_exactly_predicts_edits(self):
        a = poisson2d(12)
        b = _perturb(a, seed=1, n_edits=6)
        changed = diff_rows(row_digests(a, values=True),
                            row_digests(b, values=True))
        expected = np.flatnonzero([
            not np.array_equal(
                a.extract_rows(np.array([i])).data,
                b.extract_rows(np.array([i])).data)
            or not np.array_equal(
                a.extract_rows(np.array([i])).indices,
                b.extract_rows(np.array([i])).indices)
            for i in range(a.nrows)
        ])
        np.testing.assert_array_equal(changed, expected)

    def test_block_row_digests_cover_scalar_dirt(self):
        a = poisson2d(10)
        b = _perturb(a, seed=2, n_edits=5, grow=2)
        dirty_blocks = diff_rows(csr_block_row_digests(a, values=True),
                                 csr_block_row_digests(b, values=True))
        scalar = diff_rows(row_digests(a, values=True),
                           row_digests(b, values=True))
        assert set(scalar // 4) == set(dirty_blocks.tolist())


# ---------------------------------------------------------------------------
# CSR engine: patched setup is bit-identical to cold
# ---------------------------------------------------------------------------


class TestPatchedSetupCSR:
    @pytest.mark.parametrize("grow", [0, 3])
    def test_patched_bit_identical_to_cold(self, grow):
        a = poisson2d(20)
        h0 = amg_setup(a)
        b = _perturb(a, seed=7, n_edits=12, grow=grow)
        hp = amg_setup(b, reuse=h0, patch=True)
        assert hp.patched
        assert hp.patch_stats["dirty_rows"] > 0
        _assert_identical(hp, amg_setup(b))

    def test_identical_matrix_reuses_wholesale(self):
        a = poisson2d(16)
        h0 = amg_setup(a)
        hp = amg_setup(a, reuse=h0, patch=True)
        assert hp.patched
        assert hp.patch_stats["patched_levels"] == 0
        _assert_identical(hp, h0)

    def test_patched_generation_invalidates_reuse_tapes(self):
        a = poisson2d(16)
        h0 = amg_setup(a)
        hp = amg_setup(_perturb(a, seed=8), reuse=h0, patch=True)
        assert hp.generation == h0.generation + 1

    def test_chain_of_patched_setups(self):
        seq = evolving_sequence("newton", nx=16, steps=3, dirty_frac=0.05,
                                seed=2)
        h = amg_setup(seq[0])
        for a in seq[1:]:
            h = amg_setup(a, reuse=h, patch=True)
            _assert_identical(h, amg_setup(a))

    def test_checked_mode_differential_oracle(self):
        from repro.check import checked_region

        a = poisson2d(16)
        h0 = amg_setup(a)
        with checked_region():
            hp = amg_setup(_perturb(a, seed=9), reuse=h0, patch=True)
        assert hp.patched


def _split_levels(monkeypatch):
    """Record the level index of every C/F splitting the re-setup runs."""
    import repro.amg.patch as patch_mod

    seen = []
    real = patch_mod._coarsen_level

    def counting(current, params, index, strength=None):
        seen.append(index)
        return real(current, params, index, strength)

    monkeypatch.setattr(patch_mod, "_coarsen_level", counting)
    return seen


def _assert_same_strength(h1, h2):
    for l1, l2 in zip(h1.levels, h2.levels):
        assert (l1.strength is None) == (l2.strength is None)
        if l1.strength is not None:
            np.testing.assert_array_equal(l1.strength.indptr, l2.strength.indptr)
            np.testing.assert_array_equal(l1.strength.indices, l2.strength.indices)
            assert l1.strength.data.tobytes() == l2.strength.data.tobytes()


class TestStrengthReuse:
    """The patch policy re-derives the dirty strength rows and reruns the
    C/F splitting only when they changed; every level's strength matrix
    stays the one a cold setup builds."""

    def test_unchanged_strength_rows_keep_the_splitting(self, monkeypatch):
        a = poisson2d(20)
        h0 = amg_setup(a)
        # Scaling whole rows keeps every strength test's outcome.
        b = _perturb(a, seed=7, n_edits=12)
        seen = _split_levels(monkeypatch)
        hp = amg_setup(b, reuse=h0, patch=True)
        assert hp.patched and hp.patch_stats["patched_levels"] > 0
        # Only the coarsest-level termination check splits.
        assert all(k == hp.num_levels - 1 for k in seen)
        cold = amg_setup(b)
        _assert_identical(hp, cold)
        _assert_same_strength(hp, cold)

    def test_changed_strength_rows_rerun_the_splitting(self, monkeypatch):
        a = poisson2d(20)
        h0 = amg_setup(a)
        # Weaken row 0's first coupling below theta: its strength row
        # loses that neighbour, and PMIS still picks the cached split.
        data = a.data.copy()
        data[int(np.flatnonzero(a.indices[:a.indptr[1]] != 0)[0])] *= 0.1
        b = CSRMatrix(a.shape, a.indptr, a.indices, data, _canonical=True)
        seen = _split_levels(monkeypatch)
        hp = amg_setup(b, reuse=h0, patch=True)
        assert hp.patched
        assert 0 in seen
        cold = amg_setup(b)
        _assert_identical(hp, cold)
        _assert_same_strength(hp, cold)

    def test_frozen_hierarchy_keeps_no_strength(self, monkeypatch):
        a = poisson2d(20)
        h0 = amg_setup(a)
        frozen = amg_setup(_perturb(a, seed=3, n_edits=8), reuse=h0)
        assert frozen.reused
        assert all(lvl.strength is None for lvl in frozen.levels)
        # Patching it therefore runs strength and PMIS in full.
        b = _perturb(a, seed=4, n_edits=8)
        seen = _split_levels(monkeypatch)
        hp = amg_setup(b, reuse=frozen, patch=True)
        assert hp.patched and 0 in seen
        cold = amg_setup(b)
        _assert_identical(hp, cold)
        _assert_same_strength(hp, cold)


# ---------------------------------------------------------------------------
# Fallbacks: every miss is cold-identical and counted with a reason
# ---------------------------------------------------------------------------


class TestFallbacks:
    def _counts_after(self, fn):
        obs.REGISTRY.reset()
        with obs.trace_region():
            out = fn()
        counts = _reuse_counts()
        obs.REGISTRY.reset()
        return out, counts

    def test_params_mismatch(self):
        a = poisson2d(14)
        h0 = amg_setup(a)
        other = SetupParams(strength_threshold=0.5)
        hp, counts = self._counts_after(
            lambda: amg_setup(a, params=other, reuse=h0, patch=True))
        assert not hp.patched
        assert counts == {("fallback", "params"): 1.0}
        _assert_identical(hp, amg_setup(a, params=other))

    def test_shape_mismatch(self):
        h0 = amg_setup(poisson2d(14))
        b = poisson2d(15)
        hp, counts = self._counts_after(
            lambda: amg_setup(b, reuse=h0, patch=True))
        assert counts == {("fallback", "shape"): 1.0}
        _assert_identical(hp, amg_setup(b))

    def test_dirty_fraction_threshold(self):
        # A power-of-two rescale dirties every row but keeps strength and
        # the C/F split exact, so the dirt budget is the gate that fires.
        a = poisson2d(14)
        h0 = amg_setup(a)
        b = CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(),
                      a.data * 2.0, _canonical=True)
        hp, counts = self._counts_after(
            lambda: amg_setup(b, reuse=h0, patch=True))
        assert counts == {("fallback", "dirty-fraction"): 1.0}
        _assert_identical(hp, amg_setup(b))

    def test_cf_drift_falls_back_cold_identical(self):
        a = convection_diffusion_2d(16)
        h0 = amg_setup(a)
        rng = np.random.default_rng(13)
        b = CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(),
                      a.data * rng.uniform(0.5, 2.0, size=a.nnz),
                      _canonical=True)
        hp, counts = self._counts_after(
            lambda: amg_setup(b, reuse=h0, patch=True))
        assert not hp.patched
        (outcome, reason), = counts
        assert outcome == "fallback"
        assert reason in ("cf-drift", "level-drift", "dirty-fraction")
        _assert_identical(hp, amg_setup(b))

    def test_coarse_level_fallback_is_cold_identical_in_mixed_precision(self):
        """A patch that gives up below the fine level must leave the
        solver's level tracker at the fine level: the mixed schedule
        derives each product's precision from it, so the cold fallback
        (and every patch built on it) would otherwise differ from cold."""
        seq = evolving_sequence("timestep", nx=48, steps=4, dirty_frac=0.02,
                                seed=1)
        solver = BoomerAMG(make_backend("amgt", A100, precision="mixed"))
        h = solver.setup(seq[0])
        outcomes = []
        for a in seq[1:]:
            h = solver.setup(a, reuse=h, patch=True)
            outcomes.append(h.patched)
            cold = BoomerAMG(
                make_backend("amgt", A100, precision="mixed")).setup(a)
            _assert_identical(h, cold)
        assert outcomes == [True, True, True, False]

    def test_non_classical_reuse_counts_amg_family(self):
        a = poisson2d(12)
        params = SetupParams(amg_family="aggregation")
        h0 = amg_setup(a, params=params)
        hp, counts = self._counts_after(
            lambda: amg_setup(a, params=params, reuse=h0, patch=True))
        assert counts == {("fallback", "amg-family"): 1.0}

    def test_patched_outcome_counted(self):
        a = poisson2d(14)
        h0 = amg_setup(a)
        hp, counts = self._counts_after(
            lambda: amg_setup(_perturb(a, seed=12), reuse=h0, patch=True))
        assert hp.patched
        assert counts == {("patched", None): 1.0}


# ---------------------------------------------------------------------------
# Frozen-interpolation policy: the exact re-setup is the engine's other policy
# ---------------------------------------------------------------------------


#: Reuse outcome per step of ``evolving_sequence(kind, nx=32, steps=4,
#: dirty_frac=0.02, seed=1)`` under the exact re-setup: the Newton chain
#: grows its pattern on its first two steps, refinement on its first.
_EXACT_OUTCOMES = {
    "newton": ["fallback", "fallback", "exact", "exact"],
    "timestep": ["exact"] * 4,
    "refine": ["fallback", "exact", "exact", "exact"],
}


class TestFrozenPolicy:
    @pytest.mark.parametrize("kind", sorted(_EXACT_OUTCOMES))
    @pytest.mark.parametrize("backend,precision", [
        ("amgt", "fp64"), ("amgt", "mixed"), ("hypre", "fp64"),
    ])
    def test_exact_chain_matches_frozen_reference(self, kind, backend,
                                                  precision):
        """Under checked mode every exact re-setup is compared bytewise
        with the plain two-call Galerkin chain over the cached R and P;
        every fallback must equal a cold setup."""
        from repro.check import checked_region

        seq = evolving_sequence(kind, nx=32, steps=4, dirty_frac=0.02, seed=1)
        solver = BoomerAMG(make_backend(backend, A100, precision=precision))
        solver.setup(seq[0])
        outcomes = []
        for a in seq[1:]:
            with checked_region():
                h = solver.setup(a, reuse=True)
            outcomes.append("exact" if h.reused else "fallback")
            if not h.reused:
                _assert_identical(h, BoomerAMG(make_backend(
                    backend, A100, precision=precision)).setup(a))
        assert outcomes == _EXACT_OUTCOMES[kind]

    def test_dropped_coarse_row_is_caught(self, monkeypatch):
        """A dirty coarse-row set missing one row leaves a stale row in the
        spliced operator; the frozen policy's oracle must reject it."""
        from repro.amg import patch as patch_mod
        from repro.check import checked_region
        from repro.check.violation import ContractViolation

        a = poisson2d(16)
        h0 = amg_setup(a)
        # A power-of-two rescale changes every coarse row exactly.
        b = CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(),
                      a.data * 2.0, _canonical=True)
        dirty_rows = patch_mod._dirty_coarse_rows
        monkeypatch.setattr(patch_mod, "_dirty_coarse_rows",
                            lambda *args: dirty_rows(*args)[1:])
        with checked_region(), pytest.raises(ContractViolation,
                                             match="frozen-differential"):
            amg_setup(b, reuse=h0)


class TestSetupPhaseConversions:
    """Every operator a re-setup changes converts to mBSR during setup,
    charged to its level, never at the first solve bind."""

    @pytest.mark.parametrize("patch", [False, True], ids=["exact", "patch"])
    @pytest.mark.parametrize("precision", ["fp64", "mixed"])
    def test_no_solve_phase_conversion_after_resetup(self, precision, patch):
        from repro.formats.convert import csr_to_mbsr
        from repro.hypre.csr_matrix import HypreCSRMatrix

        # The refine chain has a dirty level whose coarse rows all stay
        # clean (its dirty rows have empty P rows): no Galerkin replay
        # touches that level, yet its operator changed.
        seq = evolving_sequence("refine", nx=64, steps=3, dirty_frac=0.02,
                                seed=1)
        solver = BoomerAMG(AmgTBackend(A100, precision=precision))
        solver.setup(seq[0])
        rhs, params = np.ones(seq[0].nrows), SolveParams(max_iterations=2)
        unreplayed = 0
        for a in seq[1:]:
            start = len(solver.perf.records)
            h = solver.setup(a, reuse=True, patch=patch)
            x, _ = solver.solve(rhs, params=params)
            assert not [r.level for r in solver.perf.records[start:]
                        if r.kernel == "csr2mbsr" and r.phase == "solve"]
            unreplayed += sum(1 for lvl in h.patch_stats.get("levels", [])
                              if lvl["dirty"] and not lvl["coarse_rows"])
            # Same bits: every twin is the cold conversion of its operator,
            # and the solve equals one over cold conversions at bind.
            for entry in solver._wrapped:
                for w in entry.values():
                    if w.mbsr is not None:
                        cold = csr_to_mbsr(w.csr)
                        for name in ("blc_ptr", "blc_idx", "blc_map", "blc_val"):
                            np.testing.assert_array_equal(
                                getattr(w.mbsr, name), getattr(cold, name))
            ref = BoomerAMG(AmgTBackend(A100, precision=precision))
            ref.hierarchy = h
            ref._wrapped = [{op: HypreCSRMatrix(csr=w.csr)
                             for op, w in entry.items()}
                            for entry in solver._wrapped]
            np.testing.assert_array_equal(x, ref.solve(rhs, params=params)[0])
        if not patch:
            assert unreplayed


class TestInPlaceUpdate:
    """The caller may update the values of the matrix it set up with in
    place and pass the same object again: both policies must see the new
    values, exactly as if they had arrived in a new matrix."""

    @pytest.mark.parametrize("rebind", [True, False],
                             ids=["rebind-data", "write-data"])
    @pytest.mark.parametrize("patch", [False, True], ids=["exact", "patch"])
    @pytest.mark.parametrize("backend,precision", [
        ("hypre", "fp64"), ("amgt", "fp64"), ("amgt", "mixed"),
    ])
    def test_same_object_matches_new_matrix(self, backend, precision, patch,
                                            rebind):
        from repro.check import checked_region

        def solver():
            return BoomerAMG(make_backend(backend, A100, precision=precision))

        a = poisson2d(20)
        b = _perturb(a, seed=5, n_edits=10)
        in_place, fresh = solver(), solver()
        in_place.setup(a)
        fresh.setup(a.copy())
        if rebind:
            a.data = b.data.copy()
        else:
            a.data[:] = b.data
        with checked_region():
            h = in_place.setup(a, reuse=True, patch=patch)
        want = fresh.setup(b, reuse=True, patch=patch)
        assert (h.reused, h.patched) == (want.reused, want.patched) == (
            not patch, patch)
        _assert_identical(h, want)
        rhs, params = np.ones(a.nrows), SolveParams(max_iterations=3)
        np.testing.assert_array_equal(in_place.solve(rhs, params=params)[0],
                                      fresh.solve(rhs, params=params)[0])

    @pytest.mark.parametrize("patch", [False, True], ids=["exact", "patch"])
    @pytest.mark.parametrize("backend", ["hypre", "amgt"])
    def test_doubled_in_place_matches_cold_setup(self, backend, patch):
        """A power-of-two rescale keeps strength, C/F and interpolation
        exact, so the frozen reference is the cold setup of the result;
        the patch policy sees every row dirty and falls back to it."""
        a = poisson2d(20)
        solver = BoomerAMG(make_backend(backend, A100))
        solver.setup(a)
        a.data = a.data * 2.0
        h = solver.setup(a, reuse=True, patch=patch)
        assert (h.reused, h.patched) == (not patch, False)
        _assert_identical(h, BoomerAMG(make_backend(backend, A100)).setup(
            a.copy()))

    def test_single_level_hierarchy_sees_in_place_update(self):
        a = poisson2d(2)  # at the coarse-size limit: one level
        h0 = amg_setup(a, SetupParams(max_coarse_size=4))
        assert h0.num_levels == 1
        a.data = a.data * 2.0
        h = amg_setup(a, SetupParams(max_coarse_size=4), reuse=h0)
        _assert_identical(h, amg_setup(a.copy(), SetupParams(max_coarse_size=4)))
        rhs = np.arange(1.0, a.nrows + 1)
        np.testing.assert_allclose(a.to_dense() @ h.coarse_solver.solve(rhs),
                                   rhs)


# ---------------------------------------------------------------------------
# AmgT backend: block-aligned patching through the spliced plan cache
# ---------------------------------------------------------------------------


class TestPatchedSetupAmgT:
    @pytest.mark.parametrize("precision", ["fp64", "mixed"])
    def test_backend_patched_bit_identical(self, precision):
        a = poisson2d(20)
        solver = BoomerAMG(make_backend("amgt", A100, precision=precision))
        h0 = solver.setup(a)
        b = _perturb(a, seed=21, n_edits=10, grow=2)
        hp = solver.setup(b, reuse=h0, patch=True)
        cold = BoomerAMG(
            make_backend("amgt", A100, precision=precision)).setup(b)
        _assert_identical(hp, cold)

    def test_backend_perf_records_patch_phase(self):
        a = poisson2d(20)
        solver = BoomerAMG(AmgTBackend(A100, precision="fp64"))
        h0 = solver.setup(a)
        n0 = len(solver.perf.records)
        hp = solver.setup(_perturb(a, seed=22), reuse=h0, patch=True)
        assert hp.patched
        ops = {r.kernel for r in solver.perf.records[n0:]}
        assert "patch" in ops

    def test_backend_checked_region_end_to_end(self):
        from repro.check import checked_region

        a = poisson2d(16)
        solver = BoomerAMG(AmgTBackend(A100, precision="mixed"))
        h0 = solver.setup(a)
        with checked_region():
            hp = solver.setup(_perturb(a, seed=23), reuse=h0, patch=True)
        assert hp.patched

    def test_spliced_cache_does_not_corrupt_cold_setups(self):
        a = poisson2d(18)
        solver = BoomerAMG(AmgTBackend(A100, precision="fp64"))
        h0 = solver.setup(a)
        b = _perturb(a, seed=24, grow=2)
        solver.setup(b, reuse=h0, patch=True)
        # A cold setup through the same (now spliced) plan cache must
        # still match a setup through a pristine backend.
        again = solver.setup(b)
        pristine = BoomerAMG(AmgTBackend(A100, precision="fp64")).setup(b)
        _assert_identical(again, pristine)


# ---------------------------------------------------------------------------
# Patch <-> tape interaction
# ---------------------------------------------------------------------------


class TestPatchTapeInteraction:
    def _rhs(self, n, seed=5, width=None):
        rng = np.random.default_rng(seed)
        return rng.normal(size=n if width is None else (n, width))

    def test_patched_setup_re_records_bit_identical(self):
        a = poisson2d(16)
        s = AmgTSolver("amgt", "A100", precision="fp64")
        s.setup(a)
        b = self._rhs(a.nrows)
        s.solve(b, max_iterations=3, tape=True)
        stale = s._driver.get_tape()

        new_a = _perturb(a, seed=31)
        s.setup(new_a, reuse=True, patch=True)
        assert s.hierarchy.patched

        taped = s.solve(b, max_iterations=3, tape=True)
        fresh = s._driver.get_tape()
        assert fresh is not stale

        cold = AmgTSolver("amgt", "A100", precision="fp64").setup(new_a)
        ref = cold.solve(b, max_iterations=3)
        np.testing.assert_array_equal(taped.x, ref.x)
        assert taped.stats.residual_history == ref.stats.residual_history

    def test_patched_setup_bumps_generation(self):
        a = poisson2d(16)
        s = AmgTSolver("amgt", "A100", precision="fp64")
        s.setup(a)
        g0 = s.hierarchy.generation
        s.setup(_perturb(a, seed=32), reuse=True, patch=True)
        assert s.hierarchy.patched
        assert s.hierarchy.generation == g0 + 1

    def test_multi_rhs_taped_solve_after_patch(self):
        a = poisson2d(16)
        s = AmgTSolver("amgt", "A100", precision="fp64")
        s.setup(a)
        new_a = _perturb(a, seed=33)
        s.setup(new_a, reuse=True, patch=True)
        assert s.hierarchy.patched

        b = self._rhs(a.nrows, width=3)
        taped = s.solve_multi(b, max_iterations=3)
        cold = AmgTSolver("amgt", "A100", precision="fp64").setup(new_a)
        ref = cold.solve_multi(b, max_iterations=3)
        np.testing.assert_array_equal(taped.x, ref.x)


# ---------------------------------------------------------------------------
# Benchmark smoke
# ---------------------------------------------------------------------------


@pytest.mark.perf_smoke
def test_bench_evolve_smoke(tmp_path, monkeypatch):
    """One family at a small dirty fraction through the evolving-problem
    benchmark: patched/cold bit-identity asserted in-run, payload shaped
    like the other BENCH_* files."""
    import bench_evolve

    # Timing bench: under REPRO_CHECK the differential oracle re-runs a
    # full cold setup inside every patched one and inverts the speedup.
    # The bench asserts bit-identity itself, in-run, so drop the gates.
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)

    payload = bench_evolve.run(
        families=["newton"], fracs=[0.02], repeats=1,
        out_path=str(tmp_path / "BENCH_evolve.json"),
    )
    assert set(payload) == {
        "generated_by", "config", "results", "summary", "metrics",
        "meta", "attribution",
    }
    assert {r["op"] for r in payload["results"]} == {"patch@0.02"}
    assert all(r["outcome"] == "patched" for r in payload["results"])
    assert payload["summary"]["patch@0.02"]["min_speedup"] > 0
    # The instrumented pass drives the reuse engine, so its outcome
    # counters must be in the snapshot.
    assert "setup_reuse_total" in payload["metrics"]["newton"]
