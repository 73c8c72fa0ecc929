"""Equivalence tests of the setup data flow's orderings and expansion.

The setup phase orders entries with one fused-key stable argsort
(:func:`repro.util.ordering.lexsort_pairs`) instead of ``np.lexsort``, and
every SpGEMM product leaves mBSR through one expansion that yields the
pruned CSR, the product's mBSR twin and the conversion templates.  Each
test pins one of those against the reference it replaced — the
``np.lexsort`` formulations, ``mbsr_to_csr(m).eliminate_zeros(0.0)``
followed by ``csr_to_mbsr``, and the conversion chain that produced and
stored the templates — bytewise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.runtime import checked_region
from repro.check.violation import ContractViolation
from repro.formats.bitmap import BLOCK_SIZE, TILE_SLOTS, bitmap_to_mask
from repro.formats.convert import (
    _tile_layout,
    csr_to_mbsr,
    expand_bits,
    mbsr_to_csr,
    mbsr_to_pruned_csr,
    prune_twin,
)
from repro.formats.csr import CSRMatrix
from repro.formats.mbsr import MBSRMatrix, block_rows
from repro.gpu import A100
from repro.hypre.backends import AmgTBackend
from repro.hypre.boomeramg import BoomerAMG
from repro.kernels.setup_cache import SetupPlanCache
from repro.matrices import poisson2d
from repro.matrices.generators import evolving_sequence
from repro.util.ordering import lexsort_pairs

from conftest import random_spd_csr

pytestmark = pytest.mark.contract

LAYOUTS = ["presorted", "reversed", "shuffled", "duplicates", "one-row",
           "one-column"]


def _same(x: np.ndarray, y: np.ndarray) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _assert_csr_same(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert _same(getattr(got, name), getattr(want, name)), name


def _assert_mbsr_same(got: MBSRMatrix, want: MBSRMatrix) -> None:
    assert got.shape == want.shape
    for name in ("blc_ptr", "blc_idx", "blc_map", "blc_val"):
        assert _same(getattr(got, name), getattr(want, name)), name


# ----------------------------------------------------------------------
# References: the np.lexsort formulations the setup data flow replaced
# ----------------------------------------------------------------------
def _from_coo_ref(rows, cols, vals, shape, sum_duplicates):
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and rows.size:
        new = np.ones(rows.shape[0], dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(new) - 1
        rows, cols = rows[new], cols[new]
        vals = np.bincount(group, weights=vals.astype(np.float64))
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return indptr, cols, vals


def _mbsr_to_csr_ref(m: MBSRMatrix):
    """The lexsort MBSR2CSR: ``(csr, flat blc_val position per entry)``."""
    tile, rr, cc = np.nonzero(bitmap_to_mask(m.blc_map))
    rows = m.block_row_ids()[tile] * BLOCK_SIZE + rr
    cols = m.blc_idx[tile] * BLOCK_SIZE + cc
    flat = tile * TILE_SLOTS + rr * BLOCK_SIZE + cc
    keep = (rows < m.nrows) & (cols < m.ncols)
    rows, cols, flat = rows[keep], cols[keep], flat[keep]
    order = np.lexsort((cols, rows))
    indptr, cols, _ = _from_coo_ref(rows[order], cols[order], flat[order],
                                    m.shape, False)
    flat = flat[order]
    csr = CSRMatrix(m.shape, indptr, cols, m.blc_val.reshape(-1)[flat],
                    _canonical=True)
    return csr, flat


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def key_pairs(draw):
    n = draw(st.integers(0, 80))
    major_extent = draw(st.integers(1, 9))
    minor_extent = draw(st.integers(1, 9))
    layout = draw(st.sampled_from(LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    major = rng.integers(0, major_extent, n)
    minor = rng.integers(0, minor_extent, n)
    if layout == "duplicates" and n:
        pick = rng.integers(0, min(n, 3), n)
        major, minor = major[pick], minor[pick]
    elif layout == "one-row":
        major[:] = major_extent - 1
    elif layout == "one-column":
        minor[:] = minor_extent - 1
    if layout in ("presorted", "reversed"):
        order = np.lexsort((minor, major))
        if layout == "reversed":
            order = order[::-1]
        major, minor = major[order], minor[order]
    return major, minor, major_extent, minor_extent


#: Values under set bits: ordinary, exact zeros of both signs, NaN, inf.
_SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


@st.composite
def mbsr_matrices(draw, sorted_tiles=True):
    """mBSR matrices the kernels could hand over: sorted distinct tiles per
    block-row (or, with ``sorted_tiles=False``, permuted ones), empty
    block-rows, shapes not a multiple of 4, and explicit zeros (``0.0``,
    ``-0.0``), NaN and infinities under set bits.  Off-bitmap slots hold
    ``+0.0`` (the format invariant)."""
    nrows = draw(st.integers(0, 19))
    ncols = draw(st.integers(0, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mb, nb = block_rows(nrows), block_rows(ncols)
    fill = draw(st.floats(0.0, 1.0))
    special = draw(st.floats(0.0, 0.5))
    ptr, idx = [0], []
    for _ in range(mb):
        cols = np.flatnonzero(rng.random(nb) < fill)
        if not sorted_tiles:
            cols = rng.permutation(cols)
        idx.extend(cols.tolist())
        ptr.append(len(idx))
    blc_num = len(idx)
    maps = rng.integers(1, 1 << TILE_SLOTS, blc_num).astype(np.uint16)
    if blc_num and draw(st.booleans()):
        maps &= rng.integers(0, 1 << TILE_SLOTS, blc_num).astype(np.uint16)
    mask = bitmap_to_mask(maps)
    vals = rng.normal(size=(blc_num, BLOCK_SIZE, BLOCK_SIZE))
    odd = rng.random(vals.shape) < special
    vals[odd] = rng.choice(_SPECIALS, size=int(odd.sum()))
    vals = np.where(mask, vals, 0.0)
    return MBSRMatrix((nrows, ncols), np.array(ptr), np.array(idx, dtype=np.int64),
                      vals, maps, _trusted=True)


# ----------------------------------------------------------------------
# The ordering helper and the CSR constructors built on it
# ----------------------------------------------------------------------
class TestOrderingHelper:
    @settings(max_examples=150, deadline=None)
    @given(keys=key_pairs())
    def test_equals_lexsort(self, keys):
        major, minor, major_extent, minor_extent = keys
        got = lexsort_pairs(major, minor, major_extent, minor_extent)
        assert _same(got, np.lexsort((minor, major)))

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert _same(lexsort_pairs(empty, empty, 3, 5),
                     np.lexsort((empty, empty)))

    def test_overflowing_extents_fall_back(self):
        rng = np.random.default_rng(3)
        major = rng.integers(0, 2**40, 200)
        minor = rng.integers(0, 2**40, 200)
        got = lexsort_pairs(major, minor, 2**40, 2**40)
        assert _same(got, np.lexsort((minor, major)))


@st.composite
def coo_triplets(draw):
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    n = draw(st.integers(0, 60))
    layout = draw(st.sampled_from(LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = rng.integers(0, nrows, n)
    cols = rng.integers(0, ncols, n)
    if layout == "duplicates" and n:
        pick = rng.integers(0, min(n, 4), n)
        rows, cols = rows[pick], cols[pick]
    elif layout == "one-row":
        rows[:] = 0
    elif layout == "one-column":
        cols[:] = ncols - 1
    if layout in ("presorted", "reversed"):
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        if layout == "reversed":
            rows, cols = rows[::-1].copy(), cols[::-1].copy()
    vals = rng.normal(size=n)
    vals[rng.random(n) < 0.1] = -0.0
    return rows, cols, vals, (nrows, ncols)


class TestCanonicalCSR:
    @settings(max_examples=120, deadline=None)
    @given(coo=coo_triplets(), sum_duplicates=st.booleans())
    def test_from_coo_matches_lexsort(self, coo, sum_duplicates):
        rows, cols, vals, shape = coo
        got = CSRMatrix.from_coo(rows, cols, vals, shape,
                                 sum_duplicates=sum_duplicates)
        indptr, indices, data = _from_coo_ref(rows, cols, vals, shape,
                                              sum_duplicates)
        assert _same(got.indptr, indptr)
        assert _same(got.indices, indices)
        assert _same(got.data, data)

    @settings(max_examples=120, deadline=None)
    @given(coo=coo_triplets(), dtype=st.sampled_from([np.float64, np.float32]))
    def test_canonicalise_matches_lexsort(self, coo, dtype):
        """Row-grouped, column-unsorted input with duplicates: the
        constructor sorts and sums exactly like the lexsort formulation."""
        rows, cols, vals, shape = coo
        vals = vals.astype(dtype)
        grouped = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[grouped], cols[grouped], vals[grouped]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        got = CSRMatrix(shape, indptr, cols, vals)

        order = np.lexsort((cols, rows))
        r, c, v = rows[order], cols[order], vals[order]
        if r.size:
            new = np.ones(r.shape[0], dtype=bool)
            new[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            group = np.cumsum(new) - 1
            summed = np.zeros(int(group[-1]) + 1)
            np.add.at(summed, group, v.astype(np.float64))
            if not new.all():
                r, c, v = r[new], c[new], summed.astype(v.dtype)
        want_ptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=shape[0]), out=want_ptr[1:])
        assert _same(got.indptr, want_ptr)
        assert _same(got.indices, c)
        assert _same(got.data, v)


# ----------------------------------------------------------------------
# The one expansion: pruned CSR, mBSR twin, fill layout
# ----------------------------------------------------------------------
class TestExpansion:
    @settings(max_examples=150, deadline=None)
    @given(m=mbsr_matrices())
    def test_mbsr_to_csr_matches_lexsort(self, m):
        want, flat = _mbsr_to_csr_ref(m)
        _assert_csr_same(mbsr_to_csr(m), want)
        _, _, gather = expand_bits(m)
        assert _same(gather, flat)

    @settings(max_examples=60, deadline=None)
    @given(m=mbsr_matrices(sorted_tiles=False))
    def test_unsorted_tiles_expand_in_canonical_order(self, m):
        _assert_csr_same(mbsr_to_csr(m), _mbsr_to_csr_ref(m)[0])

    @settings(max_examples=150, deadline=None)
    @given(m=mbsr_matrices())
    def test_pruned_csr_and_twin(self, m):
        want = _mbsr_to_csr_ref(m)[0].eliminate_zeros(0.0)
        csr, gather = mbsr_to_pruned_csr(m)
        _assert_csr_same(csr, want)
        assert _same(m.blc_val.reshape(-1)[gather], csr.data)
        twin, order, slots = prune_twin(m, gather)
        _assert_mbsr_same(twin, csr_to_mbsr(want))
        want_order, want_slots, _, _ = _tile_layout(want)
        assert _same(order, want_order)
        assert _same(slots, want_slots)

    @settings(max_examples=60, deadline=None)
    @given(m=mbsr_matrices())
    def test_cached_expansion_and_twin_store_the_reference_templates(self, m):
        """Miss and hit of the memoised expansion, and the twin's fill
        template, against the conversions they replace."""
        from repro.formats.convert import prune_zeros

        want = _mbsr_to_csr_ref(m)[0].eliminate_zeros(0.0)
        ref_cache = SetupPlanCache()
        ref_twin, _ = ref_cache.csr2mbsr(want)
        cache = SetupPlanCache()
        for _ in range(2):
            csr, gather = prune_zeros(*cache.expansion(m))
            _assert_csr_same(csr, want)
            _assert_mbsr_same(cache.product_twin(m, csr, gather), ref_twin)
        assert cache.stats.misses == {"mbsr2csr": 1, "csr2mbsr": 1}
        assert cache.stats.hits == {"mbsr2csr": 1, "csr2mbsr": 1}
        _assert_templates_same(cache._fill, ref_cache._fill)

    def test_empty_matrix(self):
        m = MBSRMatrix.empty((6, 9))
        csr, gather = mbsr_to_pruned_csr(m)
        assert csr.nnz == 0 and gather.shape == (0,)
        twin, order, slots = prune_twin(m, gather)
        _assert_mbsr_same(twin, csr_to_mbsr(CSRMatrix.zeros((6, 9))))
        assert order.shape == slots.shape == (0,)

    def test_fully_cancelled_product(self):
        """Every value under a set bit cancels: the twin has no tiles."""
        m = csr_to_mbsr(poisson2d(5))
        zero = MBSRMatrix(m.shape, m.blc_ptr, m.blc_idx,
                          np.zeros_like(m.blc_val), m.blc_map, _trusted=True)
        csr, gather = mbsr_to_pruned_csr(zero)
        twin, _, _ = prune_twin(zero, gather)
        assert csr.nnz == 0 and twin.blc_num == 0
        _assert_mbsr_same(twin, csr_to_mbsr(csr))


# ----------------------------------------------------------------------
# Cold setups store the templates the conversion chain stored
# ----------------------------------------------------------------------
def _assert_templates_same(got, want):
    assert list(got) == list(want)
    for key in want:
        g, w = got[key], want[key]
        for name in w.__dataclass_fields__:
            x, y = getattr(g, name), getattr(w, name)
            if isinstance(y, np.ndarray):
                assert _same(x, y), (key, name)
            else:
                assert x == y, (key, name)


def _conversion_chain(monkeypatch):
    """Route products through the chain the expansion replaced: the
    lexsort MBSR2CSR, ``eliminate_zeros`` and a CSR->mBSR conversion of
    the pruned CSR."""
    from repro.hypre import backends

    def expansion(self, mbsr):
        from repro.kernels.setup_cache import _GatherTemplate

        key = mbsr.cache.pattern_key
        hit = self._get(self._gather, key) is not None
        self.stats.count("mbsr2csr", hit=hit)
        csr, flat = _mbsr_to_csr_ref(mbsr)
        if not hit:
            self._put(self._gather, key, _GatherTemplate(
                mbsr.shape, csr.indptr, csr.indices, flat, csr.pattern_key()))
        return csr, None

    monkeypatch.setattr(SetupPlanCache, "expansion", expansion)
    monkeypatch.setattr(backends, "prune_zeros",
                        lambda csr, gather: (csr.eliminate_zeros(0.0), None))
    monkeypatch.setattr(SetupPlanCache, "product_twin",
                        lambda self, mbsr, csr, gather: self.csr2mbsr(csr)[0])


def _run_setups(kind: str, precision: str):
    solver = BoomerAMG(AmgTBackend(A100, precision=precision))
    if kind == "cold":
        hierarchies = [solver.setup(m) for m in (
            poisson2d(23), random_spd_csr(150, 0.05, seed=4))]
    else:
        seq = evolving_sequence("refine", nx=32, steps=3, seed=1)
        solver.setup(seq[0])
        hierarchies = [solver.setup(a, reuse=True, patch=kind == "patch")
                       for a in seq[1:]]
    return solver, hierarchies


class TestStoredTemplates:
    @pytest.mark.parametrize("kind", ["cold", "exact", "patch"])
    @pytest.mark.parametrize("precision", ["fp64", "mixed"])
    def test_setups_store_the_conversion_chains_templates(
        self, kind, precision, monkeypatch
    ):
        solver, hierarchies = _run_setups(kind, precision)
        with monkeypatch.context() as mp:
            _conversion_chain(mp)
            ref, ref_hierarchies = _run_setups(kind, precision)
        cache, ref_cache = solver.backend.setup_cache, ref.backend.setup_cache
        _assert_templates_same(cache._fill, ref_cache._fill)
        _assert_templates_same(cache._gather, ref_cache._gather)
        assert cache.stats.hits == ref_cache.stats.hits
        assert cache.stats.misses == ref_cache.stats.misses
        for h, want in zip(hierarchies, ref_hierarchies):
            for lvl, ref_lvl in zip(h.levels, want.levels):
                for name in ("a", "p", "r"):
                    if getattr(lvl, name) is not None:
                        _assert_csr_same(getattr(lvl, name),
                                         getattr(ref_lvl, name))
        for entry, ref_entry in zip(solver._wrapped, ref._wrapped):
            for op, w in entry.items():
                if w.mbsr is not None or ref_entry[op].mbsr is not None:
                    _assert_mbsr_same(w.mbsr, ref_entry[op].mbsr)
        assert [(r.kernel, r.phase, r.level, r.sim_time_us)
                for r in solver.perf.records] == [
            (r.kernel, r.phase, r.level, r.sim_time_us)
            for r in ref.perf.records]


# ----------------------------------------------------------------------
# Checked mode: derived twins stay under the conversion oracle
# ----------------------------------------------------------------------
def _drop_one_bit(twin: MBSRMatrix) -> MBSRMatrix:
    maps, vals = twin.blc_map.copy(), twin.blc_val.copy()
    m = int(maps[0])
    bit = m & -m
    maps[0] = m ^ bit
    slot = bit.bit_length() - 1
    vals[0, slot // BLOCK_SIZE, slot % BLOCK_SIZE] = 0.0
    return MBSRMatrix(twin.shape, twin.blc_ptr, twin.blc_idx, vals, maps,
                      _trusted=True)


class TestCheckedTwin:
    def test_verify_twin_rejects_dropped_bit(self):
        from repro.check import oracle

        csr = poisson2d(6)
        twin = csr_to_mbsr(csr)
        oracle.verify_twin(csr, twin)
        with pytest.raises(ContractViolation, match="lossless"):
            oracle.verify_twin(csr, _drop_one_bit(twin))

    def test_verify_twin_is_bytewise(self):
        """A twin that re-tiles losslessly but stores ``-0.0`` off its
        bitmap is not the conversion's bytes."""
        from repro.check import oracle

        csr = poisson2d(6)
        twin = csr_to_mbsr(csr)
        vals = twin.blc_val.copy()
        vals[~bitmap_to_mask(twin.blc_map)] = -0.0
        signed = MBSRMatrix(twin.shape, twin.blc_ptr, twin.blc_idx, vals,
                            twin.blc_map, _trusted=True)
        oracle.verify_conversion(csr, signed)
        with pytest.raises(ContractViolation, match="twin-bytewise"):
            oracle.verify_twin(csr, signed)

    def test_setup_with_dropped_twin_bit_raises(self, monkeypatch):
        from repro.kernels import setup_cache

        real = setup_cache.prune_twin

        def drop(mbsr, gather):
            twin, order, slots = real(mbsr, gather)
            return _drop_one_bit(twin), order, slots

        monkeypatch.setattr(setup_cache, "prune_twin", drop)
        with checked_region(), pytest.raises(ContractViolation,
                                             match="lossless"):
            BoomerAMG(AmgTBackend(A100)).setup(poisson2d(12))
