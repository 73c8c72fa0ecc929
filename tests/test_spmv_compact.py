"""Equivalence suite for the compact host tile contraction.

``kernels/spmv.py::TilePasses`` runs only the nonzero slots of each tile
row: pass 1 holds the rows with two or more of them (a full pair first,
two half-rows for a full tile row), the reduction reads those sums or a
single slot's ``t_j * x_j`` in tile order.  These tests pin it against
test-local references on operators whose tile rows hold 0–4 nonzeros,
explicit zeros, values that underflow to zero in FP16 and infinities:

* every candidate pairing against an elementwise
  ``(p_a + p_b) + (p_c + p_d)`` with an in-order reduction, for x with
  ``±0`` and subnormals (finite after quantisation, so the compact route);
* non-finite x, including values that overflow only in FP16, against the
  probed pairing's reference, through the dense route;
* panel widths 1, 3 and 16, column for column against width 1;
* one order-sensitive three-term row, which holds only if scipy sums the
  stored, non-sorted order.

Results must agree bit for bit on finite entries (zero signs included)
and by position on NaN.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.bitmap import BLOCK_SIZE, bitmap_from_dense
from repro.formats.mbsr import MBSRMatrix
from repro.gpu.counters import Precision
from repro.kernels.cache import widened_tiles
from repro.kernels.spmv import _PAIRINGS, TilePasses, slot_pairing

pytestmark = [
    pytest.mark.contract,
    # inf tile values meet zeros and opposite infinities by design.
    pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning",
        "ignore:invalid value encountered:RuntimeWarning",
    ),
]

PRECISIONS = [Precision.FP64, Precision.FP32, Precision.FP16]


def _assert_same_bits(y, ref):
    """Bit-for-bit equality on finite entries (zero signs included);
    non-finite entries must match as values, NaN by position."""
    assert y.dtype == ref.dtype and y.shape == ref.shape
    assert np.array_equal(y, ref, equal_nan=True)
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(np.signbit(y[finite]), np.signbit(ref[finite]))


def _operator(seed: int, mb: int, nb: int, cut_rows: int, cut_cols: int,
              density: float) -> MBSRMatrix:
    """An mBSR operator whose tile rows hold 0–4 stored slots, each a
    wide-magnitude normal, an explicit ``±0``, a value below FP16's
    smallest subnormal or ``±inf``; padding rows and columns stay empty."""
    rng = np.random.default_rng(seed)
    nrows, ncols = BLOCK_SIZE * mb - cut_rows, BLOCK_SIZE * nb - cut_cols
    pattern = rng.random((mb, nb)) < density
    brow, bcol = np.nonzero(pattern)
    blc = brow.shape[0]
    stored = np.zeros((blc, BLOCK_SIZE, BLOCK_SIZE), dtype=bool)
    per_row = rng.integers(0, BLOCK_SIZE + 1, size=(blc, BLOCK_SIZE))
    for t in range(blc):
        for i in range(BLOCK_SIZE):
            slots = rng.permutation(BLOCK_SIZE)[: per_row[t, i]]
            stored[t, i, slots] = True
    rows = BLOCK_SIZE * brow[:, None] + np.arange(BLOCK_SIZE)
    cols = BLOCK_SIZE * bcol[:, None] + np.arange(BLOCK_SIZE)
    stored &= (rows < nrows)[:, :, None] & (cols < ncols)[:, None, :]
    kind = rng.choice(4, size=stored.shape, p=[0.6, 0.15, 0.15, 0.1])
    sign = np.where(rng.random(stored.shape) < 0.5, -1.0, 1.0)
    vals = np.select(
        [kind == 0, kind == 1, kind == 2],
        [rng.normal(size=stored.shape) * 10.0 ** rng.uniform(-6, 6, stored.shape),
         sign * 0.0, sign * 10.0 ** rng.uniform(-12, -9, stored.shape)],
        sign * np.inf,
    )
    vals = np.where(stored, vals, 0.0)
    keep = stored.any(axis=(1, 2))
    blc_ptr = np.concatenate(([0], np.cumsum(np.bincount(brow[keep], minlength=mb))))
    return MBSRMatrix((nrows, ncols), blc_ptr, bcol[keep], vals[keep],
                      bitmap_from_dense(stored[keep]))


def _finite_x(rng, shape, in_dtype) -> np.ndarray:
    """x finite after quantisation to *in_dtype*: wide-magnitude normals,
    ``±0`` and subnormals of the input dtype."""
    kind = rng.choice(3, size=shape, p=[0.7, 0.15, 0.15])
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    tiny = float(np.finfo(in_dtype).smallest_subnormal)
    normal = np.clip(rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 4, shape),
                     -6e4, 6e4)
    return np.select([kind == 0, kind == 1],
                     [normal, sign * 0.0],
                     sign * tiny * rng.integers(1, 1000, shape))


def _reference(mat: MBSRMatrix, x: np.ndarray, precision: Precision,
               pairing) -> np.ndarray:
    """``(p_a + p_b) + (p_c + p_d)`` per tile row, elementwise, then each
    output row's contributions added in tile order from ``+0.0``."""
    in_dtype, acc = precision.np_dtype, precision.accum_dtype
    tiles = mat.blc_val.astype(in_dtype).astype(acc)
    xp = np.zeros(mat.nb * BLOCK_SIZE, dtype=acc)
    xp[: mat.ncols] = x.astype(in_dtype)
    prod = tiles * xp.reshape(-1, BLOCK_SIZE)[mat.blc_idx][:, None, :]
    a, b, c, d = pairing
    contrib = (prod[..., a] + prod[..., b]) + (prod[..., c] + prod[..., d])
    y = np.zeros((mat.mb, BLOCK_SIZE), dtype=acc)
    brow = np.repeat(np.arange(mat.mb), np.diff(mat.blc_ptr))
    for t, br in enumerate(brow):
        y[br] = y[br] + contrib[t]
    return y.reshape(-1)[: mat.nrows]


def _passes(mat: MBSRMatrix, precision: Precision, pairing) -> TilePasses:
    key = (precision.np_dtype, precision.accum_dtype)
    return TilePasses(mat, widened_tiles(mat.blc_val, *key), *key, pairing)


operators = st.builds(
    _operator,
    seed=st.integers(0, 2**32 - 1),
    mb=st.integers(1, 5),
    nb=st.integers(1, 5),
    cut_rows=st.integers(0, BLOCK_SIZE - 1),
    cut_cols=st.integers(0, BLOCK_SIZE - 1),
    density=st.sampled_from([0.3, 0.7, 1.0]),
)


@settings(deadline=None, max_examples=40)
@given(mat=operators, seed=st.integers(0, 2**32 - 1))
def test_every_pairing_matches_elementwise_reference(mat, seed):
    rng = np.random.default_rng(seed)
    for precision in PRECISIONS:
        x = _finite_x(rng, mat.ncols, precision.np_dtype)
        for pairing in _PAIRINGS:
            passes = _passes(mat, precision, pairing)
            _assert_same_bits(passes(x), _reference(mat, x, precision, pairing))
            assert passes.dense is None, "a finite x took the dense route"
        _assert_layout(mat, precision, passes)


def _assert_layout(mat: MBSRMatrix, precision: Precision,
                   passes: TilePasses) -> None:
    """Pass 1 stores each nonzero of a tile row with two or more, plus one
    identity row per x entry a single-slot row reads; the reduction one
    entry per nonempty tile row.  Rows past ``nrows`` drop out."""
    brow = np.repeat(np.arange(mat.mb), np.diff(mat.blc_ptr))
    on_output = (BLOCK_SIZE * brow[:, None] + np.arange(BLOCK_SIZE)) < mat.nrows
    nonzero = mat.blc_val.astype(precision.np_dtype) != 0
    counts = np.where(on_output, nonzero.sum(axis=2), 0)
    tile, row = np.nonzero(counts == 1)
    slot = nonzero[tile, row].argmax(axis=1)
    identity = np.unique(BLOCK_SIZE * mat.blc_idx[tile] + slot).shape[0]
    full, mid = np.count_nonzero(counts == 4), np.count_nonzero((counts == 2) | (counts == 3))
    assert passes.full_rows == full
    assert passes.pass1.shape[0] == 2 * full + mid + identity
    assert passes.pass1.nnz == counts[counts >= 2].sum() + identity
    assert passes.reduce.nnz == np.count_nonzero(counts)


@settings(deadline=None, max_examples=25)
@given(mat=operators, seed=st.integers(0, 2**32 - 1))
def test_nonfinite_x_takes_the_dense_route(mat, seed):
    """inf/NaN in x, and finite values that overflow only in FP16, reach
    the outputs the dense tile product sends them to (``0 * inf`` gives
    NaN there, so no zero slot may be skipped)."""
    rng = np.random.default_rng(seed)
    for precision in PRECISIONS:
        pairing = slot_pairing(precision.accum_dtype)
        if pairing is None:
            continue  # the matmul contraction is the only route
        for poison in (np.inf, -np.inf, np.nan, 7e4):
            if poison == 7e4 and precision is not Precision.FP16:
                continue
            x = _finite_x(rng, mat.ncols, precision.np_dtype)
            x[rng.integers(0, mat.ncols)] = poison
            passes = _passes(mat, precision, pairing)
            _assert_same_bits(passes(x), _reference(mat, x, precision, pairing))
            assert passes.dense is not None, f"x holding {poison} skipped zero slots"


@settings(deadline=None, max_examples=15)
@given(mat=operators, seed=st.integers(0, 2**32 - 1),
       nonfinite=st.booleans())
def test_panel_columns_equal_width_one(mat, seed, nonfinite):
    """Widths 1, 3 and 16: each column equals the width-1 call on it,
    also when one non-finite column sends the whole panel dense."""
    rng = np.random.default_rng(seed)
    for precision in PRECISIONS:
        passes = _passes(mat, precision, slot_pairing(precision.accum_dtype))
        for width in (1, 3, 16):
            x = _finite_x(rng, (mat.ncols, width), precision.np_dtype)
            if nonfinite:
                x[0, -1] = np.nan
            y = passes(x)
            assert y.shape == (mat.nrows, width)
            for j in range(width):
                _assert_same_bits(y[:, j], passes(np.ascontiguousarray(x[:, j])))
            # The tape's row panels arrive transposed (F-ordered).
            _assert_same_bits(passes(np.ascontiguousarray(x.T).T), y)


def test_three_term_row_sums_in_stored_order():
    """Pairing (0, 2 | 1, 3) stores the row with slots {0, 1, 2} as
    columns 0, 2, 1: ``((0 + 1e16) - 1e16) + 1 = 1``.  Summed in sorted
    column order it would read ``(1e16 + 1) - 1e16 = 0``."""
    tiles = np.zeros((1, BLOCK_SIZE, BLOCK_SIZE))
    tiles[0, 0, :3] = (1e16, 1.0, -1e16)
    mat = MBSRMatrix((BLOCK_SIZE, BLOCK_SIZE), [0, 1], [0], tiles,
                     bitmap_from_dense(tiles))
    passes = _passes(mat, Precision.FP64, (0, 2, 1, 3))
    assert passes.pass1.indices[:3].tolist() == [0, 2, 1]
    assert not passes.pass1.has_sorted_indices
    x = np.ones(BLOCK_SIZE)
    ref = _reference(mat, x, Precision.FP64, (0, 2, 1, 3))
    assert ref[0] == 1.0
    _assert_same_bits(passes(x), ref)
    _assert_same_bits(passes(np.ones((BLOCK_SIZE, 3)))[:, 1], ref)
