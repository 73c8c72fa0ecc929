"""Segmented reductions — the host-side scatter/accumulate engine.

Every kernel in this reproduction ends in the same dataflow the device
kernels end in: per-element contributions are reduced into their output
segment (a block-row of y, an output tile of C, a bin of a histogram).
numpy's literal translation of that step is ``np.add.at`` /
``np.bitwise_or.at`` — the *unbuffered* ufunc scatter path, which
processes one element per inner-loop iteration and is notoriously slow
(~100x slower than a vectorised reduction at typical sizes).  This module
replaces it with vectorised segmented reductions that are **bit-identical**
to the ``ufunc.at`` semantics, which the kernel regression tests rely on:

* ``np.bincount`` accumulates its (float64) weights sequentially in input
  order — exactly the rounding order of ``np.add.at`` on a zero-initialised
  float64 output.  This is the fast path for all float64 and all float32/
  float16-promoted-to-float64 sums.
* integer addition, ``bitwise_or`` and ``maximum`` are associative (ints
  wrap consistently), so ``ufunc.reduceat`` over stably-sorted segments
  reproduces ``ufunc.at`` exactly regardless of reduction order.
* float32/float16 accumulation rounds after every addition, and
  ``reduceat`` uses pairwise summation — *not* bit-identical.  For those
  dtypes a vectorised ragged-column sweep adds the k-th element of every
  segment per pass, reproducing the sequential per-slot rounding of
  ``np.add.at`` while staying O(max-segment-length) vectorised passes.

All functions take ``sorted_ids=True`` as a no-sort fast path: the SpGEMM
pair lists and the CSR->mBSR entry lists are already grouped by output
segment, so the stable sort the general path needs is free there.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segment_sum",
    "segment_bitwise_or",
    "segment_max",
    "scatter_accumulate",
]

_INDEX_DTYPE = np.int64


def _as_ids(segment_ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(segment_ids)
    if ids.ndim != 1:
        raise ValueError(f"segment_ids must be 1-D, got shape {ids.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError(f"segment_ids must be integers, got {ids.dtype}")
    return ids.astype(_INDEX_DTYPE, copy=False)


def _sort_by_segment(values, ids, sorted_ids):
    """Stable sort by segment id (preserving within-segment input order)."""
    if sorted_ids or ids.size == 0:
        return values, ids
    order = np.argsort(ids, kind="stable")
    return values[order], ids[order]


def _boundaries(sorted_ids_arr: np.ndarray) -> np.ndarray:
    """Start offset of each run of equal ids in a sorted id array."""
    bnd = np.empty(0, dtype=_INDEX_DTYPE)
    if sorted_ids_arr.size:
        change = np.ones(sorted_ids_arr.shape[0], dtype=bool)
        change[1:] = sorted_ids_arr[1:] != sorted_ids_arr[:-1]
        bnd = np.flatnonzero(change)
    return bnd


def _reduceat(ufunc, values, ids, num_segments, sorted_ids, out_dtype):
    """Associative segmented reduction via stable sort + ``ufunc.reduceat``."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=out_dtype)
    if ids.size == 0:
        return out
    values, ids = _sort_by_segment(values, ids, sorted_ids)
    bnd = _boundaries(ids)
    out[ids[bnd]] = ufunc.reduceat(values, bnd, axis=0)
    return out


def _ragged_sum(values, ids, num_segments, sorted_ids, out_dtype):
    """Sequentially-rounded float sum: one vectorised pass per segment rank.

    Pass k adds the k-th element of every segment into the output, so each
    output slot sees exactly the addition order (and hence the intermediate
    roundings) of ``np.add.at``.  Costs O(max segment length) passes; the
    kernels only hit this for float16/float32 accumulators, whose segments
    (tiles per block-row, pairs per output tile) are short.
    """
    out = np.zeros((num_segments,) + values.shape[1:], dtype=out_dtype)
    if ids.size == 0:
        return out
    values, ids = _sort_by_segment(values, ids, sorted_ids)
    bnd = _boundaries(ids)
    counts = np.diff(np.append(bnd, ids.shape[0]))
    seg_of_run = ids[bnd]
    for k in range(int(counts.max())):
        live = counts > k
        src = bnd[live] + k
        # One element per segment per pass: the fancy-index add is safe.
        out[seg_of_run[live]] += values[src].astype(out_dtype, copy=False)
    return out


def _bincount_sum(values, ids, num_segments, out_dtype):
    """float64-exact segmented sum via ``np.bincount``.

    bincount accumulates its weights as float64 in input order — the same
    sequential rounding ``np.add.at`` applies to a float64 output array —
    so no sort is needed even for unsorted ids.  Multi-component values
    (tile rows, whole tiles) flatten to per-(segment, component) bins.
    """
    ncomp = int(np.prod(values.shape[1:], dtype=np.int64)) if values.ndim > 1 else 1
    flat_ids = ids
    if ncomp != 1:
        flat_ids = (ids[:, None] * ncomp + np.arange(ncomp, dtype=_INDEX_DTYPE)).ravel()
    flat_vals = values.reshape(-1) if values.ndim > 1 else values
    summed = np.bincount(
        flat_ids, weights=flat_vals, minlength=num_segments * ncomp
    )
    return summed.astype(out_dtype, copy=False).reshape(
        (num_segments,) + values.shape[1:]
    )


def segment_sum(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    *,
    sorted_ids: bool = False,
) -> np.ndarray:
    """Sum *values* into *num_segments* buckets keyed by *segment_ids*.

    Bit-identical to ``out = np.zeros(...); np.add.at(out, segment_ids,
    values)`` for every dtype: float64 goes through ``np.bincount``
    (sequential float64 accumulation), integers through ``reduceat``
    (associative), float32/float16 through the ragged sequential sweep.
    Values may be multi-dimensional; the reduction runs over axis 0.
    """
    values = np.asarray(values)
    ids = _as_ids(segment_ids)
    if values.shape[:1] != ids.shape:
        raise ValueError(
            f"values (leading dim {values.shape[:1]}) and segment_ids "
            f"({ids.shape}) must align"
        )
    num_segments = int(num_segments)
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ValueError("segment id out of range")
    dt = values.dtype
    if dt == np.float64:
        return _bincount_sum(values, ids, num_segments, dt)
    if np.issubdtype(dt, np.integer) or dt == np.bool_:
        out_dtype = dt if dt != np.bool_ else np.bool_
        return _reduceat(np.add, values, ids, num_segments, sorted_ids, out_dtype)
    # float32/float16 round after every addition; complex and longdouble
    # have no exact bincount path either.  The ragged sweep reproduces the
    # sequential per-slot rounding for all of them.
    return _ragged_sum(values, ids, num_segments, sorted_ids, dt)


def segment_bitwise_or(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    *,
    sorted_ids: bool = False,
) -> np.ndarray:
    """OR *values* into segments — bit-identical to ``np.bitwise_or.at``."""
    values = np.asarray(values)
    if not (np.issubdtype(values.dtype, np.integer) or values.dtype == np.bool_):
        raise TypeError(f"bitwise_or needs integer values, got {values.dtype}")
    ids = _as_ids(segment_ids)
    if values.shape[:1] != ids.shape:
        raise ValueError("values and segment_ids must align")
    num_segments = int(num_segments)
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ValueError("segment id out of range")
    return _reduceat(
        np.bitwise_or, values, ids, num_segments, sorted_ids, values.dtype
    )


def segment_max(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    *,
    initial=0,
    sorted_ids: bool = False,
) -> np.ndarray:
    """Per-segment maximum, with empty segments holding *initial*.

    With the default ``initial=0`` this matches ``np.maximum.at`` into a
    zero-initialised output (maximum is associative, so ``reduceat`` is
    exact for every dtype).
    """
    values = np.asarray(values)
    ids = _as_ids(segment_ids)
    if values.shape[:1] != ids.shape:
        raise ValueError("values and segment_ids must align")
    num_segments = int(num_segments)
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ValueError("segment id out of range")
    out = np.full(
        (num_segments,) + values.shape[1:], initial, dtype=values.dtype
    )
    if ids.size == 0:
        return out
    values, ids = _sort_by_segment(values, ids, sorted_ids)
    bnd = _boundaries(ids)
    partial = np.maximum.reduceat(values, bnd, axis=0)
    seg = ids[bnd]
    out[seg] = np.maximum(out[seg], partial)
    return out


def scatter_accumulate(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    op: str = "add",
    *,
    sorted_ids: bool = False,
) -> np.ndarray:
    """Dispatcher replacing the ``zeros(...); ufunc.at(...)`` pattern.

    Returns the array that pattern would produce, picking the fastest
    bit-identical strategy per ``op``/dtype (see the per-op functions).
    ``op`` is one of ``'add'``, ``'or'``, ``'max'``.
    """
    if op == "add":
        return segment_sum(values, segment_ids, num_segments, sorted_ids=sorted_ids)
    if op == "or":
        return segment_bitwise_or(
            values, segment_ids, num_segments, sorted_ids=sorted_ids
        )
    if op == "max":
        return segment_max(values, segment_ids, num_segments, sorted_ids=sorted_ids)
    raise ValueError(f"unknown scatter op {op!r}")
