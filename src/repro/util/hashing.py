"""Open-addressing hash table mirroring the shared-memory table of Alg. 3.

The symbolic SpGEMM in AmgT allocates, per block-row of ``C``, a hash table
in GPU shared memory whose length depends on the bin of that block-row.  The
table supports two operations:

* *counting insert* (step 1): insert a key, report whether it was new, so the
  number of distinct column indices per block-row can be counted;
* *compress + sort* (step 2): extract the distinct keys in ascending order to
  write ``BlcCidC``.

:class:`HashTable` implements the same linear-probing behaviour on the host
and stays the executable specification the tests compare against.  The
production kernels use :func:`distinct_per_segment` instead: one stable
ordering of all (segment, key) entries yields both steps at once — the
per-segment distinct counts and the sorted distinct keys — together with
the entries that land on each distinct key, which is what the numeric
phase of a product reduces over.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np

from repro.util.ordering import lexsort_pairs
from repro.util.prefix_sum import counts_to_ptr

__all__ = [
    "HashTable",
    "SegmentedDistinct",
    "content_digest",
    "next_pow2",
    "distinct_per_segment",
]


def content_digest(*arrays: np.ndarray, length: int = 16) -> str:
    """Stable hex digest over the dtype, shape and bytes of *arrays*.

    This is the one content-hashing primitive of the tree: the contract
    checker truncates it into operand fingerprints, and the setup-phase
    plan cache uses it to key SpGEMM plans and conversion templates by
    sparsity pattern.  Two arrays hash equal iff they are bytewise equal
    with the same dtype and shape.
    """
    h = hashlib.sha1()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:length]

_EMPTY = -1


def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    n = max(int(n), 1)
    return 1 << (n - 1).bit_length()


class HashTable:
    """Linear-probing hash set of non-negative int keys of fixed capacity.

    Capacity is rounded up to a power of two so the probe step can use a
    bitmask, like the shared-memory tables in the CUDA kernel.  The table
    intentionally has no resizing: the SpGEMM binning pass guarantees the
    table is large enough for its block-row, and an overfull table raises.
    """

    __slots__ = ("capacity", "_mask", "_slots", "size")

    def __init__(self, capacity: int):
        self.capacity = next_pow2(capacity)
        self._mask = self.capacity - 1
        self._slots = np.full(self.capacity, _EMPTY, dtype=np.int64)
        self.size = 0

    def insert(self, key: int) -> bool:
        """Insert *key*; return ``True`` when the key was not yet present."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        if self.size >= self.capacity:
            raise RuntimeError("hash table full — binning pass undersized it")
        slot = (key * 0x9E3779B1) & self._mask
        while True:
            cur = self._slots[slot]
            if cur == _EMPTY:
                self._slots[slot] = key
                self.size += 1
                return True
            if cur == key:
                return False
            slot = (slot + 1) & self._mask

    def __contains__(self, key: int) -> bool:
        slot = (key * 0x9E3779B1) & self._mask
        for _ in range(self.capacity):
            cur = self._slots[slot]
            if cur == _EMPTY:
                return False
            if cur == key:
                return True
            slot = (slot + 1) & self._mask
        return False

    def __len__(self) -> int:
        return self.size

    def compress_sorted(self) -> np.ndarray:
        """Step 2 of Alg. 3: compact occupied slots and sort ascending."""
        keys = self._slots[self._slots != _EMPTY]
        return np.sort(keys)


class SegmentedDistinct(NamedTuple):
    """Distinct keys per segment and the entries behind each of them."""

    #: Stable permutation grouping the entries by ``(segment, key)``;
    #: entries with equal pairs keep their input order.
    order: np.ndarray
    #: ``order[entry_ptr[d]:entry_ptr[d + 1]]`` are the entries that carry
    #: distinct key ``d`` (length ``len(keys) + 1``).
    entry_ptr: np.ndarray
    #: The distinct keys, ascending within each segment — the concatenated
    #: :meth:`HashTable.compress_sorted` outputs.
    keys: np.ndarray
    #: ``keys[ptr[s]:ptr[s + 1]]`` belong to segment ``s``; ``diff(ptr)``
    #: are the per-segment :class:`HashTable` sizes.
    ptr: np.ndarray


def distinct_per_segment(
    segment_ids: np.ndarray,
    keys: np.ndarray,
    num_segments: int,
    key_extent: int,
) -> SegmentedDistinct:
    """Both hash-table steps for every segment, from one stable ordering.

    Entry ``e`` inserts ``keys[e]`` (``0 <= key < key_extent``) into the
    table of segment ``segment_ids[e]`` (``0 <= id < num_segments``).  The
    result equals inserting every entry into its segment's
    :class:`HashTable` and compressing each table, and additionally tells,
    per distinct key, which entries produced it.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.shape[0]
    order = lexsort_pairs(segment_ids, keys, num_segments, key_extent)
    sseg = segment_ids[order]
    skeys = keys[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (skeys[1:] != skeys[:-1]) | (sseg[1:] != sseg[:-1])
    starts = np.flatnonzero(new)
    return SegmentedDistinct(
        order=order,
        entry_ptr=np.append(starts, n),
        keys=skeys[starts],
        ptr=counts_to_ptr(np.bincount(sseg[starts], minlength=num_segments)),
    )
