"""Open-addressing hash table mirroring the shared-memory table of Alg. 3.

The symbolic SpGEMM in AmgT allocates, per block-row of ``C``, a hash table
in GPU shared memory whose length depends on the bin of that block-row.  The
table supports two operations:

* *counting insert* (step 1): insert a key, report whether it was new, so the
  number of distinct column indices per block-row can be counted;
* *compress + sort* (step 2): extract the distinct keys in ascending order to
  write ``BlcCidC``.

:class:`HashTable` implements the same linear-probing behaviour on the host.
Batched helpers (:func:`distinct_count_per_segment`,
:func:`distinct_sorted_per_segment`) provide the vectorised equivalent used
by the production kernels, while the scalar class remains the executable
specification that the tests compare against.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.util.ordering import lexsort_pairs

__all__ = [
    "HashTable",
    "content_digest",
    "next_pow2",
    "distinct_count_per_segment",
    "distinct_sorted_per_segment",
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


def _segment_ids(segment_ptr: np.ndarray) -> np.ndarray:
    counts = np.diff(segment_ptr)
    return np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)


def distinct_count_per_segment(keys: np.ndarray, segment_ptr: np.ndarray) -> np.ndarray:
    """Vectorised step 1: number of distinct keys inside each segment.

    ``keys`` is the concatenation of per-segment key streams (non-negative,
    like the table's) delimited by ``segment_ptr`` (length ``nseg + 1``).  Equivalent to inserting every key
    of a segment into that segment's :class:`HashTable` and reading its size.
    """
    keys = np.asarray(keys, dtype=np.int64)
    segment_ptr = np.asarray(segment_ptr, dtype=np.int64)
    nseg = segment_ptr.shape[0] - 1
    if keys.shape[0] == 0:
        return np.zeros(nseg, dtype=np.int64)
    seg = _segment_ids(segment_ptr)
    order = lexsort_pairs(seg, keys, nseg, int(keys.max()) + 1)
    skeys = keys[order]
    sseg = seg[order]
    new = np.ones(skeys.shape[0], dtype=bool)
    new[1:] = (skeys[1:] != skeys[:-1]) | (sseg[1:] != sseg[:-1])
    return np.bincount(sseg[new], minlength=nseg).astype(np.int64)


def distinct_sorted_per_segment(
    keys: np.ndarray, segment_ptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised step 2: per-segment distinct keys, ascending.

    Returns ``(out_keys, out_ptr)`` where ``out_keys[out_ptr[i]:out_ptr[i+1]]``
    are the sorted distinct keys of segment ``i`` — exactly the
    compress-and-sort output of the per-row hash tables.
    """
    keys = np.asarray(keys, dtype=np.int64)
    segment_ptr = np.asarray(segment_ptr, dtype=np.int64)
    nseg = segment_ptr.shape[0] - 1
    if keys.shape[0] == 0:
        return keys[:0], np.zeros(nseg + 1, dtype=np.int64)
    seg = _segment_ids(segment_ptr)
    order = lexsort_pairs(seg, keys, nseg, int(keys.max()) + 1)
    skeys = keys[order]
    sseg = seg[order]
    new = np.ones(skeys.shape[0], dtype=bool)
    new[1:] = (skeys[1:] != skeys[:-1]) | (sseg[1:] != sseg[:-1])
    out_keys = skeys[new]
    counts = np.bincount(sseg[new], minlength=nseg).astype(np.int64)
    out_ptr = np.zeros(nseg + 1, dtype=np.int64)
    np.cumsum(counts, out=out_ptr[1:])
    return out_keys, out_ptr
