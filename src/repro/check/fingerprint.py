"""Compact operand fingerprints and per-row digests.

A fingerprint is a short, stable string identifying an operand well enough
to reproduce a failure: type, shape, nnz, dtype and a truncated content
hash over the defining arrays.  Hashing is only performed when a violation
is being reported (never on the hot path), so cost does not matter there.

The *per-row* digests are different: they feed the incremental setup
patcher, which diffs an evolving operator against a cached hierarchy row
by row, so they must be cheap.  :func:`row_digests` computes one ``uint64``
Zobrist-style hash per row (or per mBSR block-row) in a handful of
vectorised passes: every entry is mixed with its position inside the row
(splitmix64 finaliser), the mixed words are XOR-reduced per row, and the
row length is folded into the result.  Position mixing makes permutations
of a row hash differently; XOR keeps the reduction segment-parallel.  Two
rows collide with probability ~2^-64 — the whole-matrix key defends in
depth by SHA-1 hashing the row-digest *array* (the matrix key is the
digest of the per-row digests), so a single-row collision would also have
to survive the matrix-level hash to go unnoticed.
"""

from __future__ import annotations

import numpy as np

from repro.util.hashing import content_digest
from repro.util.prefix_sum import counts_to_ptr

__all__ = [
    "fingerprint",
    "pattern_fingerprint",
    "row_digests",
    "csr_block_row_digests",
    "splice_row_digests",
    "diff_rows",
]

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_POS = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio position salt
_LEN = np.uint64(0xD6E8FEB86659FD93)  # row-length salt


def _digest(*arrays: np.ndarray) -> str:
    return content_digest(*arrays, length=10)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser, vectorised (wraps mod 2^64 like the scalar)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


def _segment_xor(values: np.ndarray, row_ptr: np.ndarray) -> np.ndarray:
    """XOR-reduce ``values`` over the segments delimited by ``row_ptr``."""
    nrows = row_ptr.shape[0] - 1
    out = np.zeros(nrows, dtype=np.uint64)
    if values.shape[0] == 0:
        return out
    # Prefix-XOR then difference at segment boundaries: xor[a:b] =
    # prefix[b] ^ prefix[a].  One pass, no Python-level row loop.
    prefix = np.zeros(values.shape[0] + 1, dtype=np.uint64)
    np.bitwise_xor.accumulate(values, out=prefix[1:])
    return prefix[row_ptr[1:]] ^ prefix[row_ptr[:-1]]


def _positions_within(row_ptr: np.ndarray, total: int) -> np.ndarray:
    counts = np.diff(row_ptr)
    starts = np.repeat(row_ptr[:-1], counts)
    return np.arange(total, dtype=np.uint64) - starts.astype(np.uint64)


def _rows_from_entries(
    entry_words: np.ndarray, row_ptr: np.ndarray
) -> np.ndarray:
    """Per-row digest from per-entry words: position-mix, XOR, length-mix."""
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    pos = _positions_within(row_ptr, entry_words.shape[0])
    mixed = _mix64(entry_words ^ _mix64(pos * _POS))
    acc = _segment_xor(mixed, row_ptr)
    lens = np.diff(row_ptr).astype(np.uint64)
    return _mix64(acc ^ (lens * _LEN))


def _as_words(arr: np.ndarray) -> np.ndarray:
    """Reinterpret an array's element bytes as uint64 words (pads dtype)."""
    a = np.ascontiguousarray(arr)
    if a.dtype.itemsize == 8:
        return a.view(np.uint64).reshape(a.shape)
    return a.astype(np.int64).view(np.uint64)


def row_digests(obj, *, values: bool = False, memoise: bool = True) -> np.ndarray:
    """One ``uint64`` digest per row (CSR) or per block-row (mBSR).

    With ``values=False`` only the sparsity structure of each row is
    hashed (column indices and, for mBSR, tile bitmaps); with
    ``values=True`` the stored values are folded in as raw float bits, so
    digests compare bytewise — ``-0.0`` and ``0.0`` hash differently, NaNs
    hash by payload.  Rows at equal index in two matrices of the same
    shape hash equal iff they are identical (modulo 64-bit collisions),
    which is what the incremental patcher diffs.

    CSR digests are memoised on the matrix; ``memoise=False`` neither
    reads nor fills the memo, for a caller-owned matrix whose arrays may
    be updated in place between calls.
    """
    from repro.formats.csr import CSRMatrix
    from repro.formats.mbsr import MBSRMatrix

    if isinstance(obj, CSRMatrix):
        memo = obj.__dict__.setdefault("_row_digest_memo", {}) if memoise else {}
        if values not in memo:
            words = _as_words(obj.indices)
            if values:
                words = _mix64(words) ^ _as_words(obj.data)
            out = _rows_from_entries(words, obj.indptr)
            out.setflags(write=False)
            memo[values] = out
        return memo[values]
    if isinstance(obj, MBSRMatrix):
        words = _mix64(_as_words(obj.blc_idx)) ^ _as_words(
            obj.blc_map.astype(np.int64)
        )
        if values:
            # Fold the 16 value lanes of each tile in lane order.
            lanes = _as_words(obj.blc_val).reshape(obj.blc_num, 16)
            lane_pos = np.arange(16, dtype=np.uint64) * _POS
            words = words ^ np.bitwise_xor.reduce(
                _mix64(lanes ^ _mix64(lane_pos[None, :])), axis=1
            )
        return _rows_from_entries(words, obj.blc_ptr)
    raise TypeError(
        f"row_digests expects a CSR or mBSR matrix, got {type(obj).__name__}"
    )


def splice_row_digests(out, base, rows: np.ndarray, sub=None) -> None:
    """Seed *out*'s CSR digest memo from *base*'s without a full pass.

    *out* must hold *base*'s rows everywhere except the sorted *rows*,
    which hold the rows of *sub* (default ``out.extract_rows(rows)``).  A
    row's digest depends on that row alone, so every digest *base* has
    memoised carries over with the given rows rehashed — exactly what a
    fresh :func:`row_digests` of *out* would compute, and with it
    *out*'s pattern key.
    """
    memo = base.__dict__.get("_row_digest_memo")
    if not memo or out.shape != base.shape:
        return
    if sub is None:
        sub = out.extract_rows(rows)
    seeded = out.__dict__.setdefault("_row_digest_memo", {})
    for values, digests in memo.items():
        spliced = digests.copy()
        spliced[rows] = row_digests(sub, values=values, memoise=False)
        spliced.setflags(write=False)
        seeded.setdefault(values, spliced)


def csr_block_row_digests(csr, *, values: bool = False) -> np.ndarray:
    """Per-*block-row* digests of a CSR matrix (groups of 4 scalar rows).

    The patcher works at mBSR block-row granularity; this folds each
    aligned group of 4 scalar-row digests (zero-padded at the tail) into
    one word so CSR-level diffs land directly on block rows.
    """
    scalar = row_digests(csr, values=values)
    mb = -(-csr.nrows // 4)
    padded = np.zeros(mb * 4, dtype=np.uint64)
    padded[: scalar.shape[0]] = scalar
    ptr = counts_to_ptr(np.full(mb, 4, dtype=np.int64))
    return _rows_from_entries(padded, ptr)


def diff_rows(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Indices of rows whose digests differ (shape mismatch → all rows)."""
    old = np.asarray(old, dtype=np.uint64)
    new = np.asarray(new, dtype=np.uint64)
    if old.shape != new.shape:
        return np.arange(new.shape[0], dtype=np.int64)
    return np.flatnonzero(old != new).astype(np.int64)


def pattern_fingerprint(obj) -> str:
    """Digest of an operand's *sparsity structure only* (values excluded).

    Two matrices share a pattern fingerprint iff their shapes and index
    arrays (and, for mBSR, tile bitmaps) are identical — exactly the
    condition under which a captured SpGEMM plan, conversion template or
    AMG hierarchy structure can be replayed against new values.  Unlike
    :func:`fingerprint` this is used on the setup hot path (once per
    operator, cached by the owners), so it returns the bare digest with
    no decoration.

    The key is the SHA-1 digest of the shape plus the :func:`row_digests`
    array, so per-row diffing and whole-matrix keying share one hash pass
    and a matrix key can be patched incrementally from per-row digests.
    """
    from repro.formats.csr import CSRMatrix
    from repro.formats.mbsr import MBSRMatrix

    if isinstance(obj, (CSRMatrix, MBSRMatrix)):
        shape = np.asarray(obj.shape, dtype=np.int64)
        return content_digest(shape, row_digests(obj))
    raise TypeError(
        f"pattern_fingerprint expects a CSR or mBSR matrix, got {type(obj).__name__}"
    )


def fingerprint(obj) -> str:
    """Return a short identifying string for *obj* (matrix, vector, plan)."""
    # Imported lazily: this module must stay importable without the format
    # layers (and without creating import cycles).
    from repro.formats.csr import CSRMatrix
    from repro.formats.mbsr import MBSRMatrix

    if isinstance(obj, MBSRMatrix):
        return (
            f"mbsr{obj.shape}[tiles={obj.blc_num} nnz={obj.nnz} "
            f"dtype={obj.dtype} h={_digest(obj.blc_ptr, obj.blc_idx, obj.blc_val, obj.blc_map)}]"
        )
    if isinstance(obj, CSRMatrix):
        return (
            f"csr{obj.shape}[nnz={obj.nnz} dtype={obj.dtype} "
            f"h={_digest(obj.indptr, obj.indices, obj.data)}]"
        )
    if isinstance(obj, np.ndarray):
        return f"ndarray{obj.shape}[dtype={obj.dtype} h={_digest(obj)}]"
    if hasattr(obj, "value"):  # Precision and other enums
        return str(obj.value)
    return repr(obj)
