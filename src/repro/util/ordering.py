"""Two-key integer ordering without ``np.lexsort``.

Every canonical-order step of the setup data flow — CSR construction
(row, column), the symbolic SpGEMM's output-tile order (block-row,
block-column), the blockwise transpose (block-column, block-row) — orders
entries by a pair of bounded non-negative integers.  ``np.lexsort`` does
that with one stable pass per key and is pathologically slow on input that
is already in order, which most setup builds pass (``eliminate_zeros``,
``extract_cols``, interpolation filters).  Fusing the pair into one int64
key ``major * minor_extent + minor`` and running a single stable argsort
(timsort on int64: linear on presorted runs) yields exactly the same
permutation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lexsort_pairs"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def lexsort_pairs(
    major: np.ndarray, minor: np.ndarray, major_extent: int, minor_extent: int
) -> np.ndarray:
    """Stable permutation ordering entries by ``(major, minor)``.

    Returns exactly ``np.lexsort((minor, major))``: entries sorted by
    *major*, then *minor*, equal pairs keeping their input order.  Requires
    ``0 <= major < major_extent`` and ``0 <= minor < minor_extent``; shapes
    whose fused key could overflow int64 fall back to ``np.lexsort``.
    """
    major = np.asarray(major, dtype=np.int64)
    minor = np.asarray(minor, dtype=np.int64)
    if int(major_extent) * int(minor_extent) > _INT64_MAX:
        return np.lexsort((minor, major))
    return np.argsort(major * int(minor_extent) + minor, kind="stable")
