"""Low-level utilities shared across the AmgT reproduction.

The modules here deliberately mirror device-side primitives used by the
paper's CUDA kernels (prefix sums for ``BlcPtr`` construction, an
open-addressing hash table for the two-step symbolic SpGEMM) so that the
higher-level kernels can be written against the same building blocks the
GPU implementation uses.
"""

from repro.util.prefix_sum import exclusive_scan, inclusive_scan
from repro.util.hashing import HashTable
from repro.util.segops import (
    scatter_accumulate,
    segment_bitwise_or,
    segment_max,
    segment_sum,
)
from repro.util.validation import (
    check_1d,
    check_dtype,
    check_square,
    require,
)

__all__ = [
    "exclusive_scan",
    "inclusive_scan",
    "HashTable",
    "scatter_accumulate",
    "segment_bitwise_or",
    "segment_max",
    "segment_sum",
    "check_1d",
    "check_dtype",
    "check_square",
    "require",
]
