"""Work counters for simulated kernels.

Every simulated kernel call records the operations a GPU would have issued:
matrix-unit MMA instructions per precision, scalar flops per precision, and
bytes moved through global memory.  The counters also carry a *load
imbalance* factor (max over warps / mean over warps of the per-warp work)
so the cost model can penalise unbalanced schedules — the effect AmgT's
load-balanced SpMV removes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Precision", "KernelCounters", "MMA_FLOPS"]


class Precision(enum.Enum):
    """Floating point precisions of the AmgT data flow."""

    FP64 = "fp64"
    FP32 = "fp32"
    FP16 = "fp16"

    @property
    def itemsize(self) -> int:
        return {"fp64": 8, "fp32": 4, "fp16": 2}[self.value]

    @property
    def np_dtype(self):
        import numpy as np

        return {"fp64": np.float64, "fp32": np.float32, "fp16": np.float16}[self.value]

    @property
    def accum_dtype(self):
        """Accumulator dtype: tensor cores accumulate FP16 in FP32."""
        import numpy as np

        return {"fp64": np.float64, "fp32": np.float32, "fp16": np.float32}[self.value]


#: Flops performed by one 8x8x4 MMA: 8*8*4 multiply-adds = 512 flops.
MMA_FLOPS = 2 * 8 * 8 * 4

#: Instruction-pipeline overhead of the thread-level (CUDA-core) paths of
#: the AmgT kernels: each useful FMA there is surrounded by bitmap bit
#: tests, index arithmetic and divergent branches, so it retires ~3 issue
#: slots per flop pair.  The MMA path amortises all of that into one
#: instruction per 8x8x4 product — which is why dense tiles favour tensor
#: cores even at FP64's modest 2x rate advantage, and why the popcount
#: threshold of 10 sits near the cost crossover (the Alg. 4 design point).
SCALAR_PIPELINE_OVERHEAD = 3.0

#: Memory-transaction overhead of the thread-level paths' scattered value
#: gathers: loads driven by bitmap bit positions touch whole 32-byte
#: sectors, so a sparse tile's values cost ~2x their raw bytes.  The MMA
#: path streams whole tiles with coalesced dense loads (factor 1) — the
#: second half of why dense tiles belong on tensor cores: above ~8
#: nonzeros per tile, loading the full 16-slot tile coalesced is cheaper
#: than gathering the set slots.
SCALAR_GATHER_OVERHEAD = 2.0

#: Effective-bandwidth fraction reached by narrow loads.  Sub-word (FP32 /
#: FP16) accesses in irregular sparse kernels do not realise the full 2x /
#: 4x traffic reduction: gathers stay transaction-granular and half-word
#: atomics serialise, so the effective bandwidth drops.  This derating is
#: what keeps the mixed-precision gains in the modest range the paper
#: measures (Sec. V.C) rather than the naive bytes/2 prediction.
SUBWORD_BANDWIDTH_EFFICIENCY = {8: 1.0, 4: 0.75, 2: 0.55}


def effective_value_bytes(raw_bytes: float, itemsize: int) -> float:
    """Charge *raw_bytes* of value traffic at the sub-word derated rate."""
    return raw_bytes / SUBWORD_BANDWIDTH_EFFICIENCY.get(int(itemsize), 1.0)


_PRECISIONS = tuple(Precision)


def _zero_prec_dict() -> dict[Precision, float]:
    return dict.fromkeys(_PRECISIONS, 0.0)


@dataclass
class KernelCounters:
    """Operation counts of one (or several merged) simulated kernel calls."""

    #: Number of MMA instructions issued per precision.
    mma_issues: dict[Precision, float] = field(default_factory=_zero_prec_dict)
    #: Scalar (CUDA-core) flops per precision.
    scalar_flops: dict[Precision, float] = field(default_factory=_zero_prec_dict)
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    #: Number of kernel launches represented by this record.
    launches: int = 0
    #: max(per-warp work) / mean(per-warp work); 1.0 = perfectly balanced.
    imbalance: float = 1.0

    def add_mma(self, prec: Precision, issues: float) -> None:
        self.mma_issues[prec] += issues

    def add_flops(self, prec: Precision, flops: float) -> None:
        self.scalar_flops[prec] += flops

    def add_bytes(self, read: float = 0.0, written: float = 0.0) -> None:
        self.bytes_read += read
        self.bytes_written += written

    def merge(self, other: "KernelCounters") -> "KernelCounters":
        """Accumulate *other* into self (imbalance: work-weighted max)."""
        for p in _PRECISIONS:
            self.mma_issues[p] += other.mma_issues[p]
            self.scalar_flops[p] += other.scalar_flops[p]
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.launches += other.launches
        self.imbalance = max(self.imbalance, other.imbalance)
        return self

    @property
    def total_mma(self) -> float:
        return sum(self.mma_issues.values())

    @property
    def total_scalar_flops(self) -> float:
        return sum(self.scalar_flops.values())

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written

    def copy(self) -> "KernelCounters":
        out = KernelCounters()
        out.merge(self)
        out.launches = self.launches
        out.imbalance = self.imbalance
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mma = {p.value: v for p, v in self.mma_issues.items() if v}
        fl = {p.value: v for p, v in self.scalar_flops.items() if v}
        return (
            f"KernelCounters(mma={mma}, flops={fl}, "
            f"read={self.bytes_read:.0f}B, written={self.bytes_written:.0f}B, "
            f"launches={self.launches}, imbalance={self.imbalance:.2f})"
        )
