"""Roofline attribution: where the machine model says time and bytes go.

The kernels record what they did (:class:`~repro.gpu.counters.KernelCounters`
bytes / scalar flops / MMA issues per precision) and the cost model prices
it (:mod:`repro.gpu.cost`).  :func:`attribute_log` folds the priced
:class:`~repro.kernels.record.KernelRecord`\\ s of a
:class:`~repro.perf.timeline.PerformanceLog` into per-(kernel, phase,
backend, precision, class, *level*) *attribution records* — arithmetic
intensity, memory- vs compute-bound classification against the device
roofline, achieved fraction of peak, and the tensor-core vs scalar-core
flop split.  It is the one attribution and per-level table: ``repro obs
roofline`` prints it and every bench payload embeds it.

Attribution is exact by construction: every byte / flop / MMA issue of a
cell is the merged per-precision counters of its records, and
:func:`totals` sums the cells with :func:`math.fsum`, so the roll-up
equals the sum over the records (asserted in tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.cost import CostModel
from repro.gpu.counters import KernelCounters, MMA_FLOPS
from repro.gpu.specs import DeviceSpec, get_device

__all__ = [
    "AttributionRecord",
    "attribute_log",
    "totals",
    "roofline_payload",
    "format_roofline",
]


@dataclass(frozen=True)
class AttributionRecord:
    """One (kernel, phase, backend, precision, class, level) cell of the
    roofline breakdown."""

    kernel: str
    phase: str
    backend: str
    precision: str
    kernel_class: str
    level: int
    calls: float
    sim_us: float
    bytes_read: float
    bytes_written: float
    mma_issues: float
    scalar_flops: float
    #: Model time at *peak* (sustained fraction 1.0, no launch overhead,
    #: no imbalance) — the roofline the achieved time is measured against.
    peak_compute_us: float
    peak_memory_us: float

    # -- derived ---------------------------------------------------------
    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def mma_flops(self) -> float:
        return self.mma_issues * MMA_FLOPS

    @property
    def total_flops(self) -> float:
        return self.mma_flops + self.scalar_flops

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte moved (the roofline x-axis)."""
        return self.total_flops / self.total_bytes if self.total_bytes else 0.0

    @property
    def tc_fraction(self) -> float:
        """Share of the flops issued on the tensor/matrix cores."""
        return self.mma_flops / self.total_flops if self.total_flops else 0.0

    @property
    def bound(self) -> str:
        """Which roofline ceiling the kernel sits under.

        The classification is sustained-fraction independent: compute and
        memory time scale by the same ``1/frac``, so comparing them at
        peak decides it.
        """
        return "compute" if self.peak_compute_us >= self.peak_memory_us else "memory"

    @property
    def peak_us(self) -> float:
        return max(self.peak_compute_us, self.peak_memory_us)

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the device roofline: peak-model time over
        the priced (sustained + launch + imbalance) time."""
        return self.peak_us / self.sim_us if self.sim_us > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "phase": self.phase,
            "backend": self.backend,
            "precision": self.precision,
            "kernel_class": self.kernel_class,
            "level": self.level,
            "calls": self.calls,
            "sim_us": self.sim_us,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "mma_issues": self.mma_issues,
            "scalar_flops": self.scalar_flops,
            "mma_flops": self.mma_flops,
            "total_flops": self.total_flops,
            "total_bytes": self.total_bytes,
            "arithmetic_intensity": self.arithmetic_intensity,
            "tc_fraction": self.tc_fraction,
            "bound": self.bound,
            "peak_us": self.peak_us,
            "efficiency": self.efficiency,
        }


def _resolve_device(device) -> DeviceSpec:
    return get_device(device) if isinstance(device, str) else device


def _build(key, agg, device: DeviceSpec) -> AttributionRecord:
    kernel, phase, backend, precision, kernel_class, level = key
    counters: KernelCounters = agg["counters"]
    model = CostModel(device)
    return AttributionRecord(
        kernel=kernel,
        phase=phase,
        backend=backend,
        precision=precision,
        kernel_class=kernel_class,
        level=level,
        calls=agg["calls"],
        sim_us=agg["sim_us"],
        bytes_read=counters.bytes_read,
        bytes_written=counters.bytes_written,
        mma_issues=counters.total_mma,
        scalar_flops=counters.total_scalar_flops,
        peak_compute_us=model.compute_us(counters, sustained=1.0),
        peak_memory_us=model.memory_us(counters, sustained=1.0),
    )


def attribute_log(perf, device="H100") -> list[AttributionRecord]:
    """Attribution of a :class:`~repro.perf.timeline.PerformanceLog`: one
    record per cell of every label the registry keeps plus the AMG level,
    heaviest first."""
    groups: dict = {}
    for rec in perf.records:
        key = (
            rec.kernel,
            rec.phase,
            rec.backend,
            rec.precision.name.lower(),
            rec.kernel_class or f"{rec.backend}_{rec.kernel}",
            rec.level,
        )
        agg = groups.get(key)
        if agg is None:
            agg = groups[key] = {
                "calls": 0.0, "sim_us": 0.0, "counters": KernelCounters(),
            }
        agg["calls"] += 1
        agg["sim_us"] += rec.sim_time_us
        agg["counters"].merge(rec.counters)
    dev = _resolve_device(device)
    records = [_build(key, agg, dev) for key, agg in groups.items()]
    records.sort(key=lambda r: (-r.sim_us, r.kernel, r.phase, r.level))
    return records


def totals(records: list[AttributionRecord]) -> dict:
    """Exact roll-up (``math.fsum``) across attribution records.

    These totals equal the ``math.fsum`` over the kernel records the
    attribution was folded from — the reconciliation the tests assert.
    """
    out = {
        field: math.fsum(getattr(r, field) for r in records)
        for field in (
            "calls", "sim_us", "bytes_read", "bytes_written",
            "mma_issues", "scalar_flops", "mma_flops", "total_flops",
            "total_bytes",
        )
    }
    out["arithmetic_intensity"] = (
        out["total_flops"] / out["total_bytes"] if out["total_bytes"] else 0.0
    )
    out["tc_fraction"] = (
        out["mma_flops"] / out["total_flops"] if out["total_flops"] else 0.0
    )
    return out


def roofline_payload(records: list[AttributionRecord], device="H100") -> dict:
    """JSON document for payloads / ``repro obs roofline --format=json``."""
    dev = _resolve_device(device)
    return {
        "device": dev.name,
        "records": [r.to_dict() for r in records],
        "totals": totals(records),
    }


def format_roofline(records: list[AttributionRecord], device="H100") -> str:
    """Text table, heaviest kernels first (the ``obs roofline`` body)."""
    dev = _resolve_device(device)
    header = (
        f"{'kernel':<14}{'phase':<7}{'backend':<10}{'prec':<6}{'lvl':>4}"
        f"{'calls':>8}{'sim µs':>12}{'flop/B':>9}{'bound':>9}"
        f"{'eff %':>8}{'tc %':>7}"
    )
    lines = [f"roofline attribution on {dev.name}", header, "-" * len(header)]
    for r in records:
        lvl = "-" if r.level < 0 else str(r.level)
        lines.append(
            f"{r.kernel:<14}{r.phase:<7}{r.backend:<10}{r.precision:<6}"
            f"{lvl:>4}{r.calls:>8.0f}{r.sim_us:>12.1f}"
            f"{r.arithmetic_intensity:>9.2f}{r.bound:>9}"
            f"{100.0 * r.efficiency:>8.2f}{100.0 * r.tc_fraction:>7.1f}"
        )
    agg = totals(records)
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<14}{'':<7}{'':<10}{'':<6}{'':>4}"
        f"{agg['calls']:>8.0f}{agg['sim_us']:>12.1f}"
        f"{agg['arithmetic_intensity']:>9.2f}{'':>9}"
        f"{'':>8}{100.0 * agg['tc_fraction']:>7.1f}"
    )
    return "\n".join(lines) + "\n"
