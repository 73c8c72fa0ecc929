"""Per-kernel-call records consumed by the perf layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.gpu.counters import KernelCounters, Precision

__all__ = ["KernelRecord", "span_attrs"]


@dataclass
class KernelRecord:
    """What one simulated kernel call did and what it cost.

    ``sim_time_us`` is filled in by the caller once a device/cost model is
    chosen; the kernels themselves are device-independent and only record
    the work.
    """

    kernel: str
    backend: str
    precision: Precision
    counters: KernelCounters = field(default_factory=KernelCounters)
    #: Free-form detail (e.g. which execution paths fired).
    detail: dict = field(default_factory=dict)
    sim_time_us: float = 0.0
    level: int = -1
    phase: str = ""
    #: Cost-model class used at pricing time; stored so a recorded run can
    #: be re-priced on a different device (e.g. one NVIDIA execution priced
    #: for both A100 and H100).
    kernel_class: str = ""

    def price(self, cost_model, kernel_class: str | None = None) -> float:
        """Compute and store the simulated time on *cost_model*."""
        cls = kernel_class or self.kernel_class or f"{self.backend}_{self.kernel}"
        self.kernel_class = cls
        self.sim_time_us = cost_model.kernel_time_us(self.counters, cls)
        return self.sim_time_us


def span_attrs(phase: str, level: int,
               records: Sequence[KernelRecord] = ()) -> dict:
    """Attributes of a kernel span: its phase and level, plus the facts of
    the priced records it ran — their summed simulated µs and the backend,
    precision and dispatch path of the last — so the measured and
    simulated views of a run stay joined."""
    attrs: dict = {"phase": phase, "level": level}
    if records:
        last = records[-1]
        attrs.update(
            sim_us=sum(r.sim_time_us for r in records),
            backend=last.backend,
            precision=last.precision.name.lower(),
            path=last.detail.get("path"),
        )
    return attrs
