"""Per-kernel-call performance log — the one priced event stream.

Every simulated kernel call (SpGEMM, SpMV, format conversion, and the
"other" AMG work) appends one :class:`repro.kernels.record.KernelRecord`
tagged with its phase ('setup' / 'solve') and grid level.  The log is
the only place a priced record enters any accounting stream: while a
trace is active, :meth:`PerformanceLog.extend` folds each record into
the ``repro_kernel_*`` counters of the metrics registry as it lands, and
under checked mode it refuses an SpGEMM/SpMV/SpMM record that its
kernel's differential oracle did not stamp.
From the records the reproduction derives:

* Fig. 1 / Fig. 2 — phase time breakdowns (SpGEMM vs rest of setup, SpMV
  vs rest of solve), bucketed by :func:`kernel_class`;
* Fig. 7 — total setup/solve times per solver configuration;
* Fig. 8 — the per-call time sequences of both kernels, and the
  per-level roofline attribution of :func:`repro.obs.profile.attribute_log`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.check import runtime as check_runtime
from repro.check.oracle import STAMP
from repro.check.violation import ContractViolation
from repro.kernels.record import KernelRecord
from repro.obs.metrics import observe_kernel
from repro.obs.trace import is_active

__all__ = ["KERNEL_CLASSES", "PerformanceLog", "PhaseTotals", "kernel_class"]

#: The Fig. 1/2 buckets, in report order.
KERNEL_CLASSES = ("spgemm", "spmv", "conversion", "other")

_CLASS_OF = {
    "spgemm": "spgemm",
    "spmv": "spmv",
    "spmm": "spmv",
    "csr2mbsr": "conversion",
    "mbsr2csr": "conversion",
    "csr2bsr": "conversion",
}


def kernel_class(kernel: str) -> str:
    """The Fig. 1/2 bucket of a kernel (record or span) name: ``spgemm``,
    ``spmv`` (the SpMV and its panel form, SpMM), ``conversion`` or
    ``other`` — the one taxonomy of every phase split."""
    return _CLASS_OF.get(kernel, "other")


@dataclass
class PhaseTotals:
    """Aggregated simulated times (microseconds) of one phase."""

    spgemm_us: float = 0.0
    spmv_us: float = 0.0
    conversion_us: float = 0.0
    other_us: float = 0.0

    @property
    def parts(self) -> dict[str, float]:
        """Microseconds per :data:`KERNEL_CLASSES` bucket."""
        return {c: getattr(self, f"{c}_us") for c in KERNEL_CLASSES}

    @property
    def total_us(self) -> float:
        return self.spgemm_us + self.spmv_us + self.conversion_us + self.other_us


@dataclass
class PerformanceLog:
    """Chronological record of every simulated kernel call."""

    records: list[KernelRecord] = field(default_factory=list)

    def append(self, record: KernelRecord) -> KernelRecord:
        self.extend((record,))
        return record

    def extend(self, records: Sequence[KernelRecord]) -> None:
        """Append priced records in order; while a trace is active each is
        folded into the metrics registry as well, so the log and the
        ``repro_kernel_*`` counters count the same calls.

        Under checked mode every SpGEMM, SpMV and SpMM record must carry
        its oracle's stamp (:func:`repro.check.oracle.stamp`): a kernel
        that skipped its oracle raises ``perf/unchecked-record`` here.
        Conversion and ``other`` records have no kernel oracle and pass.
        """
        if check_runtime.is_active():
            _require_stamps(records)
        self.records.extend(records)
        if is_active():
            for record in records:
                observe_kernel(record)

    # ------------------------------------------------------------------
    def by_phase(self, phase: str) -> list[KernelRecord]:
        return [r for r in self.records if r.phase == phase]

    def by_kernel(self, kernel: str, phase: str | None = None) -> list[KernelRecord]:
        return [
            r
            for r in self.records
            if r.kernel == kernel and (phase is None or r.phase == phase)
        ]

    def kernel_times(self, kernel: str, phase: str | None = None) -> list[float]:
        """Per-call simulated times of *kernel* — one Fig. 8 series."""
        return [r.sim_time_us for r in self.by_kernel(kernel, phase)]

    # ------------------------------------------------------------------
    def phase_totals(self, phase: str) -> PhaseTotals:
        us = dict.fromkeys(KERNEL_CLASSES, 0.0)
        for r in self.by_phase(phase):
            us[kernel_class(r.kernel)] += r.sim_time_us
        return PhaseTotals(**{f"{c}_us": t for c, t in us.items()})

    @property
    def setup(self) -> PhaseTotals:
        return self.phase_totals("setup")

    @property
    def solve(self) -> PhaseTotals:
        return self.phase_totals("solve")

    @property
    def total_us(self) -> float:
        return sum(r.sim_time_us for r in self.records)

    def count(self, kernel: str, phase: str | None = None) -> int:
        return len(self.by_kernel(kernel, phase))

    def summary(self) -> dict:
        """Compact dict used by the benchmark harnesses."""
        setup, solve = self.setup, self.solve
        return {
            "setup_us": setup.total_us,
            "setup_spgemm_us": setup.spgemm_us,
            "setup_conversion_us": setup.conversion_us,
            "solve_us": solve.total_us,
            "solve_spmv_us": solve.spmv_us,
            "total_us": setup.total_us + solve.total_us,
            "spgemm_calls": self.count("spgemm"),
            "spmv_calls": sum(kernel_class(r.kernel) == "spmv"
                              for r in self.records),
        }


def _require_stamps(records: Sequence[KernelRecord]) -> None:
    """Raise ``perf/unchecked-record`` for the first SpGEMM/SpMV/SpMM
    record in *records* that no oracle stamped."""
    for record in records:
        if (kernel_class(record.kernel) in ("spgemm", "spmv")
                and STAMP not in record.detail):
            raise ContractViolation(
                "PerformanceLog.extend", "perf/unchecked-record",
                f"{record.backend} {record.kernel} record (phase "
                f"{record.phase!r}, level {record.level}) charged under "
                "checked mode without its oracle's stamp",
            )
