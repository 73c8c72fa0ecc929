"""Named counters / gauges / histograms for engine-health telemetry.

Where :mod:`repro.obs.trace` answers "where did the wall time go", this
registry answers "what did the engines do": cache hits/misses/evictions
for the :class:`~repro.kernels.cache.OperatorCache` and
:class:`~repro.kernels.setup_cache.SetupPlanCache`, tensor-core vs
CUDA-core dispatch counts and per-tile popcount histograms from the mBSR
kernels, per-kernel calls, simulated µs, bytes moved and MMA issues folded
in from each priced :class:`~repro.kernels.record.KernelRecord` as a
:class:`~repro.perf.timeline.PerformanceLog` appends it, and per-level
smoother sweep counts.

The registry shares the ``REPRO_TRACE`` gate with the tracer: the
module-level helpers (:func:`inc`, :func:`observe`, ...) are no-ops while
tracing is disabled, so instrumented hot paths pay one ``is_active``
check and nothing else.  Exporters read :meth:`MetricsRegistry.snapshot`
or the Prometheus text format from :mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs import names
from repro.obs.trace import is_active

__all__ = [
    "DEFAULT_BUCKETS",
    "POP_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "inc",
    "set_gauge",
    "observe",
    "observe_counts",
    "observe_kernel",
]

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonic count (cache hits, dispatches, sweeps, bytes)."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-observed level (entries resident in a cache, ranks active)."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)


#: Default histogram buckets: powers of two up to 64Ki — wide enough for
#: popcounts (0..16), sweep counts, and per-call byte/MMA magnitudes.
DEFAULT_BUCKETS = tuple(float(2**i) for i in range(17))

#: Exact buckets for per-tile popcounts: a 4x4 tile holds 0..16 nonzeros.
POP_BUCKETS = tuple(float(i) for i in range(17))


@dataclass
class Histogram:
    """Bucketed distribution with Prometheus ``le`` semantics."""

    name: str
    labels: LabelKey = ()
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    kind = "histogram"

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(float(b) for b in self.buckets))
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +inf tail

    def observe(self, value: float, n: int = 1) -> None:
        """Record *value* observed *n* times."""
        if n <= 0:
            return
        self.sum += float(value) * n
        self.count += n
        for i, ub in enumerate(self.buckets):
            if value <= ub:
                self.counts[i] += n
                return
        self.counts[-1] += n

    def observe_counts(self, counts) -> None:
        """Fold a bincount-style array in: ``counts[v]`` observations of
        integer value ``v`` (the popcount-per-tile shape, 0..16)."""
        for value, n in enumerate(counts):
            self.observe(float(value), int(n))

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds (for reports)."""
        if self.count == 0:
            return math.nan
        target = q * self.count
        seen = 0
        for i, ub in enumerate(self.buckets):
            seen += self.counts[i]
            if seen >= target:
                return ub
        return math.inf


class MetricsRegistry:
    """Process-wide metric store keyed by ``(name, sorted labels)``."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], object] = {}

    # -- instrument lookup (create on first use) -----------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Counter(name, key[1])
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Gauge(name, key[1])
        return metric  # type: ignore[return-value]

    def histogram(self, name: str, buckets=None, **labels) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Histogram(
                name, key[1], buckets=tuple(buckets) if buckets else DEFAULT_BUCKETS
            )
        return metric  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def collect(self):
        """Metrics grouped by name, label-sorted — exporter order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def snapshot(self) -> dict:
        """JSON-friendly dump (benchmarks attach this to their payloads)."""
        out: dict = {}
        for metric in self.collect():
            entry = out.setdefault(metric.name, {"type": metric.kind, "samples": []})
            sample: dict = {"labels": dict(metric.labels)}
            if isinstance(metric, Histogram):
                sample["sum"] = metric.sum
                sample["count"] = metric.count
                sample["buckets"] = {
                    ("+Inf" if i == len(metric.buckets) else repr(metric.buckets[i])): c
                    for i, c in enumerate(metric.counts)
                }
            else:
                sample["value"] = metric.value
            entry["samples"].append(sample)
        return out

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge (0.0 if never touched)."""
        metric = self._metrics.get((name, _label_key(labels)))
        return getattr(metric, "value", 0.0) if metric is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        return sum(
            m.value
            for (n, _), m in self._metrics.items()
            if n == name and isinstance(m, Counter)
        )

    def reset(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)


#: The process-wide registry the gated helpers below write into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


# ----------------------------------------------------------------------
# gated instrumentation helpers — no-ops while REPRO_TRACE is off
# ----------------------------------------------------------------------

def inc(name: str, amount: float = 1.0, **labels) -> None:
    if is_active():
        REGISTRY.counter(name, **labels).inc(amount)


def set_gauge(name: str, value: float, **labels) -> None:
    if is_active():
        REGISTRY.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels) -> None:
    if is_active():
        REGISTRY.histogram(name, **labels).observe(value)


def observe_counts(name: str, counts, **labels) -> None:
    if is_active():
        REGISTRY.histogram(name, **labels).observe_counts(counts)


def observe_kernel(record) -> None:
    """Fold one :class:`~repro.kernels.record.KernelRecord` into the
    registry: call counts, simulated µs, bytes moved, and MMA issues; for
    mBSR SpMV/SpMM records also the TC-vs-CUDA dispatch path and the
    operator's tile-popcount histogram.

    Its one caller is :meth:`repro.perf.timeline.PerformanceLog.extend`:
    a record reaches the registry exactly when it lands in a performance
    log, so the two streams count the same calls.
    """
    if not is_active():
        return
    labels = {
        "kernel": record.kernel,
        "phase": record.phase,
        "backend": record.backend,
        "precision": record.precision.name.lower(),
        # Cost-model class at pricing time, as repro.obs.profile keys it.
        "kernel_class": record.kernel_class
        or f"{record.backend}_{record.kernel}",
    }
    REGISTRY.counter(names.KERNEL_CALLS, **labels).inc()
    REGISTRY.counter(names.KERNEL_SIM_US, **labels).inc(record.sim_time_us)
    counters = record.counters
    REGISTRY.counter(names.KERNEL_BYTES_READ, **labels).inc(counters.bytes_read)
    REGISTRY.counter(names.KERNEL_BYTES_WRITTEN, **labels).inc(
        counters.bytes_written
    )
    mma = counters.total_mma
    if mma:
        REGISTRY.counter(names.KERNEL_MMA_ISSUES, **labels).inc(mma)
    flops = counters.total_scalar_flops
    if flops:
        REGISTRY.counter(names.KERNEL_SCALAR_FLOPS, **labels).inc(flops)
    pop_hist = record.detail.get("pop_hist")
    if pop_hist is not None:
        core, schedule = record.detail["path"].split("/")
        if record.kernel == "spmv":
            REGISTRY.counter(names.SPMV_DISPATCH, core=core,
                             schedule=schedule).inc()
        else:
            REGISTRY.counter(names.SPMM_DISPATCH, core=core, schedule=schedule,
                             width=record.detail["width"]).inc()
        REGISTRY.histogram(
            names.SPMV_TILE_POPCOUNT, buckets=POP_BUCKETS, kernel=record.kernel,
        ).observe_counts(pop_hist)
