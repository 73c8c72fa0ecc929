"""Exporters: Chrome-trace JSON, Prometheus text, and phase reports.

Three consumers of the obs state:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the span tree as a
  Chrome trace-event JSON (complete ``"ph": "X"`` events, µs timestamps)
  that loads directly in Perfetto / ``chrome://tracing``; rank-tagged
  spans land on their own track via ``tid``.
* :func:`prometheus_text` / :func:`parse_prometheus` — the metrics
  registry in Prometheus exposition format, plus the inverse parser the
  round-trip tests use.
* :func:`measured_phase_totals` / :func:`phase_report` — the paper's
  Fig. 1/2-style setup/solve breakdown (SpGEMM / SpMV / conversion /
  other) computed from *measured* kernel-span wall time, printed next to
  the *simulated* :class:`~repro.perf.timeline.PerformanceLog` split so
  the analytical cost model can be sanity-checked against reality.
"""

from __future__ import annotations

import json
import re

from repro.obs.metrics import REGISTRY, Histogram, MetricsRegistry
from repro.obs.trace import TRACER, Span, Tracer
# Module reference, read at call time: ``perf.timeline`` imports this
# package (through ``repro.obs.metrics``), so either may load first.
from repro.perf import timeline as _timeline

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "parse_prometheus",
    "measured_phase_totals",
    "phase_report",
    "phase_report_data",
]

# ----------------------------------------------------------------------
# Chrome trace (Perfetto)
# ----------------------------------------------------------------------

def _span_events(sp: Span, pid: int, events: list[dict]) -> None:
    tid = int(sp.attrs.get("rank", 0))
    args = {
        k: (v if isinstance(v, (int, float, str, bool)) or v is None else str(v))
        for k, v in sp.attrs.items()
    }
    events.append(
        {
            "name": sp.name,
            "cat": sp.kind,
            "ph": "X",
            "ts": sp.start_ns / 1000.0,
            "dur": sp.wall_ns / 1000.0,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
    )
    for child in sp.children:
        _span_events(child, pid, events)


def chrome_trace(tracer: Tracer | None = None) -> dict:
    """The span tree as a Chrome trace-event document (dict)."""
    tracer = tracer or TRACER
    events: list[dict] = []
    for root in tracer.roots:
        _span_events(root, 0, events)
    ranks = sorted({e["tid"] for e in events})
    for r in ranks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": r,
                "args": {"name": f"rank {r}" if r else "main"},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "dropped_spans": tracer.dropped},
    }


def write_chrome_trace(path, tracer: Tracer | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------

def _fmt_labels(pairs) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def prometheus_text(registry: MetricsRegistry | None = None) -> str:
    """The registry in Prometheus text exposition format."""
    registry = registry or REGISTRY
    lines: list[str] = []
    typed: set[str] = set()
    for metric in registry.collect():
        if metric.name not in typed:
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            typed.add(metric.name)
        if isinstance(metric, Histogram):
            cumulative = 0
            for i, ub in enumerate(metric.buckets):
                cumulative += metric.counts[i]
                le = _fmt_labels(tuple(metric.labels) + (("le", _fmt_value(ub)),))
                lines.append(f"{metric.name}_bucket{le} {cumulative}")
            le = _fmt_labels(tuple(metric.labels) + (("le", "+Inf"),))
            lines.append(f"{metric.name}_bucket{le} {metric.count}")
            lab = _fmt_labels(metric.labels)
            lines.append(f"{metric.name}_sum{lab} {_fmt_value(metric.sum)}")
            lines.append(f"{metric.name}_count{lab} {metric.count}")
        else:
            lines.append(
                f"{metric.name}{_fmt_labels(metric.labels)} {_fmt_value(metric.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Inverse of :func:`prometheus_text`: ``(name, labels) -> value``.

    Only samples (no ``# TYPE`` metadata) — enough for the round-trip
    tests and for diffing two registry states.
    """
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        labels = tuple(sorted(_LABEL_RE.findall(m.group("labels") or "")))
        out[(m.group("name"), labels)] = float(m.group("value"))
    return out


# ----------------------------------------------------------------------
# Fig. 1/2-style phase breakdown: measured next to simulated
# ----------------------------------------------------------------------

def _top_kernels(sp: Span) -> list[Span]:
    """Maximal kernel spans under *sp* (not nested inside another one)."""
    found: list[Span] = []
    for child in sp.children:
        if child.kind == "kernel":
            found.append(child)
        else:
            found.extend(_top_kernels(child))
    return found


def _fold_kernel(k: Span, phase: dict[str, float]) -> None:
    """Charge a kernel span its *exclusive* wall time, recursing into
    nested kernels (a smoother span contains the SpMVs of its sweeps; the
    sweeps bill as spmv, the smoother overhead as other)."""
    inner = _top_kernels(k)
    inner_ns = sum(i.wall_ns for i in inner)
    phase[_timeline.kernel_class(k.name)] += max(k.wall_ns - inner_ns, 0) / 1000.0
    for i in inner:
        _fold_kernel(i, phase)


def measured_phase_totals(tracer: Tracer | None = None) -> dict[str, dict[str, float]]:
    """Wall-time split per phase from the span tree, in microseconds.

    For every ``kind='phase'`` span, kernel descendants are bucketed by
    :func:`~repro.perf.timeline.kernel_class` on exclusive wall time
    (the simulated split's taxonomy); ``other``
    additionally absorbs the phase time outside any kernel span (pure-
    Python driver work — the part the simulated log cannot see).  The four
    buckets sum to ``total`` up to clock granularity.
    """
    tracer = tracer or TRACER
    totals: dict[str, dict[str, float]] = {}
    for root in tracer.roots:
        for sp in root.walk():
            if sp.kind != "phase":
                continue
            phase = totals.setdefault(
                sp.name, dict.fromkeys(_timeline.KERNEL_CLASSES + ("total",), 0.0)
            )
            phase["total"] += sp.wall_ns / 1000.0
            top = _top_kernels(sp)
            for k in top:
                _fold_kernel(k, phase)
            non_kernel = sp.wall_ns - sum(k.wall_ns for k in top)
            phase["other"] += max(non_kernel, 0) / 1000.0
    return totals


def _pct(part: float, total: float) -> float:
    return 100.0 * part / total if total > 0 else 0.0


def phase_report_data(perf, tracer: Tracer | None = None) -> dict:
    """The :func:`phase_report` table as data: per phase, the measured and
    simulated µs per :data:`~repro.perf.timeline.KERNEL_CLASSES` bucket
    with their shares.  ``repro obs report --format=json`` and the ledger
    consume this instead of parsing text."""
    measured = measured_phase_totals(tracer)
    empty = dict.fromkeys(_timeline.KERNEL_CLASSES + ("total",), 0.0)
    out: dict = {}
    for phase in ("setup", "solve"):
        sim = perf.phase_totals(phase)
        sim_parts = sim.parts
        meas = measured.get(phase, empty)
        out[phase] = {
            "measured_us": {**{b: meas[b] for b in _timeline.KERNEL_CLASSES},
                            "total": meas["total"]},
            "measured_pct": {
                b: _pct(meas[b], meas["total"]) for b in _timeline.KERNEL_CLASSES
            },
            "simulated_us": {**sim_parts, "total": sim.total_us},
            "simulated_pct": {
                b: _pct(sim_parts[b], sim.total_us) for b in _timeline.KERNEL_CLASSES
            },
        }
    return out


def phase_report(perf, tracer: Tracer | None = None) -> str:
    """Side-by-side measured/simulated breakdown (the ``obs report`` body):
    :func:`phase_report_data` rendered as text.

    *perf* is a :class:`~repro.perf.timeline.PerformanceLog`; the measured
    column comes from :func:`measured_phase_totals`.
    """
    lines: list[str] = []
    header = (
        f"{'phase':<8}{'bucket':<12}{'measured µs':>14}{'meas %':>9}"
        f"{'simulated µs':>14}{'sim %':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for phase, data in phase_report_data(perf, tracer).items():
        meas, meas_pct = data["measured_us"], data["measured_pct"]
        sim, sim_pct = data["simulated_us"], data["simulated_pct"]
        for bucket in _timeline.KERNEL_CLASSES:
            lines.append(
                f"{phase:<8}{bucket:<12}"
                f"{meas[bucket]:>14.1f}{meas_pct[bucket]:>8.1f}%"
                f"{sim[bucket]:>14.1f}{sim_pct[bucket]:>8.1f}%"
            )
        lines.append(
            f"{phase:<8}{'total':<12}{meas['total']:>14.1f}{'':>9}"
            f"{sim['total']:>14.1f}{'':>9}"
        )
        # The Fig. 1/2 headline: dominant kernel vs rest of phase.
        dominant = "spgemm" if phase == "setup" else "spmv"
        meas_dom, sim_dom = meas_pct[dominant], sim_pct[dominant]
        lines.append(
            f"{'':8}{dominant} share: measured {meas_dom:.1f}% / "
            f"rest {100.0 - meas_dom if meas['total'] else 0.0:.1f}%   "
            f"simulated {sim_dom:.1f}% / "
            f"rest {100.0 - sim_dom if sim['total'] else 0.0:.1f}%"
        )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
