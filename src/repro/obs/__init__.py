"""repro.obs — hierarchical tracing, metrics, and convergence telemetry.

Three instruments behind one ``REPRO_TRACE`` gate:

* :mod:`repro.obs.trace` — wall-clock span trees
  (``solve > cycle[k] > kernel``);
* :mod:`repro.obs.metrics` — counters/gauges/histograms (cache hit
  rates, TC-vs-CUDA dispatch, popcount distributions, bytes/MMA);
* :mod:`repro.obs.convergence` — per-iteration residual norms and
  contraction factors per solve.

Exporters in :mod:`repro.obs.export`: Chrome-trace JSON (Perfetto),
Prometheus text, and the ``repro obs report`` measured-vs-simulated
phase breakdown.  Everything is a no-op until ``REPRO_TRACE=1`` (or
:func:`trace_region` / :func:`enable`).

The performance-intelligence layer on top (always on, gate-independent):

* :mod:`repro.obs.profile` — roofline attribution of the recorded
  bytes/flops/MMA streams (``repro obs roofline``);
* :mod:`repro.obs.blackbox` — the flight recorder: a bounded ring of
  structural events dumped as a postmortem bundle on contract
  violations, breakdowns, divergence, and patch fallbacks;
* :mod:`repro.obs.ledger` — run provenance, the append-only bench
  ledger, and the ``repro obs diff`` regression sentinel.

All metric names live in :mod:`repro.obs.names` (lint rule R10).
"""

from repro.obs.blackbox import (
    RECORDER,
    FlightRecorder,
    get_recorder,
    load_bundle,
    render_postmortem,
)
from repro.obs.convergence import (
    CONVERGENCE,
    ConvergenceLog,
    SolveTelemetry,
    get_convergence,
    observe_history,
    start_solve,
)
from repro.obs.export import (
    chrome_trace,
    measured_phase_totals,
    parse_prometheus,
    phase_report,
    phase_report_data,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.ledger import (
    DiffReport,
    diff_payloads,
    run_metadata,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    inc,
    observe,
    observe_counts,
    observe_kernel,
    set_gauge,
)
from repro.obs.profile import (
    AttributionRecord,
    attribute_log,
    format_roofline,
    roofline_payload,
)
from repro.obs.trace import (
    ENV_VAR,
    NULL_SPAN,
    TRACER,
    Span,
    Tracer,
    current_span,
    disable,
    enable,
    get_tracer,
    is_active,
    phase_span,
    span,
    trace_region,
    traced,
)

__all__ = [
    # trace
    "ENV_VAR",
    "NULL_SPAN",
    "TRACER",
    "Span",
    "Tracer",
    "current_span",
    "disable",
    "enable",
    "get_tracer",
    "is_active",
    "phase_span",
    "span",
    "trace_region",
    "traced",
    # metrics
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "inc",
    "observe",
    "observe_counts",
    "observe_kernel",
    "set_gauge",
    # convergence
    "CONVERGENCE",
    "ConvergenceLog",
    "SolveTelemetry",
    "get_convergence",
    "observe_history",
    "start_solve",
    # export
    "chrome_trace",
    "measured_phase_totals",
    "parse_prometheus",
    "phase_report",
    "phase_report_data",
    "prometheus_text",
    "write_chrome_trace",
    # profile
    "AttributionRecord",
    "attribute_log",
    "format_roofline",
    "roofline_payload",
    # blackbox
    "RECORDER",
    "FlightRecorder",
    "get_recorder",
    "load_bundle",
    "render_postmortem",
    # ledger
    "DiffReport",
    "diff_payloads",
    "run_metadata",
    "reset",
]


def reset() -> None:
    """Clear all obs state (tracer, registry, convergence log, flight
    recorder — including its context providers)."""
    TRACER.reset()
    REGISTRY.reset()
    CONVERGENCE.reset()
    RECORDER.reset()
