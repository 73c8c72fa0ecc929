"""Single source of truth for metric names.

Every counter / gauge / histogram name used inside ``src/repro`` must be
a constant exported here — a typo'd literal at an instrumentation site
silently creates a dead series that no dashboard, bench payload, or test
ever reads.  Lint rule R10 (metric-name provenance) enforces this: any
string literal passed as the name argument of a metrics call elsewhere in
the tree is an error.

Naming convention: ``repro_<subsystem>_<what>[_total]`` with Prometheus
suffix rules (``_total`` for counters, bare names for histograms and
gauges).  ``SETUP_REUSE`` predates the convention and keeps its
unprefixed name — bench payloads and the evolving-problem tests key on
it verbatim.

This module imports nothing so every layer can depend on it without
cycles (the same rule :mod:`repro.obs.trace` follows).
"""

from __future__ import annotations

__all__ = [
    # per-kernel roll-ups folded in by ``observe_kernel``
    "KERNEL_CALLS",
    "KERNEL_SIM_US",
    "KERNEL_BYTES_READ",
    "KERNEL_BYTES_WRITTEN",
    "KERNEL_MMA_ISSUES",
    "KERNEL_SCALAR_FLOPS",
    # dispatch decisions + tile shapes
    "SPMV_DISPATCH",
    "SPMV_TILE_POPCOUNT",
    "SPMM_DISPATCH",
    "SPGEMM_PAIR_DISPATCH",
    "SPGEMM_SYMBOLIC",
    "SPGEMM_TILE_POPCOUNT",
    # caches
    "OPERATOR_CACHE_REQUESTS",
    "SETUP_CACHE_REQUESTS",
    "SETUP_CACHE_EVICTIONS",
    "TILE_PASS_LAYOUTS",
    # setup engine
    "SETUP_REUSE",
    # smoothers
    "SMOOTHER_APPLICATIONS",
    "SMOOTHER_SWEEPS",
    # kernel tape
    "TAPE_RECORDS",
    "TAPE_REPLAY_CYCLES",
    # tracer health
    "TRACE_SPANS_DROPPED",
    # flight recorder
    "BLACKBOX_EVENTS",
    "BLACKBOX_DUMPS",
]

# -- per-kernel roll-ups (labels: kernel, phase, backend, precision) ----
KERNEL_CALLS = "repro_kernel_calls_total"
KERNEL_SIM_US = "repro_kernel_sim_us_total"
KERNEL_BYTES_READ = "repro_kernel_bytes_read_total"
KERNEL_BYTES_WRITTEN = "repro_kernel_bytes_written_total"
KERNEL_MMA_ISSUES = "repro_kernel_mma_issues_total"
KERNEL_SCALAR_FLOPS = "repro_kernel_scalar_flops_total"

# -- dispatch decisions + tile-shape histograms -------------------------
SPMV_DISPATCH = "repro_spmv_dispatch_total"
SPMV_TILE_POPCOUNT = "repro_spmv_tile_popcount"
SPMM_DISPATCH = "repro_spmm_dispatch_total"
SPGEMM_PAIR_DISPATCH = "repro_spgemm_pair_dispatch_total"
SPGEMM_SYMBOLIC = "repro_spgemm_symbolic_total"
SPGEMM_TILE_POPCOUNT = "repro_spgemm_tile_popcount"

# -- caches -------------------------------------------------------------
OPERATOR_CACHE_REQUESTS = "repro_operator_cache_requests_total"
SETUP_CACHE_REQUESTS = "repro_setup_cache_requests_total"
SETUP_CACHE_EVICTIONS = "repro_setup_cache_evictions_total"
#: Compact SpMV pass layouts by ``result``: ``build`` or ``refill`` (an
#: operator of the same structure filled a live layout with its values).
TILE_PASS_LAYOUTS = "repro_tile_pass_layouts_total"

# -- setup engine (unprefixed: payload/test compatibility, see above) ---
SETUP_REUSE = "setup_reuse_total"

# -- smoothers ----------------------------------------------------------
SMOOTHER_APPLICATIONS = "repro_smoother_applications_total"
SMOOTHER_SWEEPS = "repro_smoother_sweeps_total"

# -- kernel tape --------------------------------------------------------
TAPE_RECORDS = "repro_tape_records_total"
TAPE_REPLAY_CYCLES = "repro_tape_replay_cycles_total"

# -- tracer health ------------------------------------------------------
TRACE_SPANS_DROPPED = "repro_trace_spans_dropped_total"

# -- flight recorder ----------------------------------------------------
BLACKBOX_EVENTS = "repro_blackbox_events_total"
BLACKBOX_DUMPS = "repro_blackbox_dumps_total"
