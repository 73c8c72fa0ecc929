"""Hierarchical span tracer: measured wall time for what the engines do.

The perf layer (:mod:`repro.perf.timeline`) records *simulated* device
prices; this module records what the Python engines actually spend, as a
tree of spans::

    setup > kernel(spgemm|conversion)
    solve > cycle[k] > kernel(spmv|smoother)

Each span carries wall-clock nanoseconds plus free-form attributes — the
kernel spans carry their phase and level and attach the matching
:class:`~repro.kernels.record.KernelRecord` facts (simulated µs,
precision, backend, dispatch path) so
the measured and simulated breakdowns can be laid side by side by
:mod:`repro.obs.export`.

Gating follows the ``repro.check`` pattern exactly: off by default, on via
the ``REPRO_TRACE=1`` environment variable or a programmatic
:func:`enable` / :func:`trace_region`.  The disabled fast path allocates
nothing: :func:`span` returns the shared :data:`NULL_SPAN` singleton after
one :func:`is_active` check, and hot call sites guard their attribute
writes with ``if sp:`` (the null span is falsy).

This module imports nothing from the rest of the package so every layer —
kernels included — can depend on it without cycles.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "ENV_VAR",
    "is_active",
    "enable",
    "disable",
    "trace_region",
    "Span",
    "NULL_SPAN",
    "Tracer",
    "TRACER",
    "get_tracer",
    "span",
    "phase_span",
    "current_span",
    "traced",
]

ENV_VAR = "REPRO_TRACE"

_TRUTHY = {"1", "true", "on", "yes"}

#: Nesting depth of programmatic activations (trace_region / enable).
_depth = 0


def is_active() -> bool:
    """True when tracing is on (env var or an active region)."""
    if _depth > 0:
        return True
    value = os.environ.get(ENV_VAR)
    if not value:  # unset or empty: the hot off-path, one dict lookup
        return False
    return value.strip().lower() in _TRUTHY


def enable() -> None:
    """Turn tracing on until a matching :func:`disable`."""
    global _depth
    _depth += 1


def disable() -> None:
    """Undo one :func:`enable` (never drops below zero)."""
    global _depth
    _depth = max(_depth - 1, 0)


@contextmanager
def trace_region(enabled: bool = True):
    """Scope within which spans (and the metrics registry) record.

    ``enabled=False`` makes the region a no-op so callers can thread a
    flag through without branching.
    """
    if not enabled:
        yield
        return
    enable()
    try:
        yield
    finally:
        disable()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

@dataclass
class Span:
    """One timed region of the span tree."""

    name: str
    kind: str = "region"
    start_ns: int = 0
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def __bool__(self) -> bool:  # real spans are truthy; NULL_SPAN is not
        return True

    @property
    def wall_ns(self) -> int:
        return max(self.end_ns - self.start_ns, 0)

    def set(self, **attrs) -> "Span":
        """Attach attributes; chainable."""
        self.attrs.update(attrs)
        return self

    # -- context manager (entered through Tracer.open) -----------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        TRACER.close(self)
        return False

    # -- tree helpers --------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str | None = None, name: str | None = None):
        """All descendant spans (self included) matching kind/name."""
        return [
            s
            for s in self.walk()
            if (kind is None or s.kind == kind)
            and (name is None or s.name == name)
        ]


class _NullSpan:
    """Falsy, stateless no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


#: The shared disabled-mode span: one allocation for the whole process.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees; one process-wide instance (:data:`TRACER`).

    The span cap bounds memory when tracing runs under a long test suite
    (``REPRO_TRACE=1`` tier-1 in CI): past ``max_spans`` live spans the
    tracer stops allocating and counts the drops instead.
    """

    def __init__(self, max_spans: int = 500_000) -> None:
        self.max_spans = int(max_spans)
        self.roots: list[Span] = []
        self.dropped = 0
        #: Attributes stamped onto every newly opened span (e.g. the rank
        #: tag of a distributed worker region).
        self.tags: dict = {}
        self._stack: list[Span] = []
        self._count = 0

    # ------------------------------------------------------------------
    def open(self, name: str, kind: str = "region", attrs: dict | None = None):
        """Open a span as a child of the current one; returns it (or the
        null span once the cap is hit)."""
        if self._count >= self.max_spans:
            self.dropped += 1
            # Cold branch: the local imports keep this module free of
            # package imports on the hot path (metrics imports trace, so
            # a top-level import would cycle).
            from repro.obs import metrics as obs_metrics
            from repro.obs import names as obs_names

            obs_metrics.REGISTRY.counter(obs_names.TRACE_SPANS_DROPPED).inc()
            if self.dropped == 1:
                import warnings

                warnings.warn(
                    f"span cap reached ({self.max_spans}): further spans "
                    "are dropped and counted in "
                    f"{obs_names.TRACE_SPANS_DROPPED} / Tracer.dropped",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return NULL_SPAN
        sp = Span(name=name, kind=kind, start_ns=time.perf_counter_ns())
        if attrs:
            sp.attrs.update(attrs)
        if self.tags:
            sp.attrs.update(self.tags)
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)
        self._count += 1
        return sp

    def close(self, sp) -> None:
        if sp is NULL_SPAN:
            # A span dropped at the cap: nothing was opened, nothing to
            # close (manual open/close pairing must survive the cap too).
            return
        sp.end_ns = time.perf_counter_ns()
        # Tolerate unbalanced exits (an exception unwinding through
        # several spans closes them outside-in): pop everything above
        # *sp*, closing the orphans with the same end stamp.
        while self._stack:
            top = self._stack.pop()
            if top is sp:
                return
            if not top.end_ns:
                top.end_ns = sp.end_ns

    def has_open(self, kind: str) -> bool:
        return any(s.kind == kind for s in self._stack)

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @property
    def span_count(self) -> int:
        return self._count

    def reset(self) -> None:
        self.roots = []
        self._stack = []
        self._count = 0
        self.dropped = 0
        self.tags = {}

    @contextmanager
    def tagged(self, **tags):
        """Stamp *tags* onto every span opened inside the region (the
        dist layer tags per-rank kernel spans with ``rank=r``)."""
        saved = dict(self.tags)
        self.tags.update(tags)
        try:
            yield
        finally:
            self.tags = saved


#: The process-wide tracer every instrumentation site appends to.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


def span(name: str, kind: str = "region", attrs: dict | None = None):
    """Open a span when tracing is active; :data:`NULL_SPAN` otherwise.

    Hot call sites pass no ``attrs`` and guard later ``.set`` calls with
    ``if sp:`` so the disabled path stays allocation free.
    """
    if not is_active():
        return NULL_SPAN
    return TRACER.open(name, kind, attrs)


def phase_span(name: str, attrs: dict | None = None):
    """Open a ``kind='phase'`` span unless one is already on the stack.

    The setup/solve drivers nest (``AmgTSolver.solve`` ->
    ``BoomerAMG.solve`` -> ``taped_solve``); each opens the phase span so it
    is present whichever layer is the entry point, and the idempotence
    here keeps the tree from stuttering ``solve > solve > ...``.
    """
    if not is_active():
        return NULL_SPAN
    if TRACER.has_open("phase"):
        return NULL_SPAN
    return TRACER.open(name, "phase", attrs)


def current_span() -> Span | None:
    """The innermost open span, or None (useful for ad-hoc annotation)."""
    return TRACER.current() if is_active() else None


def traced(name: str | None = None, kind: str = "region"):
    """Decorator form: wrap a function body in a span."""

    def decorate(fn):
        from functools import wraps

        label = name or fn.__name__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not is_active():
                return fn(*args, **kwargs)
            with TRACER.open(label, kind):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
