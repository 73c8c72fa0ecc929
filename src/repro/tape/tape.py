"""Kernel tape: the solve phase's one execution path.

The solve phase's cycle shape, kernel dispatch (TC vs CUDA core, plan,
precision cast) and buffer sizes are all frozen once setup finishes, so
the cycle is compiled once, in the spirit of CUDA-graph capture: one
instrumented pass (:func:`repro.tape.recorder.record_cycle`) flattens the
cycle recursion into a tuple of fully-bound closures over a preallocated
:class:`Workspace`, and :func:`taped_solve` — the only solve loop —
replays it with zero per-iteration dispatch.

Every tape runs on a panel of right-hand sides: the workspace slots are
``(batch, n)`` row panels and a single right-hand side is a panel of one.
The contract is that column j of any replay is bit-identical to the
interpreted cycle recursion :func:`repro.amg.cycle.mg_cycle` applied to
column j alone: every replay op uses ufunc-``out=`` forms that round
exactly like the fresh-allocation expressions they replace, and under
``REPRO_CHECK=1`` each replayed cycle is re-run, column by column,
through ``mg_cycle`` and compared bit for bit, and every result handed
to a caller is checked to share no memory with a workspace slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.amg.cycle import SolveParams, SolveStats, mg_cycle
from repro.amg.hierarchy import AMGHierarchy
from repro.amg.precision import accumulator
from repro.check import runtime as check_runtime
from repro.check.violation import ContractViolation
from repro.kernels.record import KernelRecord, span_attrs
from repro.obs import convergence as obs_conv
from repro.obs import names as obs_names
from repro.obs import trace as obs_trace
from repro.util.validation import normalize_rhs, normalize_rhs_panel

__all__ = ["Workspace", "TapeOp", "CycleTape", "taped_solve"]

#: Kernel-span name of each op kind in a traced replay (the coarse direct
#: solve runs without one, as in the interpreted cycle).
_SPAN_NAMES = {"smooth": "smoother", "residual": "spmv", "restrict": "spmv",
               "correct": "spmv"}


class Workspace:
    """Preallocated per-level float64 ``(batch, n)`` slots owned by one tape.

    Slot ownership: the tape's ops are the only writers.  ``x[0]`` and
    ``b[0]`` are the replay's iterate and right-hand sides (set by
    :func:`taped_solve` / :meth:`CycleTape.cycle` before each replay);
    ``r``/``t`` are residual and smoother scratch; coarse-level ``x``/``b``
    are written by the restrict ops of the level above.  Values handed to
    callers are always copies — no slot ever escapes the tape; under
    checked mode :meth:`check_no_escape` verifies it on every result.

    Every slot is a **row panel**: row j is right-hand side j, kept
    contiguous so per-column norms and the width-1-equivalent reductions
    read unit-stride memory, and so the level's ``(n,)`` smoothing
    diagonal broadcasts across the panel unchanged.  A single right-hand
    side is a panel of one row.  The public ``(n, k)`` column-panel
    convention of the entry points transposes at the boundary, never
    inside the tape.
    """

    def __init__(self, hierarchy: AMGHierarchy, batch: int = 1) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        sizes = [lvl.n for lvl in hierarchy.levels]
        self.batch = batch
        self.x = [accumulator((batch, n)) for n in sizes]
        self.b = [accumulator((batch, n)) for n in sizes]
        self.r = [accumulator((batch, n)) for n in sizes]
        self.t = [accumulator((batch, n)) for n in sizes]

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for slots in (self.x, self.b, self.r, self.t)
                   for arr in slots)

    def check_no_escape(self, result: np.ndarray) -> None:
        """Copy contract: raise unless *result*, about to be handed to a
        caller, shares no memory with any slot at any level."""
        for name in ("x", "b", "r", "t"):
            for level, slot in enumerate(getattr(self, name)):
                if np.shares_memory(result, slot):
                    raise ContractViolation(
                        "tape",
                        "tape/escaping-slot",
                        f"a result of shape {np.shape(result)} shares memory "
                        f"with workspace slot {name}[{level}] (shape "
                        f"{slot.shape}): the next replay overwrites it",
                    )


@dataclass
class TapeOp:
    """One replay step: a fully-bound closure plus its bookkeeping."""

    kind: str  # 'smooth' | 'residual' | 'restrict' | 'correct' | 'coarse'
    level: int
    fn: Callable[[], None]
    #: SpMV calls this op performs per replay (for SolveStats parity).
    spmv_calls: int = 0
    #: Attributes of the op's kernel span in a traced replay.
    span_attrs: dict = field(default_factory=dict)


def _structure_key(hierarchy: AMGHierarchy) -> tuple:
    """Identity fingerprint of everything a recorded tape depends on.

    Operator *identities* (not values): the repo-wide invariant is that
    matrices are immutable after construction, so replacing a level's
    operator always swaps the object.  The hierarchy's ``generation``
    counter covers deliberate in-place invalidation on top.
    """
    per_level = tuple(
        (id(lvl.a), id(lvl.p), id(lvl.r), id(lvl.dinv))
        for lvl in hierarchy.levels
    )
    return (id(hierarchy), hierarchy.generation, id(hierarchy.coarse_solver),
            per_level)


def _stale_error() -> RuntimeError:
    return RuntimeError(
        "stale tape: the hierarchy changed since recording; "
        "re-record before replaying"
    )


@dataclass
class CycleTape:
    """A recorded multigrid cycle: flat ops over a fixed workspace."""

    hierarchy: AMGHierarchy
    params: SolveParams
    workspace: Workspace
    ops: tuple[TapeOp, ...]
    #: Priced kernel-record templates, one per SpMV in replay order, for
    #: bulk perf-log replication by the driver (empty for host bindings).
    records: tuple[KernelRecord, ...] = ()
    #: Level-0 A binding's run, for the per-iteration residual.
    residual_run: Callable[[np.ndarray], np.ndarray] | None = None
    residual_record: KernelRecord | None = None
    #: Interpreted reference SpMV (width 1) for the REPRO_CHECK
    #: differential oracle.
    check_spmv: Callable | None = None
    #: (level, sweeps) per smooth op, for metrics parity when tracing.
    smoother_sweeps: tuple[tuple[int, int], ...] = ()
    #: Priced records of the SpMVs run while recording — Chebyshev's
    #: spectral estimate, once per level and hierarchy — for the driver
    #: to charge once.
    estimate_records: tuple[KernelRecord, ...] = ()
    #: Right-hand sides per replay: the workspace slots are ``(batch, n)``
    #: row panels and ``cycle`` takes row panels (or, at width 1, a
    #: vector); the contract is per-column bit-identity with ``mg_cycle``.
    batch: int = 1
    _struct_key: tuple = field(default_factory=tuple)
    _fns: tuple[Callable[[], None], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self._struct_key:
            self._struct_key = _structure_key(self.hierarchy)
        self._fns = tuple(op.fn for op in self.ops)

    # ------------------------------------------------------------------
    @property
    def spmv_calls_per_cycle(self) -> int:
        return sum(op.spmv_calls for op in self.ops)

    def is_stale(self) -> bool:
        """True when the hierarchy changed since recording (operator swap,
        generation bump, or a different hierarchy object entirely)."""
        return self._struct_key != _structure_key(self.hierarchy)

    def describe(self) -> str:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return (
            f"CycleTape({self.params.cycle_type}-cycle, batch={self.batch}, "
            f"{len(self.ops)} ops [{body}], "
            f"{self.spmv_calls_per_cycle} spmv/cycle, "
            f"workspace {self.workspace.nbytes} B)"
        )

    # ------------------------------------------------------------------
    def run_cycle(self) -> None:
        """Replay one recorded cycle in place on the workspace slots.

        Untraced this is the bare closure loop; while a trace is active
        every SpMV and smoother op runs inside its own kernel span.
        """
        if not obs_trace.is_active():
            for fn in self._fns:
                fn()
            return
        tracer = obs_trace.TRACER
        for op in self.ops:
            name = _SPAN_NAMES.get(op.kind)
            if name is None:
                op.fn()
                continue
            with tracer.open(name, "kernel", op.span_attrs):
                op.fn()

    def _fold_observability(self) -> None:
        """Fold one replayed cycle into the metrics registry (trace-gated
        caller): the replay counter and the per-smoother sweep counts.
        Kernel records reach the registry when the driver appends them to
        its performance log."""
        from repro.obs import metrics as obs_metrics

        obs_metrics.REGISTRY.counter(obs_names.TAPE_REPLAY_CYCLES).inc()
        for level, sweeps in self.smoother_sweeps:
            obs_metrics.REGISTRY.counter(
                obs_names.SMOOTHER_SWEEPS,
                smoother=self.params.smoother, level=level,
            ).inc(sweeps)

    def _verify_cycle(self, x_before: np.ndarray) -> None:
        """Differential oracle: every replayed column against the
        interpreted width-1 cycle (``check_spmv`` is the width-1 binding),
        bit for bit — so batching can change only speed, never answers.
        """
        if self.check_spmv is None:
            return
        ws = self.workspace
        for j in range(self.batch):
            x_ref = np.asarray(
                mg_cycle(self.hierarchy, ws.b[0][j], x_before[j],
                         self.check_spmv, self.params, SolveStats()),
                dtype=np.float64,
            )
            got = ws.x[0][j]
            if not np.array_equal(got, x_ref, equal_nan=True):
                bad = int(np.flatnonzero(got != x_ref)[0])
                raise ContractViolation(
                    "tape",
                    "tape/replay-differential",
                    f"replay column {j} diverges from the interpreted "
                    f"width-1 cycle (first mismatch at row {bad}: "
                    f"taped={got[bad]!r}, interpreted={x_ref[bad]!r})",
                )

    # ------------------------------------------------------------------
    def cycle(self, b: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """One replayed cycle on *b* from *x0* (zero when omitted).

        Takes and returns ``(batch, n)`` row panels — the internal
        workspace layout; a width-1 tape also takes an ``(n,)`` vector
        and returns one.  Callers holding ``(n, k)`` column panels
        transpose at the boundary.  Returns a fresh iterate; under an
        active check region it is verified against the interpreted cycle
        first, and checked to share no memory with the workspace.
        """
        if self.is_stale():
            raise _stale_error()
        ws = self.workspace
        np.copyto(ws.b[0], b, casting="unsafe")
        if x0 is None:
            ws.x[0][...] = 0.0
        else:
            np.copyto(ws.x[0], x0, casting="unsafe")
        check = check_runtime.is_active() and self.check_spmv is not None
        x_before = ws.x[0].copy() if check else None
        self.run_cycle()
        if check:
            self._verify_cycle(x_before)
        if obs_trace.is_active():
            self._fold_observability()
        out = ws.x[0].copy()
        result = out[0] if np.ndim(b) == 1 else out
        if check:
            ws.check_no_escape(result)
        return result

    def apply(self, r: np.ndarray) -> np.ndarray:
        """One zero-guess replayed cycle — the preconditioner application."""
        return self.cycle(r)


def _cycle_shape(params: SolveParams) -> tuple:
    """The SolveParams fields a recorded tape bakes in (iteration count
    and tolerance stay free — they only steer the replay loop)."""
    return (params.cycle_type, params.smoother, params.pre_sweeps,
            params.post_sweeps, params.chebyshev_degree)


def _postmortem(stats: SolveStats, norm0: float, column: int | None) -> None:
    """Flight-recorder summary of one solved column, plus a divergence
    bundle when its residual grew an order of magnitude — a diverged
    solve, not merely an unconverged one."""
    from repro.obs import blackbox as obs_blackbox

    rel = stats.residual_history[-1] / norm0 if norm0 else 0.0
    where = "amg_solve" if column is None else f"amg_solve column {column}"
    obs_blackbox.record(
        "amg_solve", iterations=stats.iterations,
        converged=stats.converged, rel_residual=rel, column=column,
    )
    if not stats.converged and rel > 10.0:
        obs_blackbox.trigger(
            "divergence",
            detail=(
                f"{where}: residual grew {rel:.3g}x over "
                f"{stats.iterations} cycles"
            ),
            extra={
                "iterations": stats.iterations,
                "column": column,
                "residual_tail": [
                    float(r) for r in stats.residual_history[-10:]
                ],
            },
        )


def taped_solve(
    tape: CycleTape,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    params: SolveParams | None = None,
) -> tuple[np.ndarray, SolveStats | list[SolveStats]]:
    """Iterate the recorded cycle until convergence or the iteration cap
    (paper: 50) — the solve phase's one loop.

    *b* is an ``(n,)`` vector (returns the ``(n,)`` iterate and one
    :class:`SolveStats`) or an ``(n, k)`` panel of right-hand-side
    columns (returns the ``(n, k)`` block and one :class:`SolveStats` per
    column); the tape's ``batch`` must match the number of right-hand
    sides.  Column j of a panel result, and its stats, are bit-identical
    to the vector solve of ``b[:, j]``.

    The relative residual is measured with one extra SpMV per iteration
    (plus one for the initial residual), matching the paper's call count
    of ``iterations * (5 * (levels - 1) + 1) + 1``.  The default
    ``params.tolerance`` is ``0.0`` — *paper mode*: every iteration runs,
    but a column's ``converged`` flag is still set once its residual
    reaches the tolerance *or* underflows the float64 machine-precision
    floor ``norm0 * eps``.  With a positive tolerance a column that
    converges is *frozen* — its iterate snapshotted, its stats stop
    advancing — exactly where its own vector solve would have stopped,
    and the loop ends once every column is frozen.

    Under an active check region every cycle is differentially verified
    against the interpreted cycle, column by column, and the result is
    checked to share no memory with the workspace.  Traced solves emit
    per-column convergence telemetry and kernel spans; every solved
    column leaves a flight-recorder event, and a diverged column a
    postmortem bundle.

    *params* may override the tape's iteration cap and tolerance; its
    cycle-shape fields must match the recorded shape.
    """
    if tape.is_stale():
        raise _stale_error()
    if params is None:
        params = tape.params
    elif _cycle_shape(params) != _cycle_shape(tape.params):
        raise ValueError(
            f"tape recorded for cycle shape {_cycle_shape(tape.params)}, "
            f"got {_cycle_shape(params)}; re-record for this shape"
        )
    hierarchy = tape.hierarchy
    ws = tape.workspace
    n = hierarchy.levels[0].n
    vector = np.ndim(b) == 1
    rows = normalize_rhs(b, n)[None] if vector else normalize_rhs_panel(b, n).T
    k = rows.shape[0]
    if k != tape.batch:
        raise ValueError(
            f"tape was recorded for width {tape.batch}, got {k} right-hand "
            f"side(s); record a width-{k} tape"
        )
    residual_run = tape.residual_run
    if residual_run is None:
        raise RuntimeError("tape has no residual binding; re-record")
    stats = [SolveStats() for _ in range(k)]
    check = check_runtime.is_active() and tape.check_spmv is not None
    traced = obs_trace.is_active()

    bp = ws.b[0]
    np.copyto(bp, rows)
    x = ws.x[0]
    if x0 is None:
        x[...] = 0.0
    elif vector:
        np.copyto(x, x0, casting="unsafe")
    else:
        x0 = normalize_rhs_panel(x0, n, name="x0")
        if x0.shape[1] != k:
            raise ValueError(
                f"x0 has {x0.shape[1]} columns, expected {k} (one per "
                "right-hand side)"
            )
        np.copyto(x, x0.T, casting="unsafe")
    r = ws.r[0]
    res_record = tape.residual_record
    residual_attrs = span_attrs("solve", 0, () if res_record is None
                                else (res_record,))

    def residual() -> None:
        if traced:
            with obs_trace.TRACER.open("spmv", "kernel", residual_attrs):
                np.subtract(bp, residual_run(x), out=r)
        else:
            np.subtract(bp, residual_run(x), out=r)

    psp = obs_trace.phase_span("solve")
    with psp:
        tels = [
            obs_conv.start_solve(
                "amg", cycle_type=params.cycle_type, smoother=params.smoother,
                levels=hierarchy.num_levels, taped=True, batch=k, column=j,
            )
            for j in range(k)
        ]
        residual()
        norms0 = [float(np.linalg.norm(r[j])) for j in range(k)]
        done = [False] * k
        for j, st in enumerate(stats):
            st.spmv_calls += 1
            st.residual_history.append(norms0[j])
            if tels[j] is not None:
                tels[j].record_initial(norms0[j])
            if norms0[j] == 0.0:
                st.converged = done[j] = True
        # Frozen per-column results: row j is overwritten the moment
        # column j's own solve would have returned.
        x_final = x.copy()
        eps = float(np.finfo(np.float64).eps)
        per_cycle = tape.spmv_calls_per_cycle + 1
        todo = 0 if all(done) else params.max_iterations
        for it in range(todo):
            csp = (
                obs_trace.TRACER.open(
                    f"cycle[{it}]", "cycle",
                    {"iteration": it, "taped": True, "batch": k},
                )
                if traced
                else obs_trace.NULL_SPAN
            )
            with csp:
                x_before = x.copy() if check else None
                tape.run_cycle()
                if check:
                    tape._verify_cycle(x_before)
                if traced:
                    tape._fold_observability()
                residual()
            for j, st in enumerate(stats):
                if done[j]:
                    continue
                st.spmv_calls += per_cycle
                rnorm = float(np.linalg.norm(r[j]))
                st.residual_history.append(rnorm)
                st.iterations = it + 1
                if tels[j] is not None:
                    tels[j].record_iteration(rnorm, csp if csp else None)
                # Converged when the residual meets the tolerance, or
                # underflows machine precision (norm0 * eps): in paper mode
                # a residual of ~1e-17 * norm0 is converged by any usable
                # definition even though every iteration still runs.
                if rnorm <= max(params.tolerance * norms0[j], norms0[j] * eps):
                    st.converged = True
                    if params.tolerance > 0:
                        done[j] = True
                        x_final[j] = x[j]
            if params.tolerance > 0 and all(done):
                break
        for j, st in enumerate(stats):
            if not done[j]:
                x_final[j] = x[j]
            if tels[j] is not None:
                tels[j].converged = st.converged
            _postmortem(st, norms0[j], None if vector else j)
    result = x_final[0] if vector else np.ascontiguousarray(x_final.T)
    if check:
        ws.check_no_escape(result)
    return result, (stats[0] if vector else stats)
