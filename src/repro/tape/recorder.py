"""Record one multigrid cycle into a :class:`~repro.tape.tape.CycleTape`.

The recorder walks the exact recursion of
:func:`repro.amg.cycle.mg_cycle` — pre-smooth, residual, restrict,
coarse visits (V/W/F), correct, post-smooth — but instead of executing
kernels it *emits* fully-bound closures over the tape's workspace slots.
Kernel dispatch is resolved here, once: each (level, operator) pair is
bound through the supplied binding factory (the backend's
``bind_matvec``) at the tape's panel width, freezing the TC/CUDA plan,
the precision cast and the operator's tile contraction into the closure.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.amg import smoothers
from repro.amg.cycle import SolveParams, _default_spmv
from repro.amg.hierarchy import AMGHierarchy
from repro.kernels.spmv import SpMVBinding
from repro.kernels.record import span_attrs as kernel_span_attrs
from repro.tape.tape import CycleTape, TapeOp, Workspace

__all__ = ["record_cycle"]


def _spmv_bindings(spmv):
    """Wrap an injected ``LevelSpMV`` closure as a binding factory.

    Used when recording against an injected closure or the host CSR
    fallback: the replay still skips the cycle recursion and all
    workspace allocations, it just cannot skip the wrapped call itself.
    A panel calls the closure once per row — no kernel to block, so the
    row loop is both the implementation and the bit-identity argument.
    There is no kernel cost template to replicate (``record`` is None).
    """

    def factory(level: int, op: str, width: int) -> SpMVBinding:
        def run1(v: np.ndarray) -> np.ndarray:
            return np.asarray(spmv(level, op, v), dtype=np.float64)

        def run(x: np.ndarray) -> np.ndarray:
            return run1(x) if x.ndim == 1 else np.stack([run1(xj) for xj in x])

        return SpMVBinding(run, None)

    return factory


def _bind_residual(run_a, b, x, r):
    def op() -> None:
        np.subtract(b, run_a(x), out=r)

    return op


def _bind_restrict(run_r, r, b_next, x_next):
    def op() -> None:
        tmp = run_r(r)
        b_next[...] = tmp
        x_next[...] = 0.0

    return op


def _bind_correct(run_p, x_next, x):
    def op() -> None:
        np.add(x, run_p(x_next), out=x)

    return op


def _bind_coarse(solve, b, x):
    """Coarse-level direct solve over a ``(k, n)`` row panel.

    One single-RHS solve per panel row: LAPACK's multi-RHS triangular
    solves are not guaranteed to round per column like the single-RHS
    path, so the loop *is* the bit-identity contract here (the coarse
    system is tiny — the loop is not on the hot path).
    """

    def op() -> None:
        for j in range(x.shape[0]):
            x[j] = solve(b[j])

    return op


class _Recorder:
    def __init__(self, hierarchy, params, bindings, batch):
        self.hierarchy = hierarchy
        self.params = params
        self.bindings = bindings
        self.batch = batch
        self.ws = Workspace(hierarchy, batch)
        self.ops: list[TapeOp] = []
        self.records: list = []
        self.smoother_sweeps: list[tuple[int, int]] = []
        self.estimate_records: list = []
        self._bound: dict[tuple[int, str, int], object] = {}

    def bind(self, level: int, op: str, width: int | None = None):
        """The (level, op) binding at *width* (default: the tape's)."""
        key = (level, op, self.batch if width is None else width)
        binding = self._bound.get(key)
        if binding is None:
            binding = self.bindings(*key)
            self._bound[key] = binding
        return binding

    def emit(self, kind, level, fn, *, spmv_calls=0, record=None,
             span_attrs=None):
        if span_attrs is None:
            span_attrs = kernel_span_attrs(
                "solve", level, () if record is None else (record,))
        self.ops.append(TapeOp(kind, level, fn, spmv_calls, span_attrs))
        if record is not None:
            self.records.extend([record] * spmv_calls)

    # ------------------------------------------------------------------
    def record(self) -> None:
        self._level(0, self.params)

    def _level(self, level: int, params: SolveParams) -> None:
        hierarchy, ws = self.hierarchy, self.ws
        if level == hierarchy.num_levels - 1:
            self.emit(
                "coarse", level,
                _bind_coarse(hierarchy.coarse_solver.solve,
                             ws.b[level], ws.x[level]),
            )
            return
        self._smooth(level, params, params.pre_sweeps)
        bind_a = self.bind(level, "A")
        bind_r = self.bind(level, "R")
        bind_p = self.bind(level, "P")
        if params.cycle_type == "V":
            visits = [params]
        elif params.cycle_type == "W":
            visits = [params, params]
        else:  # F-cycle: a W-style visit then a V-style one
            visits = [params, replace(params, cycle_type="V")]
        for visit_params in visits:
            # Residual + restriction precede every visit (the second visit
            # re-restricts from the corrected iterate); the restrict op
            # also zeroes the coarse x-slot, as the interpreted cycle's
            # fresh accumulator does.
            self.emit(
                "residual", level,
                _bind_residual(bind_a.run, ws.b[level], ws.x[level],
                               ws.r[level]),
                spmv_calls=1, record=bind_a.record,
            )
            self.emit(
                "restrict", level,
                _bind_restrict(bind_r.run, ws.r[level], ws.b[level + 1],
                               ws.x[level + 1]),
                spmv_calls=1, record=bind_r.record,
            )
            self._level(level + 1, visit_params)
            self.emit(
                "correct", level,
                _bind_correct(bind_p.run, ws.x[level + 1], ws.x[level]),
                spmv_calls=1, record=bind_p.record,
            )
        self._smooth(level, params, params.post_sweeps)

    def _smooth(self, level: int, params: SolveParams, num_sweeps: int) -> None:
        if num_sweeps == 0:
            return
        hierarchy, ws = self.hierarchy, self.ws
        lvl = hierarchy.levels[level]
        self.smoother_sweeps.append((level, num_sweeps))
        span_attrs = kernel_span_attrs("solve", level)
        if params.smoother == "l1-jacobi":
            bind_a = self.bind(level, "A")
            fn = smoothers.bind_l1_jacobi(
                bind_a.run, lvl.dinv, ws.x[level], ws.b[level],
                ws.r[level], ws.t[level], num_sweeps,
            )
            self.emit("smooth", level, fn, spmv_calls=num_sweeps,
                      record=bind_a.record, span_attrs=span_attrs)
        elif params.smoother == "chebyshev":
            bind_a = self.bind(level, "A")
            lam_max = lvl.extras.get("cheby_lambda_max")
            if lam_max is None:
                # Same estimator (and cache slot) as the interpreted
                # smoother, run through the bound kernel at record time.
                # Always the width-1 binding: the power iteration works on
                # single vectors, and sharing the estimate across widths
                # keeps the polynomial — hence the bit-identity contract —
                # the same at every batch width.  Its SpMVs are priced like
                # any other: the driver charges their records once.
                bind1 = self.bind(level, "A", 1)

                def op(v: np.ndarray) -> np.ndarray:
                    if bind1.record is not None:
                        self.estimate_records.append(bind1.record)
                    return lvl.dinv * bind1.run(v)

                lam_max = smoothers.estimate_spectral_radius(op, lvl.n)
                lvl.extras["cheby_lambda_max"] = lam_max
            fn = smoothers.bind_chebyshev(
                bind_a.run, lvl.dinv, ws.x[level], ws.b[level],
                params.chebyshev_degree, lam_max, num_sweeps,
            )
            calls = num_sweeps * params.chebyshev_degree
            self.emit("smooth", level, fn, spmv_calls=calls,
                      record=bind_a.record, span_attrs=span_attrs)
        else:  # gauss-seidel: host-side, no SpMV calls
            fn = smoothers.bind_gauss_seidel(
                lvl.a, ws.x[level], ws.b[level], num_sweeps
            )
            self.emit("smooth", level, fn, span_attrs=span_attrs)


def record_cycle(
    hierarchy: AMGHierarchy,
    params: SolveParams | None = None,
    *,
    bindings=None,
    spmv=None,
    batch: int = 1,
) -> CycleTape:
    """Record one cycle of *params* shape into a replayable tape over
    panels of *batch* right-hand sides.

    Parameters
    ----------
    bindings:
        ``factory(level, op, width) -> binding`` with a ``run`` callable
        taking an ``(ncols,)`` vector or a ``(width, ncols)`` row panel
        and returning float64 in the same layout, plus an optional priced
        ``record`` template — the backend ``bind_matvec`` interface.  The
        tape's ops bind at ``width=batch``; the differential oracle and
        record-time spectral estimates bind at ``width=1``.  When
        omitted, an injected *spmv* closure is wrapped instead, and with
        neither the host CSR matvec of the hierarchy's own operators is
        used — the operand resolution of :func:`repro.amg.cycle.mg_cycle`.
    batch:
        Right-hand sides per replay; the workspace slots are
        ``(batch, n)`` row panels (a single right-hand side is a panel of
        one).
    """
    params = params or SolveParams()
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if bindings is None:
        bindings = _spmv_bindings(spmv or _default_spmv(hierarchy))
    rec = _Recorder(hierarchy, params, bindings, batch)
    rec.record()
    bind_a0 = rec.bind(0, "A")

    def check_spmv(level: int, op: str, v: np.ndarray) -> np.ndarray:
        return rec.bind(level, op, 1).run(v)

    return CycleTape(
        hierarchy=hierarchy,
        params=params,
        workspace=rec.ws,
        ops=tuple(rec.ops),
        records=tuple(rec.records),
        residual_run=bind_a0.run,
        residual_record=bind_a0.record,
        check_spmv=check_spmv,
        smoother_sweeps=tuple(rec.smoother_sweeps),
        estimate_records=tuple(rec.estimate_records),
        batch=batch,
    )
