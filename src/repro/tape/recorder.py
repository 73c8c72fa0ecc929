"""Record one multigrid cycle into a :class:`~repro.tape.tape.CycleTape`.

The recorder walks the exact recursion of
:func:`repro.amg.cycle._cycle_at_level` — pre-smooth, residual, restrict,
coarse visits (V/W/F), correct, post-smooth — but instead of executing
kernels it *emits* fully-bound closures over the tape's workspace slots.
Kernel dispatch is resolved here, once: each (level, operator) pair is
bound through the supplied binding factory (the backend's
``bind_matvec``), freezing the TC/CUDA plan, the precision cast and the
operator's tile contraction into the closure.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.amg import smoothers
from repro.amg.cycle import SolveParams
from repro.amg.hierarchy import AMGHierarchy
from repro.tape.tape import CycleTape, TapeOp, Workspace

__all__ = ["record_cycle"]


class _WrappedBinding:
    """Adapter giving closure-based SpMVs the binding interface.

    Used when recording against an injected ``LevelSpMV`` closure or the
    host CSR fallback: the replay still skips the cycle recursion and all
    workspace allocations, it just cannot skip the wrapped call itself.
    ``record`` stays ``None`` — there is no kernel cost template to
    replicate.
    """

    __slots__ = ("run", "record")

    def __init__(self, run):
        self.run = run
        self.record = None


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
    def op() -> None:
        x[...] = solve(b)

    return op


def _bind_coarse_panel(solve, b, x):
    """Coarse-level direct solve over a ``(k, n)`` row panel.

    One width-1 solve per panel row: LAPACK's multi-RHS triangular solves
    are not guaranteed to round per column like the single-RHS path, so
    the loop *is* the bit-identity contract here (the coarse system is
    tiny — the loop is not on the hot path).
    """

    def op() -> None:
        for j in range(x.shape[0]):
            x[j] = solve(b[j])

    return op


class _Recorder:
    def __init__(self, hierarchy, params, bindings, batch=None,
                 scalar_bindings=None):
        self.hierarchy = hierarchy
        self.params = params
        self.bindings = bindings
        self.batch = batch
        #: Width-1 binding factory of a batch recording — the source of
        #: the differential oracle's ``check_spmv`` and of record-time
        #: spectral estimates (which run on single vectors).
        self.scalar_bindings = scalar_bindings
        self.ws = Workspace(hierarchy, batch)
        self.ops: list[TapeOp] = []
        self.records: list = []
        self.smoother_sweeps: list[tuple[int, int]] = []
        self._bound: dict[tuple[int, str], object] = {}
        self._scalar_bound: dict[tuple[int, str], object] = {}

    def bind(self, level: int, op: str):
        key = (level, op)
        binding = self._bound.get(key)
        if binding is None:
            binding = self.bindings(level, op)
            self._bound[key] = binding
        return binding

    def scalar_bind(self, level: int, op: str):
        """Width-1 binding for the (level, op) pair: the binding itself
        when recording width-1, the scalar factory's otherwise."""
        if self.batch is None:
            return self.bind(level, op)
        key = (level, op)
        binding = self._scalar_bound.get(key)
        if binding is None:
            binding = self.scalar_bindings(level, op)
            self._scalar_bound[key] = binding
        return binding

    def emit(self, kind, level, fn, *, spmv_calls=0, record=None, repeat=0):
        self.ops.append(TapeOp(kind, level, fn, spmv_calls))
        if record is not None:
            self.records.extend([record] * (repeat or spmv_calls))

    # ------------------------------------------------------------------
    def record(self) -> None:
        self._level(0, self.params)

    def _level(self, level: int, params: SolveParams) -> None:
        hierarchy, ws = self.hierarchy, self.ws
        if level == hierarchy.num_levels - 1:
            bind_coarse = _bind_coarse if self.batch is None \
                else _bind_coarse_panel
            self.emit(
                "coarse", level,
                bind_coarse(hierarchy.coarse_solver.solve,
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
        if params.smoother == "l1-jacobi":
            bind_a = self.bind(level, "A")
            fn = smoothers.bind_l1_jacobi(
                bind_a.run, lvl.dinv, ws.x[level], ws.b[level],
                ws.r[level], ws.t[level], num_sweeps,
            )
            self.emit("smooth", level, fn,
                      spmv_calls=num_sweeps, record=bind_a.record)
        elif params.smoother == "chebyshev":
            bind_a = self.bind(level, "A")
            lam_max = lvl.extras.get("cheby_lambda_max")
            if lam_max is None:
                # Same estimator (and cache slot) as the interpreted
                # smoother, run through the bound kernel at record time.
                # Always the width-1 binding: the power iteration works on
                # single vectors, and sharing the estimate with width-1
                # tapes keeps the polynomial — hence the bit-identity
                # contract — the same at every batch width.
                scalar_a = self.scalar_bind(level, "A")
                lam_max = smoothers.estimate_spectral_radius(
                    lambda v: lvl.dinv * scalar_a.run(v), lvl.n
                )
                lvl.extras["cheby_lambda_max"] = lam_max
            fn = smoothers.bind_chebyshev(
                bind_a.run, lvl.dinv, ws.x[level], ws.b[level],
                params.chebyshev_degree, lam_max, num_sweeps,
            )
            calls = num_sweeps * params.chebyshev_degree
            self.emit("smooth", level, fn,
                      spmv_calls=calls, record=bind_a.record)
        else:  # gauss-seidel: host-side, no SpMV calls
            fn = smoothers.bind_gauss_seidel(
                lvl.a, ws.x[level], ws.b[level], num_sweeps
            )
            self.emit("smooth", level, fn)


def _default_bindings(hierarchy: AMGHierarchy):
    """Host CSR matvec bindings — the twin of ``cycle._default_spmv``."""
    table = [
        {"A": lvl.a, "R": lvl.r, "P": lvl.p} for lvl in hierarchy.levels
    ]

    def factory(level: int, op: str) -> _WrappedBinding:
        mat = table[level][op]
        return _WrappedBinding(
            lambda v: np.asarray(mat.matvec(v), dtype=np.float64)
        )

    return factory


def _spmv_bindings(spmv):
    """Wrap an injected ``LevelSpMV`` closure as a binding factory."""

    def factory(level: int, op: str) -> _WrappedBinding:
        return _WrappedBinding(
            lambda v: np.asarray(spmv(level, op, v), dtype=np.float64)
        )

    return factory


def _widen_bindings(scalar_factory, batch: int):
    """Lift a width-1 binding factory to the ``(batch, n)`` row-panel
    interface by looping the scalar run per panel row.

    This is the fallback panel path for host matvecs and injected SpMV
    closures — no kernel to block, so the column loop is both the
    implementation and the bit-identity argument.  Backends with real
    blocked kernels pass their own panel factory instead.
    """

    def factory(level: int, op: str) -> _WrappedBinding:
        base = scalar_factory(level, op)
        run1 = base.run

        def run(panel: np.ndarray) -> np.ndarray:
            y0 = run1(panel[0])
            out = np.empty((batch, y0.shape[0]), dtype=np.float64)
            out[0] = y0
            for j in range(1, batch):
                out[j] = run1(panel[j])
            return out

        wrapped = _WrappedBinding(run)
        wrapped.record = base.record
        return wrapped

    return factory


def record_cycle(
    hierarchy: AMGHierarchy,
    params: SolveParams | None = None,
    *,
    bindings=None,
    spmv=None,
    batch: int | None = None,
    scalar_bindings=None,
) -> CycleTape:
    """Record one cycle of *params* shape into a replayable tape.

    Parameters
    ----------
    bindings:
        ``factory(level, op) -> binding`` with a ``run(x) -> float64``
        callable and an optional priced ``record`` template (the backend
        ``bind_matvec`` interface).  When omitted, an injected *spmv*
        closure is wrapped instead, and with neither the host CSR matvec
        of the hierarchy's own operators is used — mirroring the operand
        resolution of :func:`repro.amg.cycle.amg_solve`.
    batch:
        Record a *batched* tape over ``(batch, n)`` row-panel workspace
        slots, replayed with :func:`repro.tape.tape.taped_solve_multi`.
        With an explicit *bindings* factory it must return panel bindings
        (``run`` maps ``(batch, ncols) -> (batch, nrows)``, e.g. the
        backend's ``bind_matmat``) and *scalar_bindings* must supply the
        width-1 factory — the differential oracle and record-time
        spectral estimates run width-1 by contract.  Default/injected
        SpMV closures are widened automatically by looping per row.
    """
    params = params or SolveParams()
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if bindings is None:
        scalar = _spmv_bindings(spmv) if spmv is not None \
            else _default_bindings(hierarchy)
        if batch is None:
            bindings = scalar
        else:
            if scalar_bindings is None:
                scalar_bindings = scalar
            bindings = _widen_bindings(scalar_bindings, batch)
    elif batch is not None and scalar_bindings is None:
        raise ValueError(
            "batch recording with an explicit bindings factory requires "
            "scalar_bindings (the width-1 factory) for the differential "
            "oracle and spectral estimates"
        )
    rec = _Recorder(hierarchy, params, bindings, batch=batch,
                    scalar_bindings=scalar_bindings)
    rec.record()
    bind_a0 = rec.bind(0, "A")

    def check_spmv(level: int, op: str, v: np.ndarray) -> np.ndarray:
        return rec.scalar_bind(level, op).run(v)

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
        batch=batch,
    )
