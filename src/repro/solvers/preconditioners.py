"""Preconditioner protocol shared by the Krylov solvers.

The solvers accept ``preconditioner=`` as either a plain callable
``M(r) -> z`` or an object exposing ``.apply(r)`` — the interface of
:class:`VCyclePreconditioner` (and of the kernel tape's
:meth:`repro.tape.CycleTape.apply`).  :func:`resolve_preconditioner`
normalises both to a callable once, outside the iteration loop.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["VCyclePreconditioner", "resolve_preconditioner"]

MatVec = Callable[[np.ndarray], np.ndarray]


class VCyclePreconditioner:
    """One AMG V-cycle per application, replayed from the kernel tape.

    Wraps a :class:`repro.hypre.boomeramg.BoomerAMG` driver; every
    application replays the driver's recorded cycle tape (recorded on
    first use, re-recorded if the hierarchy changes).
    """

    def __init__(self, driver):
        self._driver = driver

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Apply one V-cycle to *r*.

        *r* may be a single ``(n,)`` residual or an ``(n, k)`` panel,
        which comes back column-for-column bit-identical to ``k`` single
        applications (see
        :meth:`~repro.hypre.boomeramg.BoomerAMG.precondition`).
        """
        return self._driver.precondition(r)

    __call__ = apply


def resolve_preconditioner(preconditioner) -> MatVec:
    """Normalise *preconditioner* to a callable (identity when ``None``)."""
    if preconditioner is None:
        return lambda r: r
    apply_fn = getattr(preconditioner, "apply", None)
    if callable(apply_fn):
        return apply_fn
    return preconditioner
