"""Smoothers for the solve phase.

The paper's configuration uses L1-Jacobi with one sweep per pre/post
smoothing step.  The sweep is expressed exactly as Alg. 2 writes it:

``x_{i+1} = x_i + D^{-1} (b - A x_i)``

so each sweep costs one SpMV (the ``A x_i`` term) plus cheap vector
updates, which is why SpMV dominates the solve phase.  The SpMV is
injected by the caller so the backend (CSR baseline vs mBSR tensor-core,
at the level's precision) and its timing are controlled from one place.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names

__all__ = [
    "l1_jacobi_diagonal",
    "weighted_jacobi_diagonal",
    "jacobi_sweep",
    "gauss_seidel_sweep",
    "estimate_spectral_radius",
    "chebyshev_smooth",
    "bind_l1_jacobi",
    "bind_chebyshev",
    "bind_gauss_seidel",
]

SpMVFn = Callable[[np.ndarray], np.ndarray]


def l1_jacobi_diagonal(a: CSRMatrix) -> np.ndarray:
    """The L1-Jacobi smoothing diagonal: ``d_i = sum_j |a_ij|``.

    Guaranteed convergent for symmetric diagonally-dominant problems and
    the default GPU smoother of HYPRE.  Zero rows get d = 1 so the sweep
    stays well defined.
    """
    d = a.abs_row_sums()
    return np.where(d > 0, d, 1.0)


def weighted_jacobi_diagonal(a: CSRMatrix, weight: float = 2.0 / 3.0) -> np.ndarray:
    """Classic weighted-Jacobi diagonal ``d_i = a_ii / weight``."""
    diag = a.diagonal().astype(np.float64)
    safe = np.where(diag != 0, diag, 1.0)
    return safe / weight


def jacobi_sweep(
    spmv: SpMVFn,
    dinv: np.ndarray,
    x: np.ndarray,
    b: np.ndarray,
    num_sweeps: int = 1,
) -> np.ndarray:
    """Run ``num_sweeps`` Jacobi iterations using the injected SpMV.

    Parameters
    ----------
    spmv:
        Computes ``A @ v`` (one simulated SpMV call per invocation).
    dinv:
        Reciprocal smoothing diagonal (``1 / d`` precomputed by the caller).
    x, b:
        Current iterate and right-hand side; *x* is not mutated.
    """
    x = np.asarray(x, dtype=np.float64).copy()
    b = np.asarray(b, dtype=np.float64)
    obs_metrics.inc(obs_names.SMOOTHER_APPLICATIONS, kind="jacobi",
                    amount=num_sweeps)
    for _ in range(num_sweeps):
        r = b - np.asarray(spmv(x), dtype=np.float64)
        x += dinv * r
    return x


def gauss_seidel_sweep(
    a: CSRMatrix,
    x: np.ndarray,
    b: np.ndarray,
    num_sweeps: int = 1,
    omega: float = 1.0,
    symmetric: bool = True,
) -> np.ndarray:
    """Host-side (S)SOR / Gauss-Seidel sweeps.

    Sequential triangular sweeps cannot be expressed as device SpMV calls,
    so this smoother runs on the host (hypre likewise falls back to a
    sequential/hybrid variant off the GPU path).  ``symmetric=True`` runs a
    forward then a backward sweep per ``num_sweeps`` (SSOR), keeping the
    smoother symmetric for use under PCG.
    """
    if not (0.0 < omega < 2.0):
        raise ValueError(f"SOR omega must lie in (0, 2), got {omega}")
    obs_metrics.inc(obs_names.SMOOTHER_APPLICATIONS, kind="gauss-seidel",
                    amount=num_sweeps)
    x = np.asarray(x, dtype=np.float64).copy()
    b = np.asarray(b, dtype=np.float64)
    n = a.nrows
    diag = a.diagonal().astype(np.float64)
    safe = np.where(diag != 0, diag, 1.0)
    indptr, indices, data = a.indptr, a.indices, a.data

    def one_direction(order):
        for i in order:
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi]
            sigma = float(vals @ x[cols]) - diag[i] * x[i]
            x[i] += omega * ((b[i] - sigma) / safe[i] - x[i])

    for _ in range(num_sweeps):
        one_direction(range(n))
        if symmetric:
            one_direction(range(n - 1, -1, -1))
    return x


def estimate_spectral_radius(op, n: int, iterations: int = 15, seed: int = 7) -> float:
    """Power-iteration estimate of the spectral radius of *op*.

    Used to bound the spectrum of ``D^{-1} A`` for the Chebyshev smoother.
    A 10% safety margin is added, as is conventional, so the polynomial's
    interval covers the true spectrum.
    """
    if n == 0:
        return 1.0
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    v /= np.linalg.norm(v) or 1.0
    lam = 1.0
    for _ in range(iterations):
        w = np.asarray(op(v), dtype=np.float64)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 1.0
        lam = norm
        v = w / norm
    return 1.1 * lam


def chebyshev_smooth(
    matvec,
    dinv: np.ndarray,
    x: np.ndarray,
    b: np.ndarray,
    degree: int = 3,
    lam_max: float = 2.0,
    lam_min_fraction: float = 0.3,
) -> tuple[np.ndarray, int]:
    """One Chebyshev polynomial smoothing application.

    Standard three-term Chebyshev acceleration of Jacobi over the interval
    ``[lam_min_fraction * lam_max, lam_max]`` of the D-scaled spectrum —
    the smoother targets only the upper (high-frequency) part, as in
    hypre's polynomial smoother.  Returns the smoothed iterate and the
    number of matvec calls consumed (``degree``), so the caller can charge
    them to the solve-phase SpMV budget.

    *x* and *b* may also be ``(k, n)`` row panels (with a panel
    *matvec*): the recurrence scalars (``theta``, ``delta``, ``rho``) are
    shared by every column and every array update is elementwise, so row
    j of the panel result is bit-identical to the width-1 call on row j.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    obs_metrics.inc(obs_names.SMOOTHER_APPLICATIONS, kind="chebyshev")
    x = np.asarray(x, dtype=np.float64).copy()
    b = np.asarray(b, dtype=np.float64)
    lam_min = lam_min_fraction * lam_max
    theta = 0.5 * (lam_max + lam_min)
    delta = 0.5 * (lam_max - lam_min)
    if theta == 0:
        return x, 0

    calls = 0
    r = dinv * (b - np.asarray(matvec(x), dtype=np.float64))
    calls += 1
    d = r / theta
    x = x + d
    if degree == 1:
        return x, calls
    sigma = theta / delta if delta != 0 else 1e30
    rho = 1.0 / sigma
    for _ in range(degree - 1):
        r = dinv * (b - np.asarray(matvec(x), dtype=np.float64))
        calls += 1
        rho_new = 1.0 / (2.0 * sigma - rho)
        d = rho_new * rho * d + (2.0 * rho_new / delta) * r
        rho = rho_new
        x = x + d
    return x, calls


# ----------------------------------------------------------------------
# Tape bindings: sweeps recorded against fixed workspace slots.
#
# Each ``bind_*`` returns a zero-argument closure that applies the
# configured sweeps *in place* on the tape's x-slot, reading the b-slot —
# the sweep's algebra fully bound at record time.  Bit-identity with the
# interpreted ``repro.amg.cycle._apply_smoother`` is the contract: the
# closures use ``np.subtract/np.multiply/np.add`` with ``out=`` operands,
# which round identically to the fresh-allocation expressions they
# replace (same ufunc inner loops, element-wise, no aliasing hazards).
# ----------------------------------------------------------------------

def bind_l1_jacobi(
    run_a: SpMVFn,
    dinv: np.ndarray,
    x: np.ndarray,
    b: np.ndarray,
    r: np.ndarray,
    t: np.ndarray,
    num_sweeps: int,
) -> Callable[[], None]:
    """Record ``num_sweeps`` L1-Jacobi sweeps onto slots *x*, *b*.

    Per sweep: ``r = b - A x`` (``r`` slot), ``t = dinv * r`` (scratch
    slot) and ``x += t`` — exactly ``x + dinv * (b - A x)`` of the
    interpreted sweep, with the intermediates landing in tape-owned
    buffers instead of fresh arrays.

    The same closure serves batched tapes verbatim: with ``(k, n)``
    row-panel slots and a panel ``run_a``, ``dinv`` (shape ``(n,)``)
    broadcasts across the panel rows and every ufunc applies its scalar
    inner loop per element — each row of the panel sweep is bit-identical
    to the width-1 sweep on that row.
    """

    def sweeps() -> None:
        for _ in range(num_sweeps):
            np.subtract(b, run_a(x), out=r)
            np.multiply(dinv, r, out=t)
            np.add(x, t, out=x)

    return sweeps


def bind_chebyshev(
    run_a: SpMVFn,
    dinv: np.ndarray,
    x: np.ndarray,
    b: np.ndarray,
    degree: int,
    lam_max: float,
    num_sweeps: int,
) -> Callable[[], None]:
    """Record Chebyshev smoothing onto slots *x*, *b*.

    The three-term recurrence carries scalar state across its inner
    matvecs, so the sweep replays :func:`chebyshev_smooth` itself with
    the bound matvec (``lam_max`` frozen at record time); only the final
    iterate is copied back into the x-slot.

    Batched tapes reuse this closure unchanged with ``(k, n)`` row-panel
    slots and a panel matvec: the recurrence coefficients are scalars
    shared by every column, ``dinv`` broadcasts across the panel rows,
    and all updates are elementwise — per-row bit-identity with the
    width-1 sweep follows (see :func:`chebyshev_smooth`).
    """

    def sweeps() -> None:
        xi = x
        for _ in range(num_sweeps):
            xi, _ = chebyshev_smooth(run_a, dinv, xi, b,
                                     degree=degree, lam_max=lam_max)
        x[...] = xi

    return sweeps


def bind_gauss_seidel(a: CSRMatrix, x: np.ndarray, b: np.ndarray,
                      num_sweeps: int) -> Callable[[], None]:
    """Record host-side (S)SOR sweeps onto ``(k, n)`` row-panel slots
    *x*, *b*.

    The triangular sweeps run one panel row at a time — the sequential
    dependence chain of Gauss-Seidel runs *within* a right-hand side, so
    the per-row loop is exactly k independent width-1 sweeps (bit-identity
    per column by construction).
    """

    def sweeps() -> None:
        for j in range(x.shape[0]):
            x[j] = gauss_seidel_sweep(a, x[j], b[j], num_sweeps=num_sweeps)

    return sweeps
