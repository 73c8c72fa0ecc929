"""The Galerkin product A_coarse = R @ A @ P (Alg. 1 line 5).

Two SpGEMM calls per level — ``RA = R @ A`` then ``RAP = RA @ P`` — which,
together with the one SpGEMM inside interpolation, are the three calls per
level that dominate the setup phase (Fig. 1: 59% of setup time on average).
The SpGEMM implementation is injected so the HYPRE baseline (CSR,
cuSPARSE-style) and AmgT (mBSR, tensor-core) run the identical algebra.
"""

from __future__ import annotations

from typing import Callable

from repro.formats.csr import CSRMatrix

__all__ = ["galerkin_product"]

SpGEMMFn = Callable[[CSRMatrix, CSRMatrix], CSRMatrix]


def _default_spgemm(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    from repro.kernels.baseline import csr_spgemm

    return csr_spgemm(a, b)[0]


def galerkin_product(
    r: CSRMatrix,
    a: CSRMatrix,
    p: CSRMatrix,
    spgemm: SpGEMMFn | None = None,
    *,
    drop_tol: float = 0.0,
) -> CSRMatrix:
    """Compute ``R @ A @ P`` with two SpGEMM calls.

    Parameters
    ----------
    r, a, p:
        Restriction (nc x n), level matrix (n x n), prolongation (n x nc).
    spgemm:
        SpGEMM implementation; defaults to the CSR baseline.
    drop_tol:
        Entries of the product with ``|v| <= drop_tol`` are eliminated
        (numerical cancellation cleanup; 0 keeps exact zeros only).
    """
    if r.ncols != a.nrows or a.ncols != p.nrows or r.nrows != p.ncols:
        raise ValueError(
            f"incompatible Galerkin shapes: R {r.shape}, A {a.shape}, P {p.shape}"
        )
    spgemm = spgemm or _default_spgemm
    ra = spgemm(r, a)
    rap = spgemm(ra, p)
    from repro.check import runtime as check_runtime

    if check_runtime.is_active():
        # Verified before drop-tolerance pruning: the contract covers the
        # two SpGEMM calls, not the (caller-requested) lossy cleanup.
        from repro.check import oracle

        oracle.verify_galerkin(r, a, p, rap)
    if drop_tol >= 0.0:
        rap = rap.eliminate_zeros(drop_tol)
    return rap
