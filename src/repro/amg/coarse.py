"""Coarsest-level solver (Alg. 2 line 6).

The coarsest grid is tiny (the paper caps it at ``max_coarse_size = 3``
unknowns and at most 7 levels), so HYPRE solves it with a direct method
(or a short iterative solve).  We provide both: a dense LU factorisation
cached at setup time, and a Jacobi fallback whose SpMV calls are counted —
matching the paper's accounting of "1 or 3 extra SpMVs per iteration" when
the coarsest level runs an iterative method.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.formats.csr import CSRMatrix

__all__ = ["CoarseSolver"]

SpMVFn = Callable[[np.ndarray], np.ndarray]


class CoarseSolver:
    """Direct (dense LU) or iterative coarsest-grid solver."""

    def __init__(self, a: CSRMatrix, method: str = "direct"):
        if method not in ("direct", "jacobi"):
            raise ValueError(f"unknown coarse solver {method!r}")
        self.method = method
        self.n = a.nrows
        self._a = a
        if method == "direct":
            import scipy.linalg

            dense = a.to_dense()
            # Regularise a singular coarsest operator (can happen for
            # semidefinite inputs) so the LU stays usable.
            if self.n:
                scale = max(np.abs(dense).max(), 1.0)
                dense = dense + np.eye(self.n) * scale * 1e-14
                self._lu = scipy.linalg.lu_factor(dense)
                # The LAPACK routine ``lu_solve`` ends in, resolved once:
                # calling it directly skips the per-call wrapper work
                # (batching dispatch, finiteness scan) that costs ~10x the
                # triangular solves on a coarsest grid this small.
                (self._getrs,) = scipy.linalg.get_lapack_funcs(
                    ("getrs",), (self._lu[0], dense[:, 0])
                )
            else:
                self._lu = None
        else:
            from repro.amg.smoothers import l1_jacobi_diagonal

            self._dinv = 1.0 / l1_jacobi_diagonal(a)

    def solve(self, b: np.ndarray, spmv: SpMVFn | None = None, sweeps: int = 20) -> np.ndarray:
        """Solve ``A x = b`` on the coarsest grid.

        For the iterative method a *spmv* callable must be supplied so the
        calls are charged to the solve-phase SpMV budget.
        """
        b = np.asarray(b, dtype=np.float64)
        if self.n == 0:
            return b.copy()
        if not np.all(np.isfinite(b)):
            # Propagate the contamination instead of crashing inside LAPACK;
            # the outer iteration will observe the non-finite residual.
            return np.full_like(b, np.nan)
        if self.method == "direct":
            # Bit-identical to ``scipy.linalg.lu_solve(self._lu, b)``: the
            # same getrs call on the same operands (b is finite, checked
            # above, and never overwritten).
            x, info = self._getrs(*self._lu, b)
            if info:
                raise ValueError(f"illegal value in argument {-info} of getrs")
            return x
        if spmv is None:
            spmv = self._a.matvec
        x = np.zeros_like(b)
        for _ in range(sweeps):
            x = x + self._dinv * (b - np.asarray(spmv(x)))
        return x
