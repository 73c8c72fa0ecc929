"""Shared fixtures and matrix factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats.csr import CSRMatrix


def random_csr(
    m: int, n: int, density: float = 0.1, seed: int = 0, dtype=np.float64
) -> CSRMatrix:
    """Random CSR matrix with normal values (helper, not a fixture)."""
    rng = np.random.default_rng(seed)
    mat = sp.random(m, n, density=density, random_state=rng, format="csr")
    mat.data[:] = rng.normal(size=mat.nnz)
    mat.eliminate_zeros()
    return CSRMatrix(mat.shape, mat.indptr, mat.indices, mat.data.astype(dtype))


def random_spd_csr(n: int, density: float = 0.1, seed: int = 0) -> CSRMatrix:
    """Random SPD CSR matrix (A + A^T + diagonal shift)."""
    a = random_csr(n, n, density, seed)
    at = a.transpose()
    sym = a.add(at)
    shift = sym.abs_row_sums() + 1.0
    diag = CSRMatrix.from_coo(np.arange(n), np.arange(n), shift, (n, n))
    return sym.add(diag)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(params=[(1, 1), (4, 4), (7, 5), (16, 16), (33, 29)])
def shape(request) -> tuple[int, int]:
    """Shapes covering the 4-alignment edge cases of the tile formats."""
    return request.param


def backend_spmv(solver):
    """The width-1 backend SpMV of an :class:`~repro.amg.solver.AmgTSolver`
    as a ``LevelSpMV`` closure: the same bindings its tapes replay, bound
    once per (level, operator), conversions charged to a scratch log."""
    from repro.perf.timeline import PerformanceLog

    driver, log, bound = solver._driver, PerformanceLog(), {}

    def spmv(level: int, op: str, x: np.ndarray) -> np.ndarray:
        binding = bound.get((level, op))
        if binding is None:
            binding = driver.backend.bind_matvec(
                driver._wrapped[level][op], log, "solve", level
            )
            bound[(level, op)] = binding
        return binding.run(x)

    return spmv


def reference_solve(hierarchy, b, x0=None, spmv=None, params=None):
    """Whole-solve reference: iterate the interpreted ``mg_cycle`` with the
    convergence rules every solve path must reproduce — residual history,
    paper-mode machine-precision floor, early stop under a positive
    tolerance, and the SpMV count (one residual per iteration plus the
    initial one)."""
    from repro.amg.cycle import SolveParams, SolveStats, _default_spmv, mg_cycle

    params = params or SolveParams()
    spmv = spmv or _default_spmv(hierarchy)
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    stats = SolveStats()

    def residual_norm() -> float:
        stats.spmv_calls += 1
        return float(np.linalg.norm(b - np.asarray(spmv(0, "A", x), dtype=np.float64)))

    norm0 = residual_norm()
    stats.residual_history.append(norm0)
    if norm0 == 0.0:
        stats.converged = True
        return x, stats
    floor = norm0 * float(np.finfo(np.float64).eps)
    for it in range(params.max_iterations):
        x = mg_cycle(hierarchy, b, x, spmv, params, stats)
        rnorm = residual_norm()
        stats.residual_history.append(rnorm)
        stats.iterations = it + 1
        if rnorm <= max(params.tolerance * norm0, floor):
            stats.converged = True
            if params.tolerance > 0:
                break
    return x, stats
