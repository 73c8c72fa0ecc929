"""repro — a reproduction of *AmgT: Algebraic Multigrid Solver on Tensor
Cores* (SC 2024).

The package implements the paper's full system on a simulated GPU
substrate:

* the **mBSR** unified sparse format (4x4 tiles + per-tile bitmaps),
* the hybrid tensor-core / CUDA-core **SpGEMM** and **SpMV** kernels,
* the complete **AMG** setup and solve phases (PMIS, extended+i
  interpolation via SpGEMM, Galerkin products, L1-Jacobi V-cycles),
* **mixed precision** per-level schedules (FP64 / FP32 / FP16),
* a **HYPRE-style** integration layer with a vendor-CSR baseline,
* a **multi-GPU** simulation layer, and
* the analytical **cost model** standing in for A100 / H100 / MI210
  hardware.

Quickstart::

    import numpy as np
    from repro import AmgTSolver
    from repro.matrices import poisson2d

    A = poisson2d(64)
    solver = AmgTSolver(backend="amgt", device="H100", precision="mixed")
    solver.setup(A)
    result = solver.solve(np.ones(A.nrows), tolerance=1e-8)
    print(result.iterations, result.relative_residual)
    print(solver.performance.summary())
"""

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> defining module.  Resolved on first access (PEP 562), so
#: importing a light subpackage such as the stdlib-only ``repro.lint``
#: does not import the solver, numpy or scipy.
_EXPORTS = {
    "AmgTSolver": "repro.amg.solver",
    "MultiSolveResult": "repro.amg.solver",
    "SolveResult": "repro.amg.solver",
    "SetupParams": "repro.amg.hierarchy",
    "SolveParams": "repro.amg.cycle",
    "amg_setup": "repro.amg.hierarchy",
    "CSRMatrix": "repro.formats",
    "MBSRMatrix": "repro.formats",
    "get_device": "repro.gpu",
    "list_devices": "repro.gpu",
    "Precision": "repro.gpu",
    "pcg": "repro.solvers",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
