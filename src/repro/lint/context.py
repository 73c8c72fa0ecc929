"""Per-file analysis context: source, AST, scope classification.

Rules are scoped by where a module sits inside the ``repro`` package —
the dtype-flow rules only make sense in the kernel/format/solver layers,
the scatter-ban exempts the segmented-reduction engine itself, and the
constant-provenance rule must not flag the modules that *define* the
constants.  Files outside the package (test fixtures, ad-hoc snippets)
get every rule: the analyzer is strictest when it knows nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: Package subtrees whose kernels move quantised values around; the
#: dtype-flow expression checks (R1 scalar-mix / silent widening) apply.
KERNEL_SCOPE_DIRS = ("kernels", "formats", "amg", "hypre", "dist", "gpu")

#: Solve-phase modules whose zero-initialised work vectors are
#: *accumulators* in the paper's sense; R1 requires them to be created
#: via the repro.amg.precision helpers (explicit dtype provenance).
ACCUMULATOR_SCOPE = (
    "amg/cycle.py",
    "amg/solver.py",
    "amg/coarse.py",
    "amg/smoothers.py",
    "solvers/cg.py",
    "solvers/gmres.py",
    "solvers/bicgstab.py",
)

#: The one module allowed to touch the unbuffered ufunc scatter path.
SCATTER_ENGINE = "util/segops.py"

#: Subtrees where R5 (hot-loop allocation) applies.  ``solvers`` holds
#: the Krylov iteration loops (one allocation there repeats every
#: iteration of every solve) and ``tape`` the record/replay engine whose
#: entire point is an allocation-free replay loop.
HOT_LOOP_SCOPE_DIRS = ("kernels", "formats", "solvers", "tape")

#: Individual modules outside those subtrees where R5 also applies.  The
#: smoother bindings close over tape workspace slots and run inside the
#: replay loop of every batched (and width-1) solve.
HOT_LOOP_SCOPE_FILES = ("amg/smoothers.py",)

#: Constant name -> module (repro-relative) that owns its definition.
#: The owner is exempt from R3 findings *for that constant only*.
CONSTANT_OWNERS = {
    "TC_NNZ_THRESHOLD": "formats/bitmap.py",
    "BLOCK_SIZE": "formats/bitmap.py",
    "TILE_SLOTS": "formats/bitmap.py",
    "VARIATION_THRESHOLD": "kernels/spmv.py",
    "WARP_CAPACITY": "kernels/spmv.py",
    "FRAG_SHAPE": "gpu/mma.py",
}


@dataclass
class ModuleContext:
    """Everything a rule needs to analyse one file."""

    path: str  # as reported in findings (normalised, posix separators)
    source: str
    tree: ast.Module
    #: Path relative to the ``repro`` package root ("kernels/spmv.py"),
    #: or None when the file is not inside a repro package tree.
    repro_relpath: str | None
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    # -- scope predicates ----------------------------------------------
    def _rel(self) -> str | None:
        return self.repro_relpath

    def in_kernel_scope(self) -> bool:
        rel = self._rel()
        if rel is None:
            return not self.is_benchmark()
        return rel.split("/", 1)[0] in KERNEL_SCOPE_DIRS

    def in_accumulator_scope(self) -> bool:
        rel = self._rel()
        if rel is None:
            return not self.is_benchmark()
        return rel in ACCUMULATOR_SCOPE

    def is_scatter_engine(self) -> bool:
        rel = self._rel()
        return rel == SCATTER_ENGINE

    def in_hot_loop_scope(self) -> bool:
        rel = self._rel()
        if rel is None:
            return True
        return (rel.split("/", 1)[0] in HOT_LOOP_SCOPE_DIRS
                or rel in HOT_LOOP_SCOPE_FILES)

    def is_benchmark(self) -> bool:
        """True for files under a ``benchmarks/`` tree outside the package.

        The benches are the perf ground truth, so the scatter, hot-loop,
        closure and metric-name rules (R2/R5/R9/R10) apply there; the
        package-layout rules (R1/R3) do not — bench drivers legitimately
        build matrices with inline literals.
        """
        return self._rel() is None and "benchmarks" in self.path.split("/")

    def owns_constant(self, constant: str) -> bool:
        rel = self._rel()
        return rel is not None and CONSTANT_OWNERS.get(constant) == rel


def repro_relative(path: Path) -> str | None:
    """Path relative to the innermost ``repro`` package dir, if any."""
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, 0, -1):
        if parts[i - 1] == "repro":
            return "/".join(parts[i:])
    return None


def load_module(path: Path, display_path: str | None = None) -> ModuleContext:
    """Read and parse *path*.  Raises ``SyntaxError`` on unparsable input."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleContext(
        path=display_path or path.as_posix(),
        source=source,
        tree=tree,
        repro_relpath=repro_relative(path),
    )
