"""R5 — hot-loop allocation (advisory).

PR 1's operator cache exists because per-call allocation and index
rebuilding dominated the host kernels.  Allocations *inside loops* in
``kernels/`` and ``formats/`` are the same smell one level down: each
iteration pays an allocator round-trip that a hoisted buffer or a cache
entry would amortise.  The same applies to the Krylov iteration loops
in ``solvers/`` (every in-loop allocation repeats once per solver
iteration) and to the tape replay loop in ``tape/`` (whose contract is
an allocation-free steady state), so both subtrees are in scope; the
flagged constructors include the repo's own ``accumulator(...)`` helper
alongside the raw numpy allocators.  The finding is advisory — small
fixed-trip loops (the 4-iteration bitmap sweeps) are often fine — so it
never fails the run; it exists to feed the cache-candidate backlog.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import is_numpy_attr, unparse
from repro.lint.context import ModuleContext
from repro.lint.finding import Finding, make_finding


def _is_alloc(func: ast.expr) -> bool:
    if is_numpy_attr(func, "zeros", "empty", "concatenate"):
        return True
    # The repo's own allocator: ``accumulator(n)`` from
    # repro.amg.precision, conventionally imported bare.
    return isinstance(func, ast.Name) and func.id == "accumulator"


class _LoopAllocVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.loop_depth = 0
        self.findings: list[Finding] = []

    def _enter_loop(self, node) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    visit_For = _enter_loop
    visit_While = _enter_loop

    def _enter_def(self, node) -> None:
        # A nested def's body does not run as part of the enclosing loop;
        # its own loops start from depth 0.
        outer, self.loop_depth = self.loop_depth, 0
        self.generic_visit(node)
        self.loop_depth = outer

    visit_FunctionDef = _enter_def
    visit_AsyncFunctionDef = _enter_def

    def visit_Call(self, node: ast.Call) -> None:
        if self.loop_depth > 0 and _is_alloc(node.func):
            text = unparse(node)
            if len(text) > 60:
                text = text[:57] + "..."
            self.findings.append(
                make_finding(
                    "R5",
                    self.ctx.path,
                    node.lineno,
                    f"allocation {text!r} inside a loop: hoist the "
                    "buffer or move it into the per-operator cache if "
                    "the loop is on a kernel hot path",
                )
            )
        self.generic_visit(node)


def check_hot_loop_alloc(ctx: ModuleContext) -> list[Finding]:
    if not ctx.in_hot_loop_scope():
        return []
    visitor = _LoopAllocVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.findings
