"""R9 — stale-closure-capture.

A ``def``/``lambda`` created inside a loop that reads a loop-carried
name (the loop target, or a name reassigned in the loop body) without
binding it as a parameter or default.  Python closes over *variables*,
not values: every closure minted by the loop sees the final iteration's
value — the classic late-binding bug in ``tape/recorder.py``-style
binding loops.  Closures that are invoked immediately are exempt; the
fix is the repo's convention of minting through a factory function
(``_bind_residual(…)``) or a ``lam=lam`` default.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.finding import Finding, make_finding

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _assigned_names(body: list[ast.stmt]) -> set[str]:
    """Names bound by statements in *body*, excluding nested defs."""
    names: set[str] = set()
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FUNC_NODES, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _target_names(target: ast.expr) -> set[str]:
    return {
        n.id
        for n in ast.walk(target)
        if isinstance(n, ast.Name)
    }


def _closure_bound(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
    """Names a closure binds itself: params and local assignments."""
    args = node.args
    bound = {
        p.arg
        for p in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    if isinstance(node.body, list):
        for stmt in node.body:
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    bound.add(n.id)
    return bound


def _free_reads(node) -> set[str]:
    body = node.body if isinstance(node.body, list) else [node.body]
    reads: set[str] = set()
    for stmt in body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
    return reads


class _LoopCaptureVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        #: stack of name-sets bound per enclosing loop.
        self.loop_vars: list[set[str]] = []
        self.findings: list[Finding] = []
        #: closures that are invoked on the spot (safe).
        self._called_now: set[int] = set()

    # -- loops ----------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        bound = _target_names(node.target) | _assigned_names(node.body)
        self.loop_vars.append(bound)
        self.generic_visit(node)
        self.loop_vars.pop()

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self.loop_vars.append(_assigned_names(node.body))
        self.generic_visit(node)
        self.loop_vars.pop()

    def _visit_comprehension(self, node) -> None:
        bound: set[str] = set()
        for gen in node.generators:
            bound |= _target_names(gen.target)
        self.loop_vars.append(bound)
        self.generic_visit(node)
        self.loop_vars.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- closures -------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Lambda):
            self._called_now.add(id(node.func))
        self.generic_visit(node)

    def _check_closure(self, node) -> None:
        if not self.loop_vars or id(node) in self._called_now:
            return
        loop_bound = set().union(*self.loop_vars)
        captured = sorted(
            (_free_reads(node) - _closure_bound(node)) & loop_bound
        )
        if captured:
            label = getattr(node, "name", "<lambda>")
            self.findings.append(
                make_finding(
                    "R9", self.ctx.path, node.lineno,
                    f"closure {label!r} captures loop variable(s) "
                    f"{', '.join(repr(c) for c in captured)} by reference: "
                    "every closure minted by this loop will see the *last* "
                    "iteration's value at call time — bind through a "
                    "factory function or a default argument "
                    f"({captured[0]}={captured[0]})",
                )
            )

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_closure(node)
        # Do not descend: the lambda body is the closure's scope.

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_closure(node)
        # Descend with loop context cleared: loops *inside* the closure
        # are that closure's own business.
        outer, self.loop_vars = self.loop_vars, []
        self.generic_visit(node)
        self.loop_vars = outer

    visit_AsyncFunctionDef = visit_FunctionDef


def check_stale_closure_capture(ctx: ModuleContext) -> list[Finding]:
    """R9: late-binding loop-variable capture in binding loops."""
    visitor = _LoopCaptureVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.findings
