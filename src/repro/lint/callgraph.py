"""Project-wide call graph for the interprocedural lint rules.

The per-file rules of PRs 3–7 each grew a private notion of "delegation"
— R4 followed ``self._helper()`` chains inside one class, R6 followed
``self._impl()`` / module-level ``_impl()`` chains inside one file.
Neither could follow ``kernels/baseline.py::bind_csr_spmv`` into a
private helper of ``kernels/spmv.py``.  This module builds the shared
substrate R4 and R5 run on: every function definition in the linted
tree — module-level functions, class methods and *nested* closures —
indexed by a stable qualified name, with call edges resolved through

* bare local names (nested defs in the enclosing scope chain, then
  module-level functions, then imports),
* ``self.method()`` / ``cls.method()`` same-class dispatch,
* ``import repro.x.y as z`` / ``from repro.x import y`` aliases,
  including one level of relative imports, and
* the implicit closure edge from a function to the defs nested in it
  (a closure's body runs on behalf of whoever holds the closure, so
  facts like "consults the check hook" propagate through it).

Resolution is deliberately *syntactic and conservative*: an attribute
call on an arbitrary object (``plan.replay()``) resolves to ``None`` and
the rules treat unresolved callees as opaque.  The graph is a
whole-project index — building it for the ~90 files of ``src/repro``
costs one ``ast.parse`` per file, which the engine already pays.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.astutil import dotted_name
from repro.lint.context import ModuleContext

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectIndex"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name(relpath: str | None) -> str | None:
    """Dotted module name for a repro-relative path, e.g.
    ``tape/recorder.py`` -> ``repro.tape.recorder``."""
    if relpath is None:
        return None
    parts = relpath.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(["repro", *parts]) if parts else "repro"


@dataclass
class FunctionInfo:
    """One function definition: identity, AST, and extracted call facts."""

    name: str
    qualname: str  # "Cls.method", "outer.<locals>.inner", or bare name
    path: str  # display path of the defining file
    module: str | None  # dotted module name, None outside a repro tree
    cls: str | None  # enclosing class name, if a method
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: ModuleContext
    parent: "FunctionInfo | None" = None  # enclosing function for closures
    children: list["FunctionInfo"] = field(default_factory=list)
    #: Call nodes in this function's own body, *excluding* the bodies of
    #: nested defs (those are their own FunctionInfos, reached through the
    #: implicit closure edge).
    calls: list[ast.Call] = field(default_factory=list)

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    @property
    def label(self) -> str:
        """Human name for findings: ``Cls.method()`` / ``fn()``."""
        return f"{self.qualname}()"


@dataclass
class ModuleInfo:
    """Per-file symbol table feeding the project index."""

    ctx: ModuleContext
    module: str | None
    #: local name -> dotted import target ("repro.tape.tape.Workspace",
    #: "repro.amg.smoothers", "numpy", ...).
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level functions by bare name.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> {method name -> FunctionInfo}.
    classes: dict[str, dict[str, FunctionInfo]] = field(default_factory=dict)
    #: every def in the file, nested ones included.
    all_functions: list[FunctionInfo] = field(default_factory=list)


def _own_calls(node: ast.AST) -> list[ast.Call]:
    """Call nodes under *node* that are not inside a nested def/lambda."""
    calls: list[ast.Call] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        if isinstance(n, (*_FUNC_NODES, ast.Lambda)):
            continue
        if isinstance(n, ast.Call):
            calls.append(n)
        stack.extend(ast.iter_child_nodes(n))
    return calls


def _collect_imports(tree: ast.Module, self_module: str | None) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: resolve against our own package
                if self_module is None:
                    continue
                pkg = self_module.split(".")
                # level 1 = current package (module's dir), 2 = parent, ...
                pkg = pkg[: len(pkg) - node.level]
                base = ".".join([*pkg, base]) if base else ".".join(pkg)
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{base}.{alias.name}"
    return imports


class _DefCollector:
    """Walk one module, minting FunctionInfos for every def."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info

    def collect(self) -> None:
        for node in self.info.ctx.tree.body:
            if isinstance(node, _FUNC_NODES):
                fn = self._mint(node, qual=node.name, cls=None, parent=None)
                self.info.functions[node.name] = fn
            elif isinstance(node, ast.ClassDef):
                methods: dict[str, FunctionInfo] = {}
                for sub in node.body:
                    if isinstance(sub, _FUNC_NODES):
                        fn = self._mint(
                            sub, qual=f"{node.name}.{sub.name}",
                            cls=node.name, parent=None,
                        )
                        methods[sub.name] = fn
                self.info.classes[node.name] = methods

    def _mint(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        qual: str,
        cls: str | None,
        parent: FunctionInfo | None,
    ) -> FunctionInfo:
        fn = FunctionInfo(
            name=node.name,
            qualname=qual,
            path=self.info.ctx.path,
            module=self.info.module,
            cls=cls,
            node=node,
            ctx=self.info.ctx,
            parent=parent,
            calls=_own_calls(node),
        )
        self.info.all_functions.append(fn)
        # Nested defs (closure bodies): children carry the closure edge.
        for stmt in ast.walk(node):
            if stmt is node or not isinstance(stmt, _FUNC_NODES):
                continue
            # Only direct nesting: the nearest enclosing def must be node.
            if self._nearest_def(node, stmt) is node:
                child = self._mint(
                    stmt,
                    qual=f"{qual}.<locals>.{stmt.name}",
                    cls=cls,
                    parent=fn,
                )
                fn.children.append(child)
        return fn

    @staticmethod
    def _nearest_def(root: ast.AST, target: ast.AST) -> ast.AST | None:
        """The innermost def enclosing *target* under *root* (by walk)."""
        best: ast.AST | None = None

        def descend(node: ast.AST, owner: ast.AST) -> bool:
            nonlocal best
            if node is target:
                best = owner
                return True
            for child in ast.iter_child_nodes(node):
                next_owner = node if isinstance(node, _FUNC_NODES) else owner
                if descend(child, next_owner):
                    return True
            return False

        descend(root, root)
        return best


class ProjectIndex:
    """Symbol tables + call resolution over a set of linted modules."""

    def __init__(self, ctxs: Iterable[ModuleContext]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_module: dict[str, ModuleInfo] = {}
        for ctx in ctxs:
            mod = module_name(ctx.repro_relpath)
            info = ModuleInfo(ctx=ctx, module=mod)
            info.imports = _collect_imports(ctx.tree, mod)
            _DefCollector(info).collect()
            self.modules[ctx.path] = info
            if mod is not None:
                self.by_module[mod] = info

    # -- lookup ---------------------------------------------------------
    def module_of(self, ctx_or_path: ModuleContext | str) -> ModuleInfo | None:
        path = (
            ctx_or_path if isinstance(ctx_or_path, str) else ctx_or_path.path
        )
        return self.modules.get(path)

    def functions_in(self, ctx: ModuleContext) -> list[FunctionInfo]:
        info = self.module_of(ctx)
        return info.all_functions if info else []

    def entry_points(self, ctx: ModuleContext) -> list[FunctionInfo]:
        """Module-level functions and class methods (no nested defs)."""
        info = self.module_of(ctx)
        if info is None:
            return []
        out = list(info.functions.values())
        for methods in info.classes.values():
            out.extend(methods.values())
        return out

    # -- resolution -----------------------------------------------------
    def _resolve_dotted(self, target: str) -> FunctionInfo | None:
        """Resolve ``repro.amg.smoothers.bind_l1_jacobi`` by longest
        module-prefix match."""
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            info = self.by_module.get(mod)
            if info is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                hit = info.functions.get(rest[0])
                if hit is not None:
                    return hit
                # ``from repro.x import y`` re-export chain, one hop.
                fwd = info.imports.get(rest[0])
                if fwd is not None and fwd != target:
                    return self._resolve_dotted(fwd)
            elif len(rest) == 2:
                methods = info.classes.get(rest[0])
                if methods:
                    return methods.get(rest[1])
        return None

    def resolve_call(
        self, caller: FunctionInfo, call: ast.Call
    ) -> FunctionInfo | None:
        """Best-effort resolution of *call* from inside *caller*."""
        name = dotted_name(call.func)
        if name is None:
            return None
        return self.resolve_name(caller, name)

    def resolve_name(
        self, caller: FunctionInfo, name: str
    ) -> FunctionInfo | None:
        info = self.modules.get(caller.path)
        if info is None:
            return None
        parts = name.split(".")
        # self.method() / cls.method(): same-class dispatch.
        if len(parts) == 2 and parts[0] in ("self", "cls") and caller.cls:
            methods = info.classes.get(caller.cls, {})
            return methods.get(parts[1])
        if len(parts) == 1:
            # Enclosing scope chain: nested defs of the caller, then of
            # each ancestor, then module level.
            scope: FunctionInfo | None = caller
            while scope is not None:
                for child in scope.children:
                    if child.name == parts[0]:
                        return child
                if scope.parent is None and scope.name == parts[0]:
                    pass  # recursion lands on module lookup below
                scope = scope.parent
            hit = info.functions.get(parts[0])
            if hit is not None:
                return hit
            target = info.imports.get(parts[0])
            return self._resolve_dotted(target) if target else None
        # alias.attr...: resolve the head through the import table.
        head_target = info.imports.get(parts[0])
        if head_target is not None:
            return self._resolve_dotted(".".join([head_target, *parts[1:]]))
        return None

    # -- traversal ------------------------------------------------------
    def reachable(
        self, root: FunctionInfo, *, private_only: bool = False,
    ) -> Iterator[FunctionInfo]:
        """Functions reachable from *root* through resolved project calls
        and closure edges, *root* included.

        ``private_only`` restricts traversal to ``_``-prefixed callees
        (the delegation pattern R4 follows).
        """
        seen: set[int] = set()
        stack = [root]
        while stack:
            fn = stack.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            yield fn
            nxt: list[FunctionInfo] = list(fn.children)  # closure edges
            for call in fn.calls:
                callee = self.resolve_call(fn, call)
                if callee is None:
                    continue
                if private_only and callee.is_public and callee is not root:
                    continue
                nxt.append(callee)
            stack.extend(n for n in nxt if id(n) not in seen)
