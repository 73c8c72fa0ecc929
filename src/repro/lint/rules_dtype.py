"""R1 — dtype-flow: silent precision changes across the level policy.

AmgT's mixed-precision schedule (FP64 / FP32 / FP16 by level) only works
if precision changes are *explicit*: quantisation happens once per
operator (``OperatorCache.tiles``), widening happens at declared points,
and accumulators state their dtype.  numpy makes all three easy to break
silently, so this rule flags:

* **scalar-mix** — arithmetic that combines a low-precision (FP16/FP32)
  array with a bare Python ``float`` literal.  Under value-based casting
  the result dtype depends on the scalar's value; under NEP 50 it stays
  low precision while the author may have expected float64.  Either way
  the precision of the expression is an accident of the numpy version.
* **silent-widening** — ``<low-precision>.astype(np.float64)`` without an
  explicit ``casting=`` keyword at a kernel boundary.  Widening a
  quantised array is semantically meaningful in this codebase (it is the
  accumulate step of the tensor-core contract); it must either go
  through ``OperatorCache.tiles`` or spell out its casting intent.
* **raw-accumulator** — ``np.zeros`` / ``np.empty`` without ``dtype=`` in
  the solve-phase modules.  Work vectors there are accumulators in the
  paper's sense; they must be created via the
  :func:`repro.amg.precision.accumulator` helper (or state a dtype) so
  the level policy has a single audit point.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import (
    call_keyword,
    is_float64_dtype,
    is_low_precision_dtype,
    is_numpy_attr,
    unparse,
)
from repro.lint.context import ModuleContext
from repro.lint.finding import Finding, make_finding

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)

#: numpy constructors whose ``dtype=`` keyword fixes the result dtype.
_CONSTRUCTORS = (
    "array",
    "asarray",
    "zeros",
    "empty",
    "ones",
    "full",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
    "arange",
)


def _expr_low_precision(node: ast.AST, low_names: set[str]) -> bool:
    """Conservative syntactic judgement: is *node* a low-precision array?"""
    if isinstance(node, ast.Name):
        return node.id in low_names
    if isinstance(node, ast.Subscript):
        return _expr_low_precision(node.value, low_names)
    if isinstance(node, ast.BinOp):
        return _expr_low_precision(node.left, low_names) or _expr_low_precision(
            node.right, low_names
        )
    if isinstance(node, ast.Call):
        func = node.func
        # x.astype(np.float16) / np.float32(x)
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            if node.args and is_low_precision_dtype(node.args[0]):
                return True
        if is_numpy_attr(func, "float16", "float32", "half", "single"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _CONSTRUCTORS:
            dt = call_keyword(node, "dtype")
            if dt is not None and is_low_precision_dtype(dt):
                return True
    return False


def _collect_low_names(func: ast.AST) -> set[str]:
    """Names assigned (anywhere in *func*) from a low-precision expression."""
    low: set[str] = set()
    # Two passes so `b = a * 2` picks up `a = x.astype(np.float16)` even
    # when the textual order is unhelpful; the tree is small.
    for _ in range(2):
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if _expr_low_precision(value, low):
                for t in targets:
                    if isinstance(t, ast.Name):
                        low.add(t.id)
    return low


def _scan_scope(
    ctx: ModuleContext, scope: ast.AST, low_names: set[str]
) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(scope):
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
            for lit, other in ((node.left, node.right), (node.right, node.left)):
                if (
                    isinstance(lit, ast.Constant)
                    and isinstance(lit.value, float)
                    and _expr_low_precision(other, low_names)
                ):
                    findings.append(
                        make_finding(
                            "R1",
                            ctx.path,
                            node.lineno,
                            "low-precision array mixed with Python float "
                            f"scalar {lit.value!r}: the result dtype is an "
                            "accident of numpy's casting rules; cast the "
                            "scalar with the level's np_dtype/accum_dtype "
                            "explicitly",
                        )
                    )
                    break
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "astype"
                and node.args
                and is_float64_dtype(node.args[0])
                and _expr_low_precision(func.value, low_names)
                and call_keyword(node, "casting") is None
            ):
                findings.append(
                    make_finding(
                        "R1",
                        ctx.path,
                        node.lineno,
                        f"silent widening of {unparse(func.value)!r} to "
                        "float64: widen via OperatorCache.tiles or pass an "
                        "explicit casting= to mark the accumulate boundary",
                    )
                )
    return findings


def _accumulator_findings(ctx: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if not is_numpy_attr(node.func, "zeros", "empty"):
            continue
        if call_keyword(node, "dtype") is not None:
            continue
        findings.append(
            make_finding(
                "R1",
                ctx.path,
                node.lineno,
                f"solve-phase accumulator {unparse(node)!r} created without "
                "dtype provenance: use repro.amg.precision.accumulator() "
                "(or state dtype=) so the level policy has one audit point",
            )
        )
    return findings


def check_dtype_flow(ctx: ModuleContext) -> list[Finding]:
    """Run the R1 sub-checks that apply to *ctx*'s scope."""
    findings: list[Finding] = []
    if ctx.in_kernel_scope():
        # Each function is a scope of its own so tracked locals do not
        # leak across functions; fixture files with no functions are
        # scanned whole.
        scopes: list[ast.AST] = [
            n
            for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes or [ctx.tree]:
            findings += _scan_scope(ctx, scope, _collect_low_names(scope))
    if ctx.in_accumulator_scope():
        findings += _accumulator_findings(ctx)
    return findings
