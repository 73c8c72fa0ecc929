"""R3 — constant-provenance: the paper's magic numbers have one home.

The reproduction hangs real behaviour off a handful of numeric design
points from the paper: the popcount-10 tensor-core threshold (Alg. 4
line 3 / Sec. IV.D.1), the 4x4 tile edge (``BLOCK_SIZE``), the 16-slot
tile (``TILE_SLOTS``), the SpMV load-balance variation threshold (0.5),
and the 8x8x4 MMA fragment shape.  Re-typing those literals at a use
site forks the design point: change the constant and the copy silently
keeps the old dispatch behaviour.  This rule flags literals that shadow
a named constant *in a context that marks them as that constant* —
threshold comparisons, ``tc_threshold=`` / ``block_size=`` keywords and
defaults, tile-shape tuples, and traffic formulas multiplying block
counts by 4/16.  The module that defines a constant is exempt for that
constant only.
"""

from __future__ import annotations

import ast
import re

from repro.lint.astutil import unparse
from repro.lint.context import ModuleContext
from repro.lint.finding import Finding, make_finding

_POPCOUNT_CTX = re.compile(r"pop|nnz|avg", re.IGNORECASE)
_VARIATION_CTX = re.compile(r"variation|cv\b", re.IGNORECASE)
_BLOCK_CTX = re.compile(r"blc|tile|block", re.IGNORECASE)

#: Call names whose tuple arguments are array shapes.
_SHAPE_CALLS = ("reshape", "zeros", "empty", "ones", "full", "broadcast_to")

_FRAG_TUPLES = {
    (8, 4): "(FRAG_M, FRAG_K)",
    (4, 8): "(FRAG_K, FRAG_N)",
    (8, 8): "(FRAG_M, FRAG_N)",
}


def _is_const(node: ast.AST, value) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == value
    )


def _int_tuple(node: ast.AST) -> tuple | None:
    if not isinstance(node, ast.Tuple):
        return None
    vals = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, int):
            vals.append(elt.value)
        else:
            return None
    return tuple(vals)


def _finding(ctx, node, constant, detail) -> Finding | None:
    if ctx.owns_constant(constant.split(" ")[0]):
        return None
    return make_finding(
        "R3",
        ctx.path,
        node.lineno,
        f"literal shadows {constant}: {detail} — import the constant "
        "instead of re-typing the paper's design point",
    )


def _check_compare(ctx: ModuleContext, node: ast.Compare) -> list[Finding]:
    out: list[Finding] = []
    operands = [node.left, *node.comparators]
    for i, lit in enumerate(operands):
        others = operands[:i] + operands[i + 1 :]
        other_text = " ".join(unparse(o) for o in others)
        if _is_const(lit, 10) and _POPCOUNT_CTX.search(other_text):
            f = _finding(
                ctx, node, "TC_NNZ_THRESHOLD",
                f"popcount/nnz compared against literal 10 ({unparse(node)!r})",
            )
            if f:
                out.append(f)
        elif _is_const(lit, 0.5) and _VARIATION_CTX.search(other_text):
            f = _finding(
                ctx, node, "VARIATION_THRESHOLD",
                f"variation compared against literal 0.5 ({unparse(node)!r})",
            )
            if f:
                out.append(f)
        else:
            tup = _int_tuple(lit)
            if tup in _FRAG_TUPLES and ".shape" in other_text:
                f = _finding(
                    ctx, node, f"FRAG_SHAPE {_FRAG_TUPLES[tup]}",
                    f"MMA fragment shape written as {tup}",
                )
                if f:
                    out.append(f)
            elif tup == (4, 4) and ".shape" in other_text:
                f = _finding(
                    ctx, node, "BLOCK_SIZE",
                    "tile shape written as (4, 4)",
                )
                if f:
                    out.append(f)
    return out


def _check_keywordlike(ctx, name: str, value: ast.AST) -> Finding | None:
    if name == "tc_threshold" and isinstance(value, ast.Constant) and isinstance(
        value.value, (int, float)
    ):
        return _finding(
            ctx, value, "TC_NNZ_THRESHOLD",
            f"tc_threshold bound to literal {value.value!r}",
        )
    if name == "block_size" and _is_const(value, 4):
        return _finding(
            ctx, value, "BLOCK_SIZE", "block_size bound to literal 4"
        )
    return None


def _check_mult(ctx: ModuleContext, node: ast.BinOp) -> Finding | None:
    if not isinstance(node.op, ast.Mult):
        return None
    for lit, other in ((node.left, node.right), (node.right, node.left)):
        # Only inspect direct Constant factors; folded chains like
        # ``mat.blc_num * 4 * itemsize`` expose the inner BinOp here.
        if isinstance(other, ast.Constant):
            continue
        other_text = unparse(other)
        if not _BLOCK_CTX.search(other_text):
            continue
        if _is_const(lit, 4):
            return _finding(
                ctx, node, "BLOCK_SIZE",
                f"{other_text!r} scaled by literal 4",
            )
        if _is_const(lit, 16):
            return _finding(
                ctx, node, "TILE_SLOTS",
                f"{other_text!r} scaled by literal 16 (= BLOCK_SIZE**2)",
            )
    return None


def _check_shape_call(ctx: ModuleContext, node: ast.Call) -> list[Finding]:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name not in _SHAPE_CALLS:
        return []
    out: list[Finding] = []
    for arg in node.args:
        tup = _int_tuple(arg)
        if tup is None:
            # reshape(-1, 4, 4) style: trailing literal (…, 4, 4) args.
            continue
        if tup in _FRAG_TUPLES:
            f = _finding(
                ctx, node, f"FRAG_SHAPE {_FRAG_TUPLES[tup]}",
                f"fragment allocated/reshaped with literal shape {tup}",
            )
            if f:
                out.append(f)
        elif len(tup) >= 2 and tup[-2:] == (4, 4):
            f = _finding(
                ctx, node, "BLOCK_SIZE",
                f"tile allocated/reshaped with literal shape {tup}",
            )
            if f:
                out.append(f)
    return out


def check_constant_provenance(ctx: ModuleContext) -> list[Finding]:
    # Bench drivers build matrices with inline literals by design.
    if ctx.is_benchmark():
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Compare):
            findings += _check_compare(ctx, node)
        elif isinstance(node, ast.BinOp):
            f = _check_mult(ctx, node)
            if f:
                findings.append(f)
        elif isinstance(node, ast.Call):
            findings += _check_shape_call(ctx, node)
            for kw in node.keywords:
                if kw.arg:
                    f = _check_keywordlike(ctx, kw.arg, kw.value)
                    if f:
                        findings.append(f)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            pos = args.posonlyargs + args.args
            defaults = args.defaults
            for arg, default in zip(pos[len(pos) - len(defaults) :], defaults):
                f = _check_keywordlike(ctx, arg.arg, default)
                if f:
                    findings.append(f)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    f = _check_keywordlike(ctx, arg.arg, default)
                    if f:
                        findings.append(f)
    return findings
