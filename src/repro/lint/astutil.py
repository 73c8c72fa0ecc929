"""Small AST helpers shared by the lint rules."""

from __future__ import annotations

import ast

#: Names numpy is imported under across the repo.
NUMPY_ALIASES = ("np", "numpy")

#: Attribute names that denote the two reduced precisions, in both the
#: ``np.float32`` and the ``Precision``-free string spellings.
LOW_PRECISION_NAMES = ("float16", "float32", "half", "single")


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_numpy_attr(node: ast.AST, *attrs: str) -> bool:
    """True for ``np.<attr>`` / ``numpy.<attr>`` with attr in *attrs*."""
    name = dotted_name(node)
    if name is None:
        return False
    head, _, tail = name.partition(".")
    return head in NUMPY_ALIASES and tail in attrs


def is_low_precision_dtype(node: ast.AST) -> bool:
    """``np.float16`` / ``np.float32`` / ``'float16'`` / ``'float32'``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in LOW_PRECISION_NAMES
    return is_numpy_attr(node, *LOW_PRECISION_NAMES)

def is_float64_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in ("float64", "double")
    return is_numpy_attr(node, "float64", "double")


def call_keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return "<unprintable>"
