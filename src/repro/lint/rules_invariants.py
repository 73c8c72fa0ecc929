"""R2 — scatter-ban.

R2 guards PR 1's invariant: every host-side scatter/accumulate goes
through ``repro.util.segops``, whose segmented reductions are
bit-identical to the unbuffered ``ufunc.at`` path but ~100x faster.  A
reintroduced ``np.add.at`` is both a performance regression and a second
rounding-order authority, so it is banned everywhere except inside the
engine itself.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import dotted_name
from repro.lint.context import ModuleContext
from repro.lint.finding import Finding, make_finding

#: ufuncs whose unbuffered ``.at`` scatter is banned outside segops.
_BANNED_UFUNCS = (
    "add",
    "subtract",
    "multiply",
    "bitwise_or",
    "bitwise_and",
    "bitwise_xor",
    "maximum",
    "minimum",
)


def check_scatter_ban(ctx: ModuleContext) -> list[Finding]:
    """R2: flag ``np.<ufunc>.at(...)`` calls outside the scatter engine."""
    if ctx.is_scatter_engine():
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None or not name.endswith(".at"):
            continue
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] in _BANNED_UFUNCS:
            findings.append(
                make_finding(
                    "R2",
                    ctx.path,
                    node.lineno,
                    f"unbuffered scatter {name}(...) outside util/segops.py: "
                    "use repro.util.segops.scatter_accumulate / segment_* — "
                    "bit-identical and vectorised",
                )
            )
    return findings
