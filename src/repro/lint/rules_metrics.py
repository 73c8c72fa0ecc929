"""R10 — metric-name provenance: metric names have one home.

Every Prometheus-style metric name in the tree lives in
:mod:`repro.obs.names`; call sites import the constant.  A string literal
handed straight to the metrics API (``inc``/``set_gauge``/``observe``/
``observe_counts``, or a registry's ``counter``/``gauge``/``histogram``/
``value``/``total``) forks the name: rename the constant and the literal
copy silently keeps emitting the old series, and the payload-shape
assertions, the roofline attribution (which re-prices snapshots by
name), and the ``repro obs diff`` sentinel all lose sight of it.

The rule flags such literals anywhere outside ``obs/names.py`` (the
registry module itself) — including tests and benches, which read the
same constants.  Dynamic names (f-strings, variables, attribute reads)
are fine: the rule targets re-typed spellings, not computed ones.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.finding import Finding, make_finding

#: Module (repro-relative) that owns every metric-name spelling.
NAMES_MODULE = "obs/names.py"

#: Module-level helpers of repro.obs.metrics whose first argument is a
#: metric name.  Matched on the bare name and as an attribute
#: (``obs_metrics.inc`` / ``obs.inc``).
_HELPER_FUNCS = frozenset({"inc", "set_gauge", "observe", "observe_counts"})

#: Registry methods whose first argument is a metric name.  Only matched
#: as attribute calls whose receiver looks like a registry (see
#: ``_registry_receiver``), so unrelated ``.value("x")`` calls on other
#: objects do not trip the rule.
_REGISTRY_METHODS = frozenset({"counter", "gauge", "histogram", "value", "total"})

#: Receiver spellings that denote a metrics registry at the call sites
#: used in this tree: the module-level singleton, a local registry
#: variable, or the accessor's result.
_REGISTRY_NAMES = frozenset({"REGISTRY", "registry", "reg"})


def _attr_chain_tail(node: ast.AST) -> str | None:
    """The final attribute/name component of a dotted expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _registry_receiver(node: ast.AST) -> bool:
    tail = _attr_chain_tail(node)
    if tail in _REGISTRY_NAMES:
        return True
    # ``get_registry().counter(...)`` / ``obs.get_registry().gauge(...)``
    if isinstance(node, ast.Call):
        return _attr_chain_tail(node.func) == "get_registry"
    return False


def _first_literal_arg(node: ast.Call) -> ast.Constant | None:
    if not node.args:
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg
    return None


def _is_metric_call(node: ast.Call) -> str | None:
    """The offending API name when *node* is a metrics call with a
    string-literal name argument, else None."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in _HELPER_FUNCS:
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr in _HELPER_FUNCS:
            # obs_metrics.inc / metrics.observe / obs.set_gauge — any
            # module-qualified spelling of the helper.
            return func.attr
        if func.attr in _REGISTRY_METHODS and _registry_receiver(func.value):
            return func.attr
    return None


def check_metric_name_provenance(ctx: ModuleContext) -> list[Finding]:
    rel = ctx._rel()
    if rel == NAMES_MODULE:
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        api = _is_metric_call(node)
        if api is None:
            continue
        lit = _first_literal_arg(node)
        if lit is None:
            continue
        findings.append(
            make_finding(
                "R10",
                ctx.path,
                node.lineno,
                f"string-literal metric name {lit.value!r} passed to "
                f"{api}() — import the constant from repro.obs.names "
                "so renames cannot fork the series",
            )
        )
    return findings
