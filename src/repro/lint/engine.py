"""Orchestration: parse the tree, build the project index, run rules.

Linting is a two-phase pass.  Phase one parses the requested files and
builds the :class:`~repro.lint.callgraph.ProjectIndex` — the shared
call graph the interprocedural rules (R4 delegation, R5 hidden in-loop
allocation) resolve edges through.  Phase two runs the per-file
checkers; each receives its own :class:`ModuleContext` *and* the
whole-project index, so R4 checking ``kernels/baseline.py`` can follow
``bind_csr_spmv`` into a private helper of ``kernels/spmv.py``.

The ``report_on`` parameter decouples *indexing* scope from *reporting*
scope: with an interprocedural rule active, ``--changed`` indexes the
full tree (the call graph needs cross-file context) but reports findings
only for the changed files; with per-file rules only, it parses just
those files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.lint.baseline import Baseline
from repro.lint.callgraph import ProjectIndex
from repro.lint.context import ModuleContext, load_module
from repro.lint.finding import RULES, Finding, Severity, make_finding
from repro.lint.rules_alloc import check_hot_loop_alloc
from repro.lint.rules_closures import check_stale_closure_capture
from repro.lint.rules_constants import check_constant_provenance
from repro.lint.rules_dtype import check_dtype_flow
from repro.lint.rules_invariants import (
    check_contract_hooks,
    check_root_spans,
    check_scatter_ban,
)
from repro.lint.rules_metrics import check_metric_name_provenance
from repro.lint.suppress import apply_suppressions, parse_suppressions

#: rule id -> checker.  R0 has no checker; it is emitted by the machinery.
#: Every checker takes ``(ctx, index)``; file-local rules ignore the index.
CHECKERS: dict[
    str, Callable[[ModuleContext, ProjectIndex], list[Finding]]
] = {
    "R1": check_dtype_flow,
    "R2": check_scatter_ban,
    "R3": check_constant_provenance,
    "R4": check_contract_hooks,
    "R5": check_hot_loop_alloc,
    "R6": check_root_spans,
    "R9": check_stale_closure_capture,
    "R10": check_metric_name_provenance,
}

#: Rules that resolve call edges across files: when any of these is
#: active, ``--changed`` must still parse and index the full tree.
INTERPROCEDURAL_RULES = frozenset({"R4", "R5"})


@dataclass
class LintResult:
    """Findings plus the per-file sources needed for fingerprinting."""

    findings: list[Finding] = field(default_factory=list)
    sources: dict[str, list[str]] = field(default_factory=dict)
    files_checked: int = 0
    #: Baseline entries whose finding no longer exists (fingerprint not
    #: reproduced by this run): fp -> stored entry.  Populated only on
    #: full-tree runs (a scoped run cannot tell "gone" from "not seen").
    stale_baseline: dict[str, dict] = field(default_factory=dict)

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def advisories(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ADVISORY]

    def exit_code(self, strict: bool = False) -> int:
        if self.errors():
            return 1
        if strict and self.warnings():
            return 1
        return 0


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                seen.setdefault(f, None)
        elif p.suffix == ".py":
            seen.setdefault(p, None)
        else:
            raise FileNotFoundError(f"not a python file or directory: {p}")
    return list(seen)


def _selected_rules(
    select: Iterable[str] | None, ignore: Iterable[str] | None
) -> set[str]:
    rules = set(select) if select else set(CHECKERS)
    unknown = (rules | set(ignore or ())) - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
    return rules - set(ignore or ())


def _parse_files(
    files: Iterable[Path],
) -> tuple[list[ModuleContext], list[Finding], dict[str, list[str]]]:
    """Parse every file: (contexts, R0 parse findings, sources)."""
    ctxs: list[ModuleContext] = []
    problems: list[Finding] = []
    sources: dict[str, list[str]] = {}
    for path in files:
        display = path.as_posix()
        try:
            ctx = load_module(path, display_path=display)
        except SyntaxError as exc:
            problems.append(
                make_finding(
                    "R0", display, exc.lineno or 1,
                    f"file does not parse: {exc.msg}",
                )
            )
            sources[display] = []
            continue
        ctxs.append(ctx)
        sources[display] = ctx.lines
    return ctxs, problems, sources


def _check_module(
    ctx: ModuleContext, index: ProjectIndex, rules: set[str]
) -> list[Finding]:
    findings: list[Finding] = []
    for rule_id in sorted(rules):
        findings += CHECKERS[rule_id](ctx, index)
    # Nested defs are walked as part of their enclosing scope too; keep
    # one finding per (rule, line, message).
    findings = list(dict.fromkeys(findings))
    suppressions, problems = parse_suppressions(ctx.path, ctx.lines)
    return apply_suppressions(findings, suppressions) + problems


def lint_file(
    path: Path,
    rules: set[str] | None = None,
) -> tuple[list[Finding], list[str]]:
    """Lint one file in isolation; returns (findings, source lines).

    The project index contains just this file, so interprocedural rules
    resolve what they can locally (closures, same-class delegation,
    module-level helpers) and treat everything else as opaque.
    """
    active = rules if rules is not None else set(CHECKERS)
    ctxs, problems, sources = _parse_files([path])
    if not ctxs:
        return problems, sources.get(path.as_posix(), [])
    ctx = ctxs[0]
    index = ProjectIndex(ctxs)
    return _check_module(ctx, index, active) + problems, ctx.lines


def lint_paths(
    paths: Iterable[str | Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline: Baseline | None = None,
    report_on: set[str] | None = None,
) -> LintResult:
    """Lint *paths*; the module-level entry point used by the CLI and tests.

    ``report_on`` (display paths, posix) restricts which files *report*
    findings.  When an :data:`INTERPROCEDURAL_RULES` rule is active the
    whole tree is still parsed and indexed so cross-file call edges
    resolve; otherwise only the reported files are parsed.  ``None``
    reports on everything.
    """
    rules = _selected_rules(select, ignore)
    result = LintResult()
    files = iter_python_files(paths)
    if report_on is not None and not rules & INTERPROCEDURAL_RULES:
        files = [f for f in files if f.as_posix() in report_on]
    ctxs, problems, sources = _parse_files(files)
    index = ProjectIndex(ctxs)
    scoped = (
        problems
        if report_on is None
        else [f for f in problems if f.path in report_on]
    )
    result.findings += scoped
    for ctx in ctxs:
        if report_on is not None and ctx.path not in report_on:
            continue
        result.findings += _check_module(ctx, index, rules)
        result.files_checked += 1
    result.sources = sources
    if baseline is not None:
        if report_on is None:
            result.stale_baseline = baseline.stale_entries(
                result.findings, result.sources
            )
        result.findings = baseline.filter(result.findings, result.sources)
    result.findings.sort(key=Finding.sort_key)
    return result
