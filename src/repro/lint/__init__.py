"""``repro.lint`` — repo-specific static analysis.

The runtime contract checker (``repro.check``, PR 2) verifies kernel
behaviour *dynamically*; this package catches the recurring bug classes
*statically*, before a kernel runs.  The engine parses the whole tree
first and builds a project-wide call graph
(:mod:`repro.lint.callgraph`), so a rule can follow a public kernel entry
point into the private helpers of another module.

====  ======================  ========  ===========================================
id    name                    severity  invariant guarded
====  ======================  ========  ===========================================
R1    dtype-flow              error     no silent precision changes across the
                                        FP64/FP32/FP16 level policy
R2    scatter-ban             error     all scatters go through util/segops.py
R3    constant-provenance     error     paper constants (popcount 10, 4x4 tiles,
                                        variation 0.5, 8x8x4 fragments) are
                                        imported, never re-typed
R4    contract-hook           error     every public kernel entry point consults
                                        the repro.check runtime hook (delegation
                                        followed through the call graph)
R5    hot-loop-alloc          advisory  allocations inside kernel/format/solver/
                                        tape loops — including those hidden in
                                        private callees — are cache candidates
R6    root-span               advisory  public solver entry points open a
                                        repro.obs span
R9    stale-closure-capture   warning   no late-binding loop-variable capture in
                                        binding loops
R10   metric-name-provenance  error     metric names passed to the repro.obs
                                        metrics API are obs/names.py constants
====  ======================  ========  ===========================================

Ids R7 and R8 belonged to the retired buffer-provenance rules; the tape's
"results are always copies" contract they checked is now verified at
runtime under ``REPRO_CHECK`` (``tape/escaping-slot``).

Run with ``python -m repro.lint [paths]``; suppress a finding with
``# lint: disable=R2 -- <justification>`` (the justification is
mandatory); grandfather findings with ``--write-baseline``; drop stale
baseline entries with ``--prune-baseline``; scope a fast pre-commit run
with ``--changed``; emit SARIF with ``--format=sarif`` / ``--sarif-out``.
"""

from repro.lint.baseline import Baseline
from repro.lint.callgraph import FunctionInfo, ModuleInfo, ProjectIndex
from repro.lint.engine import LintResult, lint_file, lint_paths
from repro.lint.finding import RULES, Finding, Rule, Severity

__all__ = [
    "Baseline",
    "Finding",
    "FunctionInfo",
    "LintResult",
    "ModuleInfo",
    "ProjectIndex",
    "RULES",
    "Rule",
    "Severity",
    "lint_file",
    "lint_paths",
]
