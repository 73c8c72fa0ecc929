"""``repro.lint`` — repo-specific static analysis.

The runtime contract checker (``repro.check``, PR 2) verifies kernel
behaviour *dynamically*; this package catches the recurring bug classes
*statically*, before a kernel runs.  Every rule is per-file: a
checker sees one module's AST and nothing else.

====  ======================  ========  ===========================================
id    name                    severity  invariant guarded
====  ======================  ========  ===========================================
R1    dtype-flow              error     no silent precision changes across the
                                        FP64/FP32/FP16 level policy
R2    scatter-ban             error     all scatters go through util/segops.py
R3    constant-provenance     error     paper constants (popcount 10, 4x4 tiles,
                                        variation 0.5, 8x8x4 fragments) are
                                        imported, never re-typed
R5    hot-loop-alloc          advisory  allocations inside kernel/format/solver/
                                        tape loops are cache candidates
R9    stale-closure-capture   warning   no late-binding loop-variable capture in
                                        binding loops
R10   metric-name-provenance  error     metric names passed to the repro.obs
                                        metrics API are obs/names.py constants
====  ======================  ========  ===========================================

Retired ids are not reused; each retired rule's invariant is now proven
at run time instead:

* R4 (contract-hook: every public kernel consults the check gate) — under
  ``REPRO_CHECK`` every oracle stamps the record it verified, and
  :meth:`repro.perf.timeline.PerformanceLog.extend`, the one charge
  point, rejects an unstamped SpGEMM/SpMV/SpMM record
  (``perf/unchecked-record``);
* R6 (root-span: every solver entry point opens a span) — a traced,
  table-driven test runs each public entry point and asserts one root
  span named for it, with no record charged outside a span
  (``tests/test_obs.py``);
* R7/R8 (buffer provenance) — the tape's "results are always copies"
  contract, ``tape/escaping-slot`` under ``REPRO_CHECK``.

Run with ``python -m repro.lint [paths]``; suppress a finding with
``# lint: disable=R2 -- <justification>`` (the justification is
mandatory); grandfather findings with ``--write-baseline``; drop stale
baseline entries with ``--prune-baseline``; scope a fast pre-commit run
with ``--changed``; emit SARIF with ``--format=sarif`` / ``--sarif-out``.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import LintResult, lint_file, lint_paths
from repro.lint.finding import RULES, Finding, Rule, Severity

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "RULES",
    "Rule",
    "Severity",
    "lint_file",
    "lint_paths",
]
