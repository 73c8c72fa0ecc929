"""Findings, severities and the rule registry of the ``repro.lint`` pass.

The analyzer is deliberately repo-specific: its rules encode invariants of
*this* reproduction (the FP64/FP32/FP16 level policy, the segmented-
reduction engine, the paper's tile constants, the metric-name registry)
rather than generic style.  Each rule has a stable id (``R1``..``R3``,
``R5``, ``R9``, ``R10``, plus ``R0`` for problems with the lint machinery
itself) used in suppression comments and baseline entries.  Retired ids
are not reused: ``R4`` (contract-hook) and ``R6`` (root-span), whose
invariants are now proven at run time, and ``R7``/``R8``, the
buffer-provenance rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How a finding affects the exit status.

    * ``ERROR`` — fails the run (exit 1) unless suppressed or baselined.
    * ``WARNING`` — reported; fails only under ``--strict``.
    * ``ADVISORY`` — reported; never fails the run.  Used for
      cache-candidate / perf findings that need human judgement.
    """

    ERROR = "error"
    WARNING = "warning"
    ADVISORY = "advisory"


@dataclass(frozen=True)
class Rule:
    """One analyzer rule: id, human name, default severity."""

    id: str
    name: str
    severity: Severity
    description: str


#: The registry, keyed by rule id.  Order is the reporting order.
RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "R0",
            "lint-integrity",
            Severity.ERROR,
            "Problems with the lint pass itself: unparsable files, malformed "
            "suppression comments, suppressions without a justification.",
        ),
        Rule(
            "R1",
            "dtype-flow",
            Severity.ERROR,
            "Numpy expressions that can silently change precision across the "
            "FP64/FP32/FP16 level policy: low-precision arrays mixed with "
            "Python float scalars, silent widening astype without casting=, "
            "solve-phase accumulators not created via the "
            "repro.amg.precision helpers.",
        ),
        Rule(
            "R2",
            "scatter-ban",
            Severity.ERROR,
            "Unbuffered ufunc scatters (np.add.at / np.bitwise_or.at / "
            "np.maximum.at ...) outside util/segops.py.  All scatters must "
            "go through the bit-identical segmented-reduction engine.",
        ),
        Rule(
            "R3",
            "constant-provenance",
            Severity.ERROR,
            "Numeric literals shadowing the paper's named constants "
            "(TC_NNZ_THRESHOLD, BLOCK_SIZE, TILE_SLOTS, VARIATION_THRESHOLD, "
            "the 8x8x4 MMA fragment shape) instead of importing them.",
        ),
        Rule(
            "R5",
            "hot-loop-alloc",
            Severity.ADVISORY,
            "np.zeros / np.empty / np.concatenate inside loops in kernels/ "
            "and formats/: candidates for the per-operator cache.",
        ),
        Rule(
            "R9",
            "stale-closure-capture",
            Severity.WARNING,
            "A def/lambda minted inside a loop that reads a loop-carried "
            "name by reference: every closure sees the last iteration's "
            "value at call time.  Bind through a factory function (the "
            "tape/recorder.py convention) or a default argument.",
        ),
        Rule(
            "R10",
            "metric-name-provenance",
            Severity.ERROR,
            "A string-literal metric name passed to the repro.obs metrics "
            "API (inc/set_gauge/observe/observe_counts or a registry's "
            "counter/gauge/histogram/value/total) outside obs/names.py. "
            "Metric names have one home: rename the constant and a "
            "re-typed literal silently forks the series.",
        ),
    )
}


@dataclass(frozen=True)
class Finding:
    """One reported issue, anchored to a file and line."""

    rule: str
    path: str
    line: int
    message: str
    severity: Severity = field(compare=False, default=Severity.ERROR)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule, self.message)

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule}[{RULES[self.rule].name}] "
            f"{self.severity.value}: {self.message}"
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "name": RULES[self.rule].name,
            "path": self.path,
            "line": self.line,
            "severity": self.severity.value,
            "message": self.message,
        }


def make_finding(rule_id: str, path: str, line: int, message: str) -> Finding:
    """Build a finding with the rule's registry severity."""
    return Finding(
        rule=rule_id,
        path=path,
        line=line,
        message=message,
        severity=RULES[rule_id].severity,
    )
