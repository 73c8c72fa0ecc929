"""CLI: ``python -m repro.lint [paths] [options]``.

Exit status: 0 clean (advisories allowed), 1 on unsuppressed,
unbaselined error findings (or warnings under ``--strict``), 2 on usage
errors.  ``--write-baseline`` records the current findings and exits 0.

``--changed`` lints only the files touched per git (diff against HEAD
plus untracked), for fast pre-commit runs; every rule is per-file, so a
changed file reports exactly what a full run would report for it.

``--prune-baseline`` drops baseline entries whose finding no longer
exists (fixed, suppressed inline, or the file is gone) and rewrites the
baseline file.  ``--write-baseline`` deliberately does *not* prune — it
records, pruning stays an explicit decision.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.engine import iter_python_files, lint_paths
from repro.lint.reporter import render_json, render_sarif, render_text

DEFAULT_BASELINE = "lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Repo-specific static analysis for the AmgT reproduction "
        "(dtype-flow, scatter-ban, constant-provenance, hot-loop "
        "allocations, stale closure capture, metric-name provenance).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--sarif-out", default=None, metavar="FILE",
        help="additionally write a SARIF 2.1.0 log to FILE "
        "(independent of --format)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only the files changed per git (diff against HEAD "
        "+ untracked)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help=f"baseline file (default: ./{DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--prune-baseline", action="store_true",
        help="drop baseline entries whose finding no longer exists, "
        "rewrite the baseline file, and exit 0",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures too",
    )
    return parser


def _split(arg: str | None) -> list[str] | None:
    if arg is None:
        return None
    return [part.strip() for part in arg.split(",") if part.strip()]


def _git_changed_files() -> set[Path] | None:
    """Resolved paths of files changed per git, or None when git fails.

    git prints paths relative to the repo toplevel regardless of cwd, so
    everything is resolved against it before comparing with the
    requested files (which may be absolute or cwd-relative).
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if top.returncode != 0:
        return None
    root = Path(top.stdout.strip())
    changed: set[Path] = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        changed.update(
            (root / line.strip()).resolve()
            for line in proc.stdout.splitlines()
            if line.strip()
        )
    return changed


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    baseline_path = (
        Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    )
    baseline = None
    if not args.no_baseline and not args.write_baseline:
        if baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, OSError) as exc:
                print(
                    f"repro.lint: cannot read baseline: {exc}",
                    file=sys.stderr,
                )
                return 2

    report_on: set[str] | None = None
    if args.changed:
        changed = _git_changed_files()
        if changed is None:
            print(
                "repro.lint: --changed: git unavailable, "
                "falling back to a full run",
                file=sys.stderr,
            )
        else:
            try:
                requested = iter_python_files(args.paths)
            except FileNotFoundError as exc:
                print(f"repro.lint: {exc}", file=sys.stderr)
                return 2
            report_on = {
                p.as_posix()
                for p in requested
                if p.resolve() in changed
            }

    try:
        result = lint_paths(
            args.paths,
            select=_split(args.select),
            ignore=_split(args.ignore),
            baseline=baseline,
            report_on=report_on,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(result.findings, result.sources).save(
            baseline_path
        )
        print(
            f"repro.lint: wrote {len(result.findings)} finding(s) to "
            f"{baseline_path}"
        )
        return 0

    if args.prune_baseline:
        if baseline is None:
            print(
                "repro.lint: --prune-baseline: no baseline loaded",
                file=sys.stderr,
            )
            return 2
        if report_on is not None:
            print(
                "repro.lint: --prune-baseline needs a full run, "
                "not --changed",
                file=sys.stderr,
            )
            return 2
        baseline.pruned(result.stale_baseline).save(baseline_path)
        print(
            f"repro.lint: pruned {len(result.stale_baseline)} stale "
            f"entr{'y' if len(result.stale_baseline) == 1 else 'ies'} "
            f"from {baseline_path}"
        )
        return 0

    if args.sarif_out:
        Path(args.sarif_out).write_text(
            render_sarif(result) + "\n", encoding="utf-8"
        )

    if args.format == "json":
        report = render_json(result)
    elif args.format == "sarif":
        report = render_sarif(result)
    else:
        report = render_text(result)
    print(report)
    return result.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
