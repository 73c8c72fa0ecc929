"""Tests for the ``repro.lint`` static analyzer.

Each rule gets a seeded-violation fixture (must be flagged) and a
conforming twin (must stay clean); on top of that: suppression
semantics, baseline round-trips, CLI exit codes, and the self-check
that the merged tree lints clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import Baseline, Severity, lint_paths
from repro.lint.engine import lint_file

REPO_ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


@pytest.fixture(scope="module")
def tree_lint():
    """One no-baseline lint of the shipped tree (``src/repro`` and
    ``benchmarks``), shared by every self-check: each filters it."""
    return lint_paths([REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"])


def in_tree(finding, *parts: str) -> bool:
    """True when *finding* lies under ``REPO_ROOT/<parts...>``."""
    return Path(finding.path).is_relative_to(REPO_ROOT.joinpath(*parts))


def run_cli(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=env,
    )


# ---------------------------------------------------------------------------
# R1 — dtype-flow
# ---------------------------------------------------------------------------


class TestDtypeFlow:
    def test_scalar_mix_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            def kernel(vals):
                tiles = vals.astype(np.float16)
                return tiles * 0.5
            """,
        )
        findings, _ = lint_file(path)
        assert "R1" in rules_of(findings)
        assert any("float" in f.message and "scalar" in f.message for f in findings)

    def test_scalar_mix_clean_when_cast_explicit(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            def kernel(vals):
                tiles = vals.astype(np.float16)
                half = np.float16(0.5)
                return tiles * half
            """,
        )
        findings, _ = lint_file(path)
        assert "R1" not in rules_of(findings)

    def test_silent_widening_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            def kernel(vals):
                quant = vals.astype(np.float32)
                return quant.astype(np.float64)
            """,
        )
        findings, _ = lint_file(path)
        assert any(f.rule == "R1" and "widening" in f.message for f in findings)

    def test_widening_with_casting_is_clean(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            def kernel(vals):
                quant = vals.astype(np.float32)
                return quant.astype(np.float64, casting="same_kind")
            """,
        )
        findings, _ = lint_file(path)
        assert "R1" not in rules_of(findings)

    def test_raw_accumulator_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            def solve(n):
                x = np.zeros(n)
                return x
            """,
        )
        findings, _ = lint_file(path)
        assert any(f.rule == "R1" and "accumulator" in f.message for f in findings)

    def test_accumulator_with_dtype_is_clean(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            def solve(n):
                return np.zeros(n, dtype=np.float64)
            """,
        )
        findings, _ = lint_file(path)
        assert "R1" not in rules_of(findings)

    def test_accumulator_scope_limited_inside_repro(self, tmp_path):
        # Inside the package, only the solve-phase modules are in scope.
        in_scope = write(
            tmp_path,
            "repro/solvers/cg.py",
            "import numpy as np\nx = np.zeros(5)\n",
        )
        out_of_scope = write(
            tmp_path,
            "repro/matrices/generators.py",
            "import numpy as np\nx = np.zeros(5)\n",
        )
        flagged, _ = lint_file(in_scope)
        clean, _ = lint_file(out_of_scope)
        assert "R1" in rules_of(flagged)
        assert "R1" not in rules_of(clean)


# ---------------------------------------------------------------------------
# R2 — scatter-ban
# ---------------------------------------------------------------------------


class TestScatterBan:
    def test_add_at_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            def scatter(out, ids, vals):
                np.add.at(out, ids, vals)
            """,
        )
        findings, _ = lint_file(path)
        assert any(f.rule == "R2" and "np.add.at" in f.message for f in findings)

    @pytest.mark.parametrize("ufunc", ["bitwise_or", "maximum"])
    def test_other_ufuncs_flagged(self, tmp_path, ufunc):
        path = write(
            tmp_path,
            "snippet.py",
            f"import numpy as np\nnp.{ufunc}.at([], [], [])\n",
        )
        findings, _ = lint_file(path)
        assert "R2" in rules_of(findings)

    def test_segops_module_exempt(self, tmp_path):
        path = write(
            tmp_path,
            "repro/util/segops.py",
            "import numpy as np\nnp.add.at([], [], [])\n",
        )
        findings, _ = lint_file(path)
        assert "R2" not in rules_of(findings)

    def test_segment_sum_usage_clean(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            from repro.util.segops import segment_sum

            def scatter(vals, ids, n):
                return segment_sum(vals, ids, n)
            """,
        )
        findings, _ = lint_file(path)
        assert "R2" not in rules_of(findings)


# ---------------------------------------------------------------------------
# R3 — constant-provenance
# ---------------------------------------------------------------------------


class TestConstantProvenance:
    def test_popcount_threshold_literal_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            def pick_core(avg_nnz_blc):
                return avg_nnz_blc >= 10
            """,
        )
        findings, _ = lint_file(path)
        assert any(
            f.rule == "R3" and "TC_NNZ_THRESHOLD" in f.message for f in findings
        )

    def test_named_constant_clean(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            from repro.formats.bitmap import TC_NNZ_THRESHOLD

            def pick_core(avg_nnz_blc):
                return avg_nnz_blc >= TC_NNZ_THRESHOLD
            """,
        )
        findings, _ = lint_file(path)
        assert "R3" not in rules_of(findings)

    def test_tc_threshold_keyword_literal_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            def caller(build_plan, mat):
                return build_plan(mat, tc_threshold=10)
            """,
        )
        findings, _ = lint_file(path)
        assert "R3" in rules_of(findings)

    def test_variation_threshold_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            def schedule(variation):
                return variation > 0.5
            """,
        )
        findings, _ = lint_file(path)
        assert any(
            f.rule == "R3" and "VARIATION_THRESHOLD" in f.message for f in findings
        )

    def test_tile_traffic_literal_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            def traffic(blc_num, itemsize):
                return blc_num * 16 * itemsize + blc_num * 4
            """,
        )
        findings, _ = lint_file(path)
        msgs = [f.message for f in findings if f.rule == "R3"]
        assert any("TILE_SLOTS" in m for m in msgs)
        assert any("BLOCK_SIZE" in m for m in msgs)

    def test_frag_shape_tuple_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            def check(frag_a):
                return frag_a.shape[-2:] != (8, 4)
            """,
        )
        findings, _ = lint_file(path)
        assert any(f.rule == "R3" and "FRAG" in f.message for f in findings)

    def test_defining_module_exempt(self, tmp_path):
        path = write(
            tmp_path,
            "repro/formats/bitmap.py",
            """
            def pick_core(avg_nnz_blc):
                return avg_nnz_blc >= 10
            """,
        )
        findings, _ = lint_file(path)
        assert "R3" not in rules_of(findings)


# ---------------------------------------------------------------------------
# R5 — hot-loop allocation (advisory)
# ---------------------------------------------------------------------------


class TestHotLoopAlloc:
    def test_alloc_in_loop_is_advisory(self, tmp_path):
        path = write(
            tmp_path,
            "repro/kernels/custom.py",
            """
            import numpy as np

            def sweep(tiles):
                out = []
                for t in tiles:
                    buf = np.zeros(t.shape, dtype=np.float64)
                    out.append(buf)
                return np.concatenate(out)
            """,
        )
        findings, _ = lint_file(path)
        r5 = [f for f in findings if f.rule == "R5"]
        assert len(r5) == 1
        assert r5[0].severity is Severity.ADVISORY

    def test_hoisted_alloc_clean(self, tmp_path):
        path = write(
            tmp_path,
            "repro/kernels/custom.py",
            """
            import numpy as np

            def sweep(tiles, n):
                buf = np.zeros(n, dtype=np.float64)
                for t in tiles:
                    buf += t
                return buf
            """,
        )
        findings, _ = lint_file(path)
        assert "R5" not in rules_of(findings)

    def test_advisory_does_not_fail_run(self, tmp_path):
        write(
            tmp_path,
            "repro/formats/custom.py",
            """
            import numpy as np

            def sweep(tiles):
                for t in tiles:
                    buf = np.empty(4, dtype=np.int64)
                return buf
            """,
        )
        result = lint_paths([tmp_path])
        assert result.advisories() and not result.errors()
        assert result.exit_code() == 0

    @pytest.mark.parametrize("subdir", ["solvers", "tape"])
    def test_krylov_and_tape_loops_in_scope(self, tmp_path, subdir):
        """The Krylov iteration loops and the tape replay loop are hot
        paths too: allocations inside them repeat per solver iteration
        (or per replayed cycle)."""
        path = write(
            tmp_path,
            f"repro/{subdir}/custom.py",
            """
            import numpy as np

            def iterate(matvec, b, iters):
                x = np.zeros_like(b)
                while iters > 0:
                    w = np.zeros(b.shape[0], dtype=np.float64)
                    x = x + matvec(w)
                    iters -= 1
                return x
            """,
        )
        findings, _ = lint_file(path)
        r5 = [f for f in findings if f.rule == "R5"]
        assert len(r5) == 1

    def test_accumulator_alloc_flagged(self, tmp_path):
        """The repo's own allocator counts as an allocation."""
        path = write(
            tmp_path,
            "repro/solvers/custom.py",
            """
            from repro.amg.precision import accumulator

            def iterate(matvec, b, iters):
                for _ in range(iters):
                    v = accumulator(b.shape[0])
                    v += matvec(b)
                return v
            """,
        )
        findings, _ = lint_file(path)
        r5 = [f for f in findings if f.rule == "R5"]
        assert len(r5) == 1
        assert "accumulator" in r5[0].message

    def test_amg_dir_still_out_of_scope(self, tmp_path):
        path = write(
            tmp_path,
            "repro/amg/custom.py",
            """
            import numpy as np

            def sweep(tiles):
                for t in tiles:
                    buf = np.zeros(4)
                return buf
            """,
        )
        findings, _ = lint_file(path)
        assert "R5" not in rules_of(findings)

    def test_solver_tree_is_r5_clean(self, tree_lint):
        """The shipped solvers/ and tape/ subtrees carry no hot-loop
        allocations (the GMRES restart buffers are hoisted)."""
        assert [f.format_text() for f in tree_lint.findings
                if f.rule == "R5" and (in_tree(f, "src", "repro", "solvers")
                                       or in_tree(f, "src", "repro", "tape"))
                ] == []


# ---------------------------------------------------------------------------
# R10 — metric-name provenance
# ---------------------------------------------------------------------------


class TestMetricNameProvenance:
    def test_literal_helper_call_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "repro/kernels/custom.py",
            """
            from repro.obs import metrics as obs_metrics

            def dispatch(core):
                obs_metrics.inc("repro_spmv_dispatch_total", core=core)
            """,
        )
        findings, _ = lint_file(path)
        r10 = [f for f in findings if f.rule == "R10"]
        assert len(r10) == 1
        assert "repro_spmv_dispatch_total" in r10[0].message
        assert r10[0].severity is Severity.ERROR

    def test_literal_registry_call_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "repro/obs/custom.py",
            """
            from repro.obs.metrics import REGISTRY

            def drop():
                REGISTRY.counter("repro_trace_spans_dropped_total").inc()
            """,
        )
        findings, _ = lint_file(path)
        assert any(
            f.rule == "R10" and "counter" in f.message for f in findings
        )

    @pytest.mark.parametrize(
        "call",
        [
            'set_gauge("repro_levels", 3)',
            'observe("repro_popcount", 7.0)',
            'observe_counts("repro_popcount", {1: 2})',
        ],
    )
    def test_each_helper_covered(self, tmp_path, call):
        path = write(
            tmp_path,
            "repro/obs/custom.py",
            f"""
            from repro.obs.metrics import set_gauge, observe, observe_counts

            def emit():
                {call}
            """,
        )
        findings, _ = lint_file(path)
        assert "R10" in rules_of(findings)

    def test_names_constant_clean(self, tmp_path):
        path = write(
            tmp_path,
            "repro/kernels/custom.py",
            """
            from repro.obs import metrics as obs_metrics
            from repro.obs import names as obs_names

            def dispatch(core):
                obs_metrics.inc(obs_names.SPMV_DISPATCH, core=core)
            """,
        )
        findings, _ = lint_file(path)
        assert "R10" not in rules_of(findings)

    def test_names_module_exempt(self, tmp_path):
        """obs/names.py itself may do whatever it likes — it is the home."""
        path = write(
            tmp_path,
            "repro/obs/names.py",
            """
            from repro.obs import metrics as obs_metrics

            def selfcheck():
                obs_metrics.inc("repro_selfcheck_total")
            """,
        )
        findings, _ = lint_file(path)
        assert "R10" not in rules_of(findings)

    def test_unrelated_value_method_clean(self, tmp_path):
        """.value()/.total() on non-registry receivers must not trip."""
        path = write(
            tmp_path,
            "repro/kernels/custom.py",
            """
            def lookup(config, table):
                return config.value("tolerance") + table.total("rows")
            """,
        )
        findings, _ = lint_file(path)
        assert "R10" not in rules_of(findings)

    def test_tests_and_benches_in_scope(self, tmp_path):
        """Files outside the package read the same constants."""
        path = write(
            tmp_path,
            "benchmarks/custom.py",
            """
            from repro.obs.metrics import inc

            def record():
                inc("repro_kernel_calls_total", kernel="spmv")
            """,
        )
        findings, _ = lint_file(path)
        assert "R10" in rules_of(findings)

    def test_tree_is_r10_clean(self, tree_lint):
        """Every metric name in the shipped tree routes through
        repro.obs.names."""
        assert [f.format_text() for f in tree_lint.findings
                if f.rule == "R10"] == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_inline_suppression_with_justification(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            np.add.at([], [], [])  # lint: disable=R2 -- exercising the raw path
            """,
        )
        findings, _ = lint_file(path)
        assert rules_of(findings) == set()

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            # lint: disable=R2 -- benchmark needs the unbuffered reference
            np.add.at([], [], [])
            """,
        )
        findings, _ = lint_file(path)
        assert rules_of(findings) == set()

    def test_suppression_without_justification_is_r0(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            np.add.at([], [], [])  # lint: disable=R2
            """,
        )
        findings, _ = lint_file(path)
        # The justification-less directive is itself an error AND does not
        # suppress the R2 finding.
        assert {"R0", "R2"} <= rules_of(findings)

    def test_unknown_rule_in_suppression_is_r0(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            "x = 1  # lint: disable=R99 -- no such rule\n",
        )
        findings, _ = lint_file(path)
        assert "R0" in rules_of(findings)

    def test_suppression_only_covers_named_rule(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            np.add.at([], [], [])  # lint: disable=R5 -- wrong rule named
            """,
        )
        findings, _ = lint_file(path)
        assert "R2" in rules_of(findings)

    def test_disable_all(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            """
            import numpy as np

            np.add.at([], [], [])  # lint: disable=all -- fixture exercises everything
            """,
        )
        findings, _ = lint_file(path)
        assert rules_of(findings) == set()

    def test_directive_text_in_string_is_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "snippet.py",
            'DOC = "use # lint: disable=R2 to suppress"\n',
        )
        findings, _ = lint_file(path)
        assert rules_of(findings) == set()


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    SRC = """
    import numpy as np

    def scatter(out, ids, vals):
        np.add.at(out, ids, vals)
    """

    def test_round_trip_filters_known_findings(self, tmp_path):
        write(tmp_path, "snippet.py", self.SRC)
        result = lint_paths([tmp_path])
        assert result.errors()

        baseline = Baseline.from_findings(result.findings, result.sources)
        baseline_path = tmp_path / "baseline.json"
        baseline.save(baseline_path)

        reloaded = Baseline.load(baseline_path)
        again = lint_paths([tmp_path], baseline=reloaded)
        assert again.findings == []
        assert again.exit_code() == 0

    def test_new_findings_not_masked(self, tmp_path):
        target = write(tmp_path, "snippet.py", self.SRC)
        result = lint_paths([tmp_path])
        baseline = Baseline.from_findings(result.findings, result.sources)

        # A *new* violation on a different line must still be reported.
        target.write_text(
            target.read_text()
            + "\n\ndef more(out, ids, vals):\n    np.maximum.at(out, ids, vals)\n"
        )
        again = lint_paths([tmp_path], baseline=baseline)
        assert len(again.findings) == 1
        assert "np.maximum.at" in again.findings[0].message

    def test_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(bad)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    SEEDED = {
        "R1": "import numpy as np\n\ndef f(v):\n    q = v.astype(np.float16)\n    return q * 2.5\n",
        "R2": "import numpy as np\n\nnp.add.at([], [], [])\n",
        "R3": "def f(avg_nnz_blc):\n    return avg_nnz_blc >= 10\n",
    }

    @pytest.mark.parametrize("rule", sorted(SEEDED))
    def test_seeded_violation_fails(self, tmp_path, rule):
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED[rule])
        proc = run_cli([str(tmp_path), "--no-baseline"])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert rule in proc.stdout

    def test_import_leaves_the_solver_unloaded(self):
        """The linter is stdlib-only: importing it must not load the solver
        (and numpy/scipy with it) through the package's public exports,
        which still resolve on first access."""
        code = (
            "import sys, repro.lint\n"
            "assert 'repro.amg' not in sys.modules, 'repro.amg imported'\n"
            "import repro\n"
            "missing = [n for n in repro.__all__ if not hasattr(repro, n)]\n"
            "assert not missing, missing\n"
            "from repro import AmgTSolver\n"
            "assert AmgTSolver.__module__ == 'repro.amg.solver'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=REPO_ROOT, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_clean_tree_exits_zero(self, tmp_path):
        write(tmp_path, "ok.py", "VALUE = 1\n")
        proc = run_cli([str(tmp_path)])
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_format(self, tmp_path):
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED["R2"])
        proc = run_cli([str(tmp_path), "--format=json", "--no-baseline"])
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["counts"]["error"] == 1
        assert payload["findings"][0]["rule"] == "R2"
        assert payload["findings"][0]["name"] == "scatter-ban"

    def test_select_and_ignore(self, tmp_path):
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED["R2"])
        ignored = run_cli([str(tmp_path), "--ignore=R2", "--no-baseline"])
        assert ignored.returncode == 0
        selected = run_cli([str(tmp_path), "--select=R2", "--no-baseline"])
        assert selected.returncode == 1

    def test_unknown_rule_is_usage_error(self, tmp_path):
        write(tmp_path, "ok.py", "VALUE = 1\n")
        proc = run_cli([str(tmp_path), "--select=R42"])
        assert proc.returncode == 2

    def test_retired_rule_ids_are_unknown(self, tmp_path):
        """Retired ids are not reused — R4/R6 (now proven at run time by
        the oracle stamps and the traced entry-point test) and R7/R8 (the
        buffer-provenance rules): selecting one is a usage error,
        suppressing one an R0 finding."""
        for retired in (["R4", "R6"], ["R7", "R8"]):
            for rule in retired:
                path = write(
                    tmp_path, "ok.py",
                    f"VALUE = 1  # lint: disable={rule} -- retired\n",
                )
                findings, _ = lint_file(path)
                assert rules_of(findings) == {"R0"}
            proc = run_cli(["src/repro", f"--select={','.join(retired)}"])
            assert proc.returncode == 2
            assert str(retired) in proc.stderr

    def test_every_checker_sees_one_file(self):
        """Every rule is per-file: a checker takes the file's
        ModuleContext and nothing else."""
        import inspect

        from repro.lint.engine import CHECKERS

        assert sorted(CHECKERS, key=lambda r: int(r[1:])) == [
            "R1", "R2", "R3", "R5", "R9", "R10",
        ]
        for checker in CHECKERS.values():
            assert list(inspect.signature(checker).parameters) == ["ctx"]

    def test_missing_path_is_usage_error(self, tmp_path):
        proc = run_cli([str(tmp_path / "nope.txt")])
        assert proc.returncode == 2

    def test_unparsable_file_is_error(self, tmp_path):
        write(tmp_path, "bad.py", "def broken(:\n")
        proc = run_cli([str(tmp_path), "--no-baseline"])
        assert proc.returncode == 1
        assert "does not parse" in proc.stdout

    def test_write_baseline_round_trip(self, tmp_path):
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED["R2"])
        baseline = tmp_path / "baseline.json"
        wrote = run_cli(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        )
        assert wrote.returncode == 0
        assert baseline.exists()
        rerun = run_cli([str(tmp_path), "--baseline", str(baseline)])
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr


# ---------------------------------------------------------------------------
# R9 — stale-closure-capture
# ---------------------------------------------------------------------------


class TestStaleClosureCapture:
    def test_lambda_in_loop_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "repro/tape/snippet.py",
            """
            def bind_all(items):
                out = []
                for item in items:
                    out.append(lambda: item + 1)
                return out
            """,
        )
        findings, _ = lint_file(path)
        assert "R9" in rules_of(findings)
        assert any(f.severity is Severity.WARNING for f in findings)

    def test_def_in_loop_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "repro/tape/snippet.py",
            """
            def bind_all(levels):
                ops = []
                for level in levels:
                    def op(v):
                        return v + level
                    ops.append(op)
                return ops
            """,
        )
        findings, _ = lint_file(path)
        assert "R9" in rules_of(findings)

    def test_default_binding_is_clean(self, tmp_path):
        path = write(
            tmp_path,
            "repro/tape/snippet.py",
            """
            def bind_all(items):
                out = []
                for item in items:
                    out.append(lambda item=item: item + 1)
                return out
            """,
        )
        findings, _ = lint_file(path)
        assert "R9" not in rules_of(findings)

    def test_factory_function_is_clean(self, tmp_path):
        # The tape/recorder.py convention: mint through a factory.
        path = write(
            tmp_path,
            "repro/tape/snippet.py",
            """
            def _bind_one(item):
                def op():
                    return item + 1
                return op

            def bind_all(items):
                return [_bind_one(item) for item in items]
            """,
        )
        findings, _ = lint_file(path)
        assert "R9" not in rules_of(findings)

    def test_immediately_called_lambda_is_clean(self, tmp_path):
        path = write(
            tmp_path,
            "repro/tape/snippet.py",
            """
            def run_all(items):
                out = []
                for item in items:
                    out.append((lambda: item + 1)())
                return out
            """,
        )
        findings, _ = lint_file(path)
        assert "R9" not in rules_of(findings)

    def test_loop_inside_closure_is_its_own_scope(self, tmp_path):
        path = write(
            tmp_path,
            "repro/tape/snippet.py",
            """
            def bind(items):
                def run():
                    total = 0
                    for item in items:
                        total += item
                    return total
                return run
            """,
        )
        findings, _ = lint_file(path)
        assert "R9" not in rules_of(findings)

    def test_suppression(self, tmp_path):
        path = write(
            tmp_path,
            "repro/tape/snippet.py",
            """
            def bind_all(items):
                out = []
                for item in items:
                    out.append(lambda: item + 1)  # lint: disable=R9 -- consumed before next iteration
                return out
            """,
        )
        findings, _ = lint_file(path)
        assert "R9" not in rules_of(findings)


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------


class TestSarif:
    SEEDED = """
    import numpy as np

    def kernel(vals, idx, out):
        np.add.at(out, idx, vals)
    """

    def test_sarif_structure_round_trip(self, tmp_path):
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED)
        proc = run_cli(
            [str(tmp_path), "--format=sarif", "--no-baseline"]
        )
        assert proc.returncode == 1
        log = json.loads(proc.stdout)
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert {"R0", "R9", "R10"} <= set(rule_ids)
        assert not {"R7", "R8"} & set(rule_ids)
        (res,) = run["results"]
        assert res["ruleId"] == "R2"
        assert res["level"] == "error"
        assert rule_ids[res["ruleIndex"]] == "R2"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("seeded.py")
        assert loc["region"]["startLine"] == 5

    def test_sarif_levels_map_severities(self, tmp_path):
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED)
        proc = run_cli(
            [str(tmp_path), "--format=sarif", "--no-baseline"]
        )
        log = json.loads(proc.stdout)
        levels = {
            r["id"]: r["defaultConfiguration"]["level"]
            for r in log["runs"][0]["tool"]["driver"]["rules"]
        }
        assert levels["R2"] == "error"
        assert levels["R9"] == "warning"
        assert levels["R5"] == "note"

    def test_sarif_fingerprint_matches_baseline(self, tmp_path):
        from repro.lint.baseline import fingerprints

        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED)
        result = lint_paths([tmp_path])
        (expected,) = [fp for _, fp in fingerprints(
            result.findings, result.sources
        )]
        proc = run_cli(
            [str(tmp_path), "--format=sarif", "--no-baseline"]
        )
        log = json.loads(proc.stdout)
        (res,) = log["runs"][0]["results"]
        assert res["partialFingerprints"]["reproLintFingerprint/v1"] == expected

    def test_sarif_out_writes_alongside_text(self, tmp_path):
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED)
        sarif_path = tmp_path / "out.sarif"
        proc = run_cli(
            [
                str(tmp_path), "--no-baseline",
                "--sarif-out", str(sarif_path),
            ]
        )
        assert proc.returncode == 1
        assert "R2[scatter-ban]" in proc.stdout  # text report still printed
        log = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert log["runs"][0]["results"]


# ---------------------------------------------------------------------------
# Baseline hygiene: stale entries + --prune-baseline
# ---------------------------------------------------------------------------


class TestBaselineHygiene:
    SEEDED = """
    import numpy as np

    def kernel(vals, idx, out):
        np.add.at(out, idx, vals)
    """

    def _baseline_with_stale(self, tmp_path):
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED)
        baseline = tmp_path / "baseline.json"
        wrote = run_cli(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        )
        assert wrote.returncode == 0
        data = json.loads(baseline.read_text(encoding="utf-8"))
        data["entries"]["feedfacefeedface"] = {
            "rule": "R5",
            "path": "repro/kernels/deleted.py",
            "line": 3,
            "message": "long gone",
        }
        baseline.write_text(json.dumps(data), encoding="utf-8")
        return baseline

    def test_stale_entry_reported(self, tmp_path):
        baseline = self._baseline_with_stale(tmp_path)
        proc = run_cli([str(tmp_path), "--baseline", str(baseline)])
        assert proc.returncode == 0  # stale entries never fail the run
        assert "stale baseline entry feedfacefeedface" in proc.stdout
        assert "--prune-baseline" in proc.stdout

    def test_stale_entry_in_json_report(self, tmp_path):
        baseline = self._baseline_with_stale(tmp_path)
        proc = run_cli(
            [str(tmp_path), "--baseline", str(baseline), "--format=json"]
        )
        payload = json.loads(proc.stdout)
        assert payload["stale_baseline"] == [
            {
                "fingerprint": "feedfacefeedface",
                "rule": "R5",
                "path": "repro/kernels/deleted.py",
                "line": 3,
                "message": "long gone",
            }
        ]

    def test_prune_baseline_drops_only_stale(self, tmp_path):
        baseline = self._baseline_with_stale(tmp_path)
        before = json.loads(baseline.read_text(encoding="utf-8"))
        proc = run_cli(
            [str(tmp_path), "--baseline", str(baseline), "--prune-baseline"]
        )
        assert proc.returncode == 0
        assert "pruned 1 stale entry" in proc.stdout
        after = json.loads(baseline.read_text(encoding="utf-8"))
        assert "feedfacefeedface" not in after["entries"]
        assert set(after["entries"]) == set(before["entries"]) - {
            "feedfacefeedface"
        }
        rerun = run_cli([str(tmp_path), "--baseline", str(baseline)])
        assert rerun.returncode == 0
        assert "stale" not in rerun.stdout

    def test_fixed_finding_becomes_stale(self, tmp_path):
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED)
        baseline = tmp_path / "baseline.json"
        run_cli(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        )
        # Fix the violation: the baselined fingerprint is no longer
        # reproduced although the file still exists.
        write(
            tmp_path,
            "repro/kernels/seeded.py",
            """
            def kernel(vals, idx, out):
                return vals
            """,
        )
        proc = run_cli([str(tmp_path), "--baseline", str(baseline)])
        assert proc.returncode == 0
        assert "stale baseline entry" in proc.stdout

    def test_write_baseline_does_not_prune(self, tmp_path):
        baseline = self._baseline_with_stale(tmp_path)
        proc = run_cli(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        )
        assert proc.returncode == 0
        # --write-baseline records current findings; pruning stays an
        # explicit decision, so the rewrite contains only live entries —
        # but the *old* file is only replaced, never silently filtered
        # during a plain run.
        data = json.loads(baseline.read_text(encoding="utf-8"))
        assert "feedfacefeedface" not in data["entries"]

    def test_prune_without_baseline_is_usage_error(self, tmp_path):
        write(tmp_path, "ok.py", "VALUE = 1\n")
        proc = run_cli([str(tmp_path), "--no-baseline", "--prune-baseline"])
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# --changed: git-scoped reporting
# ---------------------------------------------------------------------------


class TestChangedFlag:
    SEEDED = """
    import numpy as np

    def kernel(vals, idx, out):
        np.add.at(out, idx, vals)
    """

    def _git(self, cwd, *args):
        return subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            check=True,
        )

    def _init_repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "commit", "--allow-empty", "-q", "-m", "root")

    def test_changed_scopes_reporting(self, tmp_path):
        self._init_repo(tmp_path)
        write(tmp_path, "repro/kernels/committed.py", self.SEEDED)
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "commit", "-q", "-m", "seed")
        # A second, uncommitted violation: only this one is reported.
        write(tmp_path, "repro/kernels/fresh.py", self.SEEDED)
        proc = run_cli(
            ["repro", "--changed", "--no-baseline", "--format=json"],
            cwd=tmp_path,
        )
        payload = json.loads(proc.stdout)
        assert proc.returncode == 1
        assert [f["path"] for f in payload["findings"]] == [
            "repro/kernels/fresh.py"
        ]
        assert payload["files_checked"] == 1

    def test_changed_clean_when_nothing_changed(self, tmp_path):
        self._init_repo(tmp_path)
        write(tmp_path, "repro/kernels/committed.py", self.SEEDED)
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "commit", "-q", "-m", "seed")
        proc = run_cli(["repro", "--changed", "--no-baseline"], cwd=tmp_path)
        assert proc.returncode == 0
        assert "0 files checked" in proc.stdout

    def test_report_on_parses_only_the_reported_files(
        self, tmp_path, monkeypatch
    ):
        """Whatever the rule selection, a scoped run parses just the
        files it reports on."""
        from repro.lint import engine

        write(tmp_path, "repro/kernels/committed.py", self.SEEDED)
        write(tmp_path, "repro/kernels/fresh.py", self.SEEDED)
        seen = []
        real = engine.load_module

        def recording(path, display_path):
            seen.append(display_path)
            return real(path, display_path=display_path)

        monkeypatch.setattr(engine, "load_module", recording)
        monkeypatch.chdir(tmp_path)
        for select in (["R2"], ["R2", "R5"], None):
            seen.clear()
            result = lint_paths(["repro"], select=select,
                                report_on={"repro/kernels/fresh.py"})
            assert seen == ["repro/kernels/fresh.py"]
            assert result.files_checked == 1
            assert [f.path for f in result.findings] == [
                "repro/kernels/fresh.py"
            ]

    def test_changed_falls_back_without_git(self, tmp_path):
        # No .git anywhere up the tree inside tmp: force failure by
        # pointing GIT_DIR at a nonexistent location.
        write(tmp_path, "repro/kernels/seeded.py", self.SEEDED)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env["GIT_DIR"] = str(tmp_path / "no-such-git")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "repro", "--changed",
             "--no-baseline"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 1  # full run still reports the violation
        assert "falling back to a full run" in proc.stderr


# ---------------------------------------------------------------------------
# Self-check: the merged tree lints clean
# ---------------------------------------------------------------------------


class TestSelfCheck:
    def test_src_repro_is_clean(self):
        # CI's command over the tree, from the repo root (baseline
        # included), warnings failing too.
        proc = run_cli(["src/repro", "benchmarks", "--strict"], cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_src_repro_is_clean_under_new_rules(self, tree_lint):
        # R9 alone, no baseline: the binding loops mint their closures
        # through factories or default arguments.
        assert [f.format_text() for f in tree_lint.findings
                if f.rule == "R9" and in_tree(f, "src", "repro")] == []

    def test_benchmarks_are_clean(self, tree_lint):
        # No baseline, --strict semantics: advisories only.
        assert [f.format_text() for f in tree_lint.findings
                if in_tree(f, "benchmarks")
                and f.severity is not Severity.ADVISORY] == []

    def test_repo_baseline_is_loadable_and_current(self, tree_lint):
        baseline_path = REPO_ROOT / "lint-baseline.json"
        baseline = Baseline.load(baseline_path)
        # Every baselined finding must still exist (no stale entries) and
        # every non-baselined finding must be gone.
        fresh = Baseline.from_findings(
            [f for f in tree_lint.findings if in_tree(f, "src", "repro")],
            tree_lint.sources,
        )
        assert set(fresh.entries) == set(baseline.entries)
