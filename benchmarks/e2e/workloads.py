"""The four workloads of the end-to-end ``AmgTSolver`` benchmark.

Every workload is a closed loop with one caller: a fixed list of *cases*,
each of which builds a fresh solver, runs its setup and its solves through
the public API only, and hands back one :class:`Sample` of host timings.
The runner (``run.py``) repeats the cases for the measurement budget.

Each case runs in three steps so that only program work sits inside the
timed region and the traced root span:

* ``prepare(case, rnd)`` builds the inputs (matrix copies, right-hand
  sides) outside the clock;
* ``run(case, inputs, keep)`` makes the timed API calls;
* ``check(sample)`` recomputes every answer's true residual with
  ``scipy.sparse`` and runs the cross-checks, again outside the clock.

A failed check, a non-finite answer, a missed tolerance or an exception
is recorded in ``Sample.failures`` with a label; it never aborts the run.

Seed semantics: the seed draws the right-hand sides of every round
(``rng([seed, ..., round])``) and the case order of every round after the
first.  The matrices are fixed: the suite analogs of
:mod:`repro.matrices.suite` and evolving sequences with a fixed sequence
seed (1, as in ``benchmarks/bench_evolve.py``).  Fresh right-hand sides per round let
a run's repeats range over iteration counts, which vary with the
right-hand side by up to a fifth in mixed precision, instead of one draw
deciding them.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import AmgTSolver
from repro.formats.csr import CSRMatrix
from repro.matrices import evolving_sequence, load_suite_matrix
from repro.obs import trace as obs_trace

__all__ = ["Answer", "Sample", "WORKLOADS", "make_workload"]

clock = time.perf_counter

Loader = Callable[[str], CSRMatrix]

#: Backend / precision configurations of the paper's Fig. 7.
METHODS = {
    "hypre": ("hypre", "fp64"),
    "amgt-fp64": ("amgt", "fp64"),
    "amgt-mixed": ("amgt", "mixed"),
}


@dataclass
class Answer:
    """One solve outcome, checked outside the timed region."""

    label: str
    a: CSRMatrix
    b: np.ndarray
    x: np.ndarray
    #: Largest accepted true relative residual ``||b - A x|| / ||b||``.
    limit: float = math.inf
    converged: bool = True


@dataclass
class Sample:
    """Host timings and outputs of one run of one case."""

    case: str
    round: object = 0
    #: Seconds inside ``setup`` calls (cold and re-setups).
    setup_s: float = 0.0
    #: Seconds of each timed solve call, in the case's fixed call order.
    solve_calls: list = field(default_factory=list)
    #: Seconds of the whole ``run`` step (the traced root span's region).
    wall_s: float = 0.0
    iterations: int = 0
    #: Per-call seconds of width-1 solves and of panel solves (rhs-stream)
    #: and of re-setups (resetup-chain).
    width1_s: list = field(default_factory=list)
    panel_s: list = field(default_factory=list)
    resetup_s: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    #: True relative residual of each answer, in order (set by the check).
    residuals: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    #: Kept only for the traced round: ``(method, records)`` per solver,
    #: panel records separately, hierarchy shape facts, Krylov residual
    #: histories and, for patched re-setups, ``(matrix, hierarchy)`` pairs
    #: for the cold-setup oracle.
    records: list = field(default_factory=list)
    panel_records: list = field(default_factory=list)
    hierarchies: list = field(default_factory=list)
    histories: list = field(default_factory=list)
    patched: list = field(default_factory=list)
    #: Outputs kept for a cross-check (rhs-stream: width-1 and panel solutions).
    extra: dict = field(default_factory=dict)

    @property
    def solve_s(self) -> float:
        """Seconds inside solve calls."""
        return math.fsum(self.solve_calls)

    @property
    def ok(self) -> bool:
        return not self.failures


def true_residual(a: CSRMatrix, b: np.ndarray, x: np.ndarray) -> float:
    """``||b - A x|| / ||b||`` recomputed with ``scipy.sparse``."""
    b = np.asarray(b, dtype=np.float64)
    r = b - a.to_scipy() @ np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def check_answers(sample: Sample) -> None:
    """Count every answer as an attempt and label each failed one.

    The answers (matrix, right-hand side, solution) are released here;
    only their true residuals stay in ``Sample.residuals``.
    """
    answers, sample.answers = sample.answers, []
    for ans in answers:
        sample.attempted += 1
        if not np.all(np.isfinite(ans.x)):
            sample.failures.append(f"{ans.label}: non-finite x")
            sample.residuals.append(math.nan)
            continue
        residual = true_residual(ans.a, ans.b, ans.x)
        sample.residuals.append(residual)
        if not ans.converged:
            sample.failures.append(f"{ans.label}: missed tolerance")
        elif not residual <= ans.limit:
            sample.failures.append(f"{ans.label}: residual {residual:.3g} > {ans.limit:g}")


def hierarchy_facts(h) -> tuple[int, float, float]:
    """``(levels, operator complexity, cycle complexity)`` of a hierarchy.

    Cycle complexity is the V-cycle's nonzeros touched per fine-level
    nonzero: ``(2 * sum(nnz_l, l < L-1) + nnz_{L-1}) / nnz_0``.
    """
    nnz = [lvl.a.nnz for lvl in h.levels]
    cycle = (2 * sum(nnz[:-1]) + nnz[-1]) / nnz[0] if len(nnz) > 1 else 1.0
    return len(nnz), float(h.operator_complexity()), float(cycle)


def _keep_solver(sample: Sample, method: str, solver: AmgTSolver) -> None:
    sample.records.append((method, list(solver.performance.records)))
    sample.hierarchies.append((method, hierarchy_facts(solver.hierarchy)))


class Workload:
    """Common shape: ``cases``, ``prepare``, ``run``, ``check``."""

    name = ""
    cases: list[str] = []
    #: Right-hand sides per panel solve (rhs-stream only).
    width = 1

    def __init__(self, seed: int, scale: dict, load: Loader):
        self.seed = int(seed)
        self.scale = scale

    @property
    def traced_cases(self) -> list[str]:
        """Cases of the traced round (the timed cases unless overridden)."""
        return self.cases

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def prepare(self, case: str, rnd: int):
        raise NotImplementedError

    def run(self, case: str, inputs, keep: bool) -> Sample:
        raise NotImplementedError

    def check(self, sample: Sample, oracle: bool = False) -> None:
        check_answers(sample)


class Fig7Paper(Workload):
    """Paper protocol: cold setup + 50 interpreted V-cycles on ``ones`` on
    five suite analogs.

    The timed rounds run both AmgT configurations.  HYPRE, the baseline,
    runs once per matrix at set-up, as the reference the AmgT-FP64
    residual must match, and again in the traced round, where its priced
    records give the Fig. 7 speedups.
    """

    name = "fig7-paper"

    def __init__(self, seed, scale, load):
        super().__init__(seed, scale, load)
        self.matrices = {m: load(m) for m in scale["matrices"]}
        self.cases = [f"{m}/{meth}" for m in self.matrices for meth in ("amgt-fp64", "amgt-mixed")]
        #: True residual of the HYPRE solve per matrix (NaN if it failed,
        #: which then fails every AmgT-FP64 check of that matrix).
        self.reference = {}
        for m in self.matrices:
            case = f"{m}/hypre"
            try:
                sample = self.run(case, self.prepare(case, 0), keep=False)
                check_answers(sample)
                self.reference[m] = sample.residuals[0]
            except Exception:  # reported through the AmgT-FP64 checks
                traceback.print_exc(file=sys.stderr)
                self.reference[m] = math.nan

    @property
    def traced_cases(self):
        return [f"{m}/{meth}" for m in self.matrices for meth in METHODS]

    def prepare(self, case, rnd):
        matrix, _ = case.split("/")
        return self.matrices[matrix].copy()

    def run(self, case, a, keep):
        matrix, method = case.split("/")
        backend, precision = METHODS[method]
        sample = Sample(case)
        solver = AmgTSolver(backend=backend, precision=precision)
        t = clock()
        solver.setup(a)
        sample.setup_s = clock() - t
        b = np.ones(a.nrows)
        t = clock()
        res = solver.solve(b, max_iterations=self.scale["cycles"], tolerance=0.0)
        sample.solve_calls.append(clock() - t)
        sample.iterations = res.iterations
        sample.answers.append(Answer(case, a, b, res.x))
        if keep:
            _keep_solver(sample, method, solver)
        return sample

    def check(self, sample, oracle=False):
        check_answers(sample)
        matrix, method = sample.case.split("/")
        if method != "amgt-fp64" or not sample.ok:
            return
        sample.attempted += 1
        ref, amgt = self.reference[matrix], sample.residuals[0]
        # Below the stagnation floor the kernels' summation orders, not
        # the algorithm, set the last digits of the residual.
        same = abs(amgt - ref) <= 1e-6 * abs(ref) or max(ref, amgt) <= 1e-9
        if not same:
            sample.failures.append(
                f"{matrix}: amgt-fp64 residual {amgt:.6g} != hypre {ref:.6g}"
            )


class PcgTts(Workload):
    """Time to a stated accuracy: cold setup + taped PCG to 1e-8 on SPD
    suite analogs, FP64 and mixed precision."""

    name = "pcg-tts"

    def __init__(self, seed, scale, load):
        super().__init__(seed, scale, load)
        self.matrices = {m: load(m) for m in scale["matrices"]}
        self.cases = [
            f"{m}/{meth}" for m in self.matrices for meth in ("amgt-fp64", "amgt-mixed")
        ]

    def prepare(self, case, rnd):
        a = self.matrices[case.split("/")[0]]
        return a.copy(), self.rng(self.cases.index(case), rnd).standard_normal(a.nrows)

    def run(self, case, inputs, keep):
        a, b = inputs
        method = case.split("/")[1]
        sample = Sample(case)
        solver = AmgTSolver(precision=METHODS[method][1])
        t = clock()
        solver.setup(a)
        sample.setup_s = clock() - t
        t = clock()
        res = solver.solve_krylov(b, "pcg", tolerance=1e-8, max_iterations=500, tape=True)
        sample.solve_calls.append(clock() - t)
        sample.iterations = res.iterations
        sample.answers.append(Answer(case, a, b, res.x, 1e-7, res.converged))
        if keep:
            _keep_solver(sample, method, solver)
            sample.histories.append(res.residual_history)
        return sample


class RhsStream(Workload):
    """One hierarchy, many right-hand sides: taped width-1 solves, then the
    same right-hand sides again as one ``solve_multi`` panel."""

    name = "rhs-stream"
    cases = ["stream"]

    def __init__(self, seed, scale, load):
        super().__init__(seed, scale, load)
        self.matrix = load(scale["matrix"])
        self.width = scale["width"]

    def prepare(self, case, rnd):
        # A fresh panel of right-hand sides every round: a stream.
        return self.matrix.copy(), self.rng(rnd).standard_normal((self.matrix.nrows, self.width))

    def run(self, case, inputs, keep):
        a, panel = inputs
        opts = {"tolerance": 1e-8, "max_iterations": 100}
        sample = Sample(case)
        solver = AmgTSolver()
        t = clock()
        solver.setup(a)
        sample.setup_s = clock() - t
        # Record both tapes before timing: the stream reuses them.  A tape
        # bakes in the cycle shape, not the iteration count, so one
        # iteration records it.
        solver.solve(panel[:, 0], tape=True, max_iterations=1)
        solver.solve_multi(panel, max_iterations=1)
        log = solver.performance.records
        n0 = len(log)
        xs = []
        for j in range(self.width):
            t = clock()
            res = solver.solve(panel[:, j], tape=True, **opts)
            sample.width1_s.append(clock() - t)
            sample.iterations += res.iterations
            xs.append(res.x)
            sample.answers.append(Answer(f"rhs[{j}]", a, panel[:, j], res.x, 1e-7, res.converged))
        n1 = len(log)
        t = clock()
        multi = solver.solve_multi(panel, **opts)
        sample.panel_s.append(clock() - t)
        sample.solve_calls = sample.width1_s + sample.panel_s
        sample.extra = {"width1": xs, "panel": multi.x}
        if keep:
            setup_records = [r for r in log[:n0] if r.phase == "setup"]
            sample.records.append(("amgt-fp64", setup_records + log[n0:n1]))
            sample.panel_records = list(log[n1:])
            sample.hierarchies.append(("amgt-fp64", hierarchy_facts(solver.hierarchy)))
        return sample

    def check(self, sample, oracle=False):
        check_answers(sample)
        panel = sample.extra.pop("panel", None)
        xs = sample.extra.pop("width1", [])
        if panel is None:
            return
        sample.attempted += 1
        differ = [j for j, x in enumerate(xs) if not np.array_equal(panel[:, j], x)]
        if differ:
            sample.failures.append(f"panel columns {differ} differ from width-1 solves")


class ResetupChain(Workload):
    """Evolving operators: a cold setup, then one re-setup and one
    inexact (rtol 1e-6) taped Krylov solve per step, under both reuse
    policies."""

    name = "resetup-chain"
    FAMILIES = {"newton": "pcg", "timestep": "gmres"}
    #: The sequence seed decides how many patched re-setups fall back to a
    #: cold build (one or two of eight for timestep), so it stays fixed.
    SEQUENCE_SEED = 1

    def __init__(self, seed, scale, load):
        super().__init__(seed, scale, load)
        self.cases = [f"{fam}/{pol}" for fam in self.FAMILIES for pol in ("exact", "patch")]
        self.sequences = {
            fam: evolving_sequence(fam, nx=scale["nx"], steps=scale["steps"],
                                   dirty_frac=0.02, seed=self.SEQUENCE_SEED)
            for fam in self.FAMILIES
        }

    def prepare(self, case, rnd):
        seq = self.sequences[case.split("/")[0]]
        i = self.cases.index(case)
        return [a.copy() for a in seq], [self.rng(i, rnd, k).standard_normal(a.nrows)
                                         for k, a in enumerate(seq)]

    def run(self, case, inputs, keep):
        fam, policy = case.split("/")
        method = self.FAMILIES[fam]
        seq, rhs = inputs
        sample = Sample(case)
        solver = AmgTSolver()
        t = clock()
        solver.setup(seq[0])
        sample.setup_s = clock() - t
        for step, (a, b) in enumerate(zip(seq, rhs)):
            if step:
                t = clock()
                # The only program boundary without a span of its own.
                with obs_trace.span(f"bench.resetup.{policy}", "bench"):
                    solver.setup(a, reuse=True, patch=policy == "patch")
                dt = clock() - t
                sample.resetup_s.append(dt)
                sample.setup_s += dt
                if keep and policy == "patch":
                    sample.patched.append((a, solver.hierarchy))
            t = clock()
            res = solver.solve_krylov(b, method, tolerance=1e-6, max_iterations=200, tape=True)
            sample.solve_calls.append(clock() - t)
            sample.iterations += res.iterations
            sample.answers.append(Answer(f"{case}[{step}]", a, b, res.x, 1e-5, res.converged))
            if keep:
                sample.histories.append(res.residual_history)
        if keep:
            _keep_solver(sample, "amgt-fp64", solver)
        return sample

    def check(self, sample, oracle=False):
        check_answers(sample)
        if not oracle:
            return
        # Patched hierarchies must equal a cold setup bit for bit.
        for step, (a, h) in enumerate(sample.patched, start=1):
            sample.attempted += 1
            cold = AmgTSolver().setup(a.copy()).hierarchy
            if not same_hierarchy(cold, h):
                sample.failures.append(f"{sample.case}[{step}]: patched != cold setup")
        sample.patched = []


def same_hierarchy(cold, other) -> bool:
    """Bit identity of every level operator, diagonal and C/F split."""
    if cold.num_levels != other.num_levels:
        return False
    for lc, lo in zip(cold.levels, other.levels):
        for name in ("a", "p", "r"):
            mc, mo = getattr(lc, name), getattr(lo, name)
            if (mc is None) != (mo is None):
                return False
            if mc is not None and not all(
                np.array_equal(getattr(mc, f), getattr(mo, f))
                for f in ("indptr", "indices", "data")
            ):
                return False
        if not np.array_equal(lc.dinv, lo.dinv):
            return False
        if (lc.cf_marker is None) != (lo.cf_marker is None) or (
            lc.cf_marker is not None and not np.array_equal(lc.cf_marker, lo.cf_marker)
        ):
            return False
    return True


WORKLOADS = {
    w.name: w for w in (Fig7Paper, PcgTts, RhsStream, ResetupChain)
}

#: Problem sizes: ``full`` is the benchmark, ``smoke`` the quick test.
SCALES = {
    "full": {
        "fig7-paper": {
            "matrices": ["thermal1", "bcsstk39", "nd24k", "TSOPF_RS_b300_c3", "ldoor"],
            "cycles": 50,
        },
        "pcg-tts": {"matrices": ["thermal1", "bcsstk39", "ldoor", "nd24k"]},
        "rhs-stream": {"matrix": "thermal1", "width": 16},
        "resetup-chain": {"nx": 64, "steps": 8},
    },
    "smoke": {
        "fig7-paper": {"matrices": ["thermal1"], "cycles": 50},
        "pcg-tts": {"matrices": ["thermal1"]},
        "rhs-stream": {"matrix": "thermal1", "width": 4},
        "resetup-chain": {"nx": 24, "steps": 2},
    },
}


def make_workload(name: str, seed: int, scale: str = "full",
                  load: Loader = load_suite_matrix) -> Workload:
    """Build workload *name*; *load* maps a suite name to its matrix."""
    return WORKLOADS[name](seed, SCALES[scale][name], load)
