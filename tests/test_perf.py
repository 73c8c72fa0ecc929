"""Tests for the performance recording/reporting layer (repro.perf)."""

import numpy as np
import pytest

from repro.gpu import A100, CostModel
from repro.gpu.counters import Precision
from repro.kernels.record import KernelRecord
from repro.perf.report import format_table, geomean, speedup_table
from repro.perf.timeline import PerformanceLog, kernel_class


def _rec(kernel, phase, us, backend="amgt", level=0):
    r = KernelRecord(kernel=kernel, backend=backend, precision=Precision.FP64)
    r.sim_time_us = us
    r.phase = phase
    r.level = level
    return r


class TestPerformanceLog:
    def test_phase_totals_bucketing(self):
        log = PerformanceLog()
        log.append(_rec("spgemm", "setup", 10))
        log.append(_rec("csr2mbsr", "setup", 2))
        log.append(_rec("coarsen", "setup", 3))
        log.append(_rec("spmv", "solve", 7))
        log.append(_rec("vector_ops", "solve", 1))
        setup = log.setup
        assert setup.spgemm_us == 10
        assert setup.conversion_us == 2
        assert setup.other_us == 3
        assert setup.total_us == 15
        solve = log.solve
        assert solve.spmv_us == 7
        assert solve.other_us == 1
        assert log.total_us == 23

    def test_kernel_class_taxonomy(self):
        """One taxonomy for every phase split: SpMM is SpMV work."""
        assert [kernel_class(k) for k in (
            "spgemm", "spmv", "spmm", "csr2mbsr", "mbsr2csr", "csr2bsr",
            "coarsen", "smoother",
        )] == ["spgemm", "spmv", "spmv", "conversion", "conversion",
               "conversion", "other", "other"]
        log = PerformanceLog()
        log.append(_rec("spmv", "solve", 2))
        log.append(_rec("spmm", "solve", 5))
        log.append(_rec("vector_ops", "solve", 1))
        assert log.solve.spmv_us == 7
        assert log.solve.parts == {"spgemm": 0.0, "spmv": 7.0,
                                   "conversion": 0.0, "other": 1.0}
        assert log.summary()["spmv_calls"] == 2

    def test_kernel_times_sequence(self):
        log = PerformanceLog()
        for i, us in enumerate([5.0, 3.0, 8.0]):
            log.append(_rec("spmv", "solve", us, level=i))
        assert log.kernel_times("spmv") == [5.0, 3.0, 8.0]
        assert log.kernel_times("spmv", phase="setup") == []
        assert log.count("spmv") == 3

    def test_summary_keys(self):
        log = PerformanceLog()
        log.append(_rec("spgemm", "setup", 4))
        s = log.summary()
        for key in ("setup_us", "solve_us", "total_us", "spgemm_calls",
                    "spmv_calls", "setup_spgemm_us", "solve_spmv_us"):
            assert key in s

    def test_by_phase_filters(self):
        log = PerformanceLog()
        log.append(_rec("spmv", "setup", 1))
        log.append(_rec("spmv", "solve", 2))
        assert len(log.by_phase("setup")) == 1
        assert len(log.by_kernel("spmv", "solve")) == 1


class TestRecord:
    def test_price_uses_backend_kernel_class(self):
        rec = KernelRecord(kernel="spmv", backend="cusparse",
                           precision=Precision.FP64)
        rec.counters.add_flops(Precision.FP64, 1e6)
        rec.counters.launches = 1
        t = rec.price(CostModel(A100))
        assert t == rec.sim_time_us > 0

    def test_price_explicit_class(self):
        rec = KernelRecord(kernel="whatever", backend="x",
                           precision=Precision.FP64)
        rec.counters.launches = 1
        t = rec.price(CostModel(A100), "generic")
        assert t > 0


class TestReport:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geomean_validation(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_speedup_table(self):
        base = {"a": 10.0, "b": 4.0}
        cont = {"a": 5.0, "b": 4.0}
        s = speedup_table(base, cont)
        assert s == {"a": 2.0, "b": 1.0}

    def test_speedup_table_key_mismatch(self):
        with pytest.raises(ValueError):
            speedup_table({"a": 1.0}, {"b": 1.0})

    def test_speedup_table_nonpositive(self):
        with pytest.raises(ValueError):
            speedup_table({"a": 1.0}, {"a": 0.0})

    def test_format_table(self):
        text = format_table(["name", "x"], [["foo", 1.5], ["bar", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "foo" in lines[2] and "1.500" in lines[2]
