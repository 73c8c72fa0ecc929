"""Smoke test of the end-to-end benchmark at smoke scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from bench import END_TO_END, PER_LAYER, run_workload
from repro.matrices import load_suite_matrix

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Per-layer metrics read off the host clock; every other one is a count
#: or a simulated time and must repeat exactly.
HOST_CLOCK = {"bench.unattributed_frac", "obs.trace_overhead_frac"}


def smoke(name: str, trace: bool, load=load_suite_matrix) -> dict:
    return run_workload(name, seed=3, seconds=0, trace=trace, scale="smoke", load=load)


@pytest.fixture(scope="module")
def traced_pairs():
    return {name: (smoke(name, True), smoke(name, True)) for name in WORKLOADS}


def test_spec_names_units_and_emitters_agree():
    for group, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        spec = {m["name"]: m["unit"] for m in SPEC[group]}
        assert spec == emitted
        assert all(NAME.fullmatch(n) and UNIT.fullmatch(u) for n, u in spec.items())
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in SPEC[g]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(name):
    report = smoke(name, False)
    assert report["correct"], report["failures"]
    assert report["attempted"] >= 1 and report["failed"] == 0
    assert {k: m["unit"] for k, m in report["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in report["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_and_simulated_times_repeat(traced_pairs, name):
    first, second = traced_pairs[name]
    for report in (first, second):
        assert report["correct"], report["failures"]
        assert {k: m["unit"] for k, m in report["metrics"].items()} == PER_LAYER
        assert report["metrics"]["obs.dropped_spans"]["value"] == 0
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    exact = [k for k, unit in PER_LAYER.items()
             if unit not in ("ms", "RHS/s") and k not in HOST_CLOCK]
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}
    assert first["metrics"]["sim_setup_us"]["value"] > 0
    assert first["metrics"]["iterations"]["value"] > 0


def test_nan_matrix_is_counted_as_a_labelled_failure():
    def poisoned(name):
        a = load_suite_matrix(name).copy()
        a.data[:] = np.nan
        return a

    report = run_workload("pcg-tts", seed=3, seconds=0, trace=False, scale="smoke",
                          load=poisoned)
    assert not report["correct"]
    assert report["failed"] == report["attempted"] >= 1
    assert all(label.startswith("thermal1/amgt-") for label in report["failures"])
