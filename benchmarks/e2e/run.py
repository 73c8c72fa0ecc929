"""End-to-end AmgTSolver benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload fig7-paper --seed 0 --seconds 28 --trace 0

Prints every metric as ``workload metric value unit``, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full report (raw per-repeat samples,
failure labels, provenance) goes to ``benchmarks/e2e/out/``, and a traced
run also writes its Chrome trace there.

The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: One BLAS thread (2-core machines: measure the program, not the
#: scheduler; fixed reduction order, so fixed iteration counts) and no
#: observability switches inherited from the caller.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
CLEARED_ENV = ("REPRO_TRACE", "REPRO_CHECK", "REPRO_BLACKBOX_DIR", "REPRO_LEDGER")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig7-paper", "pcg-tts", "rhs-stream", "resetup-chain"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {src}", file=sys.stderr)
        return 2
    # Before numpy loads: the BLAS reads its thread count once.
    os.environ.update(THREAD_ENV)
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    # The provenance stamp asks git; keep it from searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(src))

    from bench import run_workload
    from repro import obs

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # The tracer still holds the traced round.
        obs.write_chrome_trace(OUT / f"{stem}.trace.json")
    full = {
        "meta": obs.run_metadata(),
        "nproc": os.cpu_count(),
        "threads": {k: os.environ[k] for k in THREAD_ENV},
        **report,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(full, fh, indent=1)

    for label in report["failures"]:
        print(f"FAILED {label}")
    for name, m in report["metrics"].items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
