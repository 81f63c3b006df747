"""Artifact-regeneration benchmark: cold/warm wall clock, per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload table2_full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload table2_full --seed 1 --seconds 20 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Scratch files live under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("table2_full", "paper_quick", "seed_ensemble")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="time one set-up and exit"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    import harness

    if args.setup_probe:
        print(json.dumps(harness.setup_probe(args.workload, args.seed, WORK, STARTED)))
        return 0

    spec = harness.WORKLOADS[args.workload]
    src_id = harness.source_digest(SRC)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            metrics, ledger = harness.run_traced(
                spec, args.seed, run_dir, WORK / "digests", src_id
            )
            units = harness.PER_LAYER_UNITS
        else:
            metrics, ledger = harness.run_untraced(
                spec,
                args.seed,
                args.seconds,
                run_dir,
                WORK / "digests",
                src_id,
                Path(__file__),
            )
            units = harness.END_TO_END_UNITS
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in ledger.problems:
        print(f"FAILED CHECK: {problem}")
    metric_values = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metric_values,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
