"""The spine benchmark's one command.

    python3 benchmarks/spine/run.py --workload NAME --seed S \\
        [--seconds N] [--trace 0|1] [--out FILE]

``--trace 0`` (default) measures the end-to-end metrics with recording
off; ``--trace 1`` is the separate traced run that reports the per-layer
metrics and writes ``out/trace-NAME.jsonl``.  ``--all`` runs the four
workloads in turn; ``--sizes toy`` is a seconds-long smoke run of the
same code.  Every metric is printed by name with its unit, direction and
sample count; the last line of standard output is the result object the
driver reads.  The exit code is non-zero when any operation failed or
any served page was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
#: One thread per BLAS pool, here and (by inheritance) in every worker
#: the program forks: the numbers should measure the program, not the
#: scheduler.  Must be in the environment before numpy loads.
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def host_fingerprint() -> Dict[str, object]:
    """Where the numbers were taken (recorded in ``--out`` files)."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def result_object(outcome, declared: List[dict]) -> Dict[str, object]:
    """The driver's result: correct / attempted / failed / metrics."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    return {
        "correct": outcome.tally.failed == 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(outcome.metrics.items())
        },
    }


def print_report(name: str, outcome, declared: List[dict]) -> None:
    by_name = {metric["name"]: metric for metric in declared}
    print(f"== {name} ==")
    for metric, value in sorted(outcome.metrics.items()):
        spec = by_name[metric]
        n = outcome.samples.get(metric)
        count = f"  n={n}" if n is not None else ""
        print(
            f"  {metric:<50} {value:>12.6g} {spec['unit']:<6} "
            f"({spec['better']} is better){count}"
        )
    for key, value in sorted(outcome.info.items()):
        print(f"  info {key}: {json.dumps(value, default=float)}")
    for note in outcome.tally.notes[:20]:
        print(f"  FAILED {note}")


def main(argv: Optional[List[str]] = None) -> int:
    for name in BLAS_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.path.insert(0, str(HERE))
    import fixtures
    import oracle
    import workloads

    spec = workloads.SPEC
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measured seconds per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "toy"), default="full")
    parser.add_argument("--out", help="also write the full report here")
    args = parser.parse_args(argv)

    sizes = fixtures.TOY if args.sizes == "toy" else fixtures.FULL
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = (
        [w["name"] for w in spec["workloads"]] if args.all
        else [args.workload]
    )
    reports, all_correct = {}, True
    # A polite kill unwinds like any other exit, through the ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        for index, name in enumerate(names):
            outcome = workloads.run_workload(
                name, args.seed, args.seconds, bool(args.trace), sizes,
                started=_STARTED if index == 0 else None,
            )
            print_report(name, outcome, declared)
            result = result_object(outcome, declared)
            all_correct = all_correct and result["correct"]
            reports[name] = {
                **result, "samples": outcome.samples, "info": outcome.info,
                "notes": outcome.tally.notes,
            }
            # Printed only once nothing this run started is still alive.
            oracle.stop_children()
            print(json.dumps(result))
    finally:
        oracle.stop_children()
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "sizes": args.sizes, "host": host_fingerprint(),
            "workloads": reports,
        }, indent=2, default=float) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
