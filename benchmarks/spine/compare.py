"""Compare two sets of spine runs against the bounds in BENCHMARK.json.

    python3 benchmarks/spine/compare.py A [B]

``A`` and ``B`` are directories of ``run.py --out`` reports (any number
of ``*.json`` files each; one file may hold several workloads).  For
every (end-to-end metric, workload) pair the tool prints each side's
median and quartiles, the relative difference with its base (A's
median), and a verdict against the metric's bound:

* ``within``     B's median is no worse than A's by more than the bound;
* ``outside``    it is worse by more than the bound;
* ``unresolved`` the run-to-run spread of either side (quartile distance
  over median) is wider than the bound, so the pair cannot tell.

The exit code is non-zero when any pair is ``outside``.  With ``A``
alone the tool prints A's own spreads beside a third of each bound —
the steadiness the benchmark is held to.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: ``(workload, metric) -> values``, one per run.
Runs = Dict[Tuple[str, str], List[float]]


def load_runs(directory: Path) -> Runs:
    """Every metric value of every report under *directory*."""
    runs: Runs = defaultdict(list)
    files = sorted(directory.glob("*.json"))
    if not files:
        raise SystemExit(f"no *.json reports under {directory}")
    for path in files:
        report = json.loads(path.read_text())
        for workload, result in report["workloads"].items():
            for metric, entry in result["metrics"].items():
                runs[(workload, metric)].append(float(entry["value"]))
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(base: float, other: float, better: str) -> float:
    """How much worse *other* is than *base*, as a share of *base*."""
    change = (other - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def verdict(
    a: List[float], b: List[float], better: str, bound: float
) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    worse = worsening(quartiles(a)[1], quartiles(b)[1], better)
    return "outside" if worse > bound else "within"


def _row(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:>11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def report(a: Runs, b: Optional[Runs]) -> int:
    """Print the table; returns the number of ``outside`` pairs."""
    outside = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        print(f"== {workload} ==")
        for metric in SPEC["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or (b is not None and key not in b):
                continue
            bound, better = metric["bound"], metric["better"]
            line = f"  {metric['name']:<16} A {_row(a[key])}"
            if b is None:
                steady = "steady" if spread(a[key]) <= bound / 3 else "NOISY"
                line += (
                    f"  spread {spread(a[key]):.4f} vs bound/3 "
                    f"{bound / 3:.4f}  {steady}"
                )
            else:
                base, other = quartiles(a[key])[1], quartiles(b[key])[1]
                result = verdict(a[key], b[key], better, bound)
                outside += result == "outside"
                line += (
                    f"  B {_row(b[key])}  B-A {other - base:+.5g} "
                    f"({(other - base) / abs(base):+.2%} of A's {base:.5g}, "
                    f"bound {bound:.0%})  {result}"
                )
            print(line)
    return outside


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__)
        return 2
    a = load_runs(Path(args[0]))
    b = load_runs(Path(args[1])) if len(args) == 2 else None
    return 1 if report(a, b) else 0


if __name__ == "__main__":
    sys.exit(main())
