#!/usr/bin/env python3
"""Compare two ``result.json`` documents of ``run.py``: A (base) against B.

Per workload and end-to-end metric prints A, B, the ratio B/A, the bound
and a verdict:

``same``        within the bound (simulated outcomes: bit-equal)
``better`` / ``worse``
                beyond the bound in that direction (simulated outcomes,
                which repeat exactly for a seed: any difference)
``unresolved``  either side's quartiles lie further apart than the bound,
                so the run cannot tell; measure again on a quieter box

Exits non-zero on any ``worse`` or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Dict, List

from e2ebench import spec


def _worse_by(metric: spec.Metric, a: float, b: float) -> float:
    """How much worse B's value is than A's, as a share of A's; an
    infinite share when A's value is 0 and B's is not."""
    worse = a - b if metric.better == "higher" else b - a
    if worse == 0.0:
        return 0.0
    return worse / abs(a) if a else math.copysign(math.inf, worse)


def _spread(row: Dict[str, float]) -> float:
    """Distance between the quartiles as a share of the median."""
    width = row["q3"] - row["q1"]
    if width == 0.0:
        return 0.0
    return width / abs(row["median"]) if row["median"] else math.inf


def verdict(workload: str, metric: spec.Metric, a: Dict[str, float],
            b: Dict[str, float]) -> str:
    worse_by = _worse_by(metric, a["value"], b["value"])
    if spec.repeats_exactly(workload, metric):
        if worse_by == 0.0:
            return "same"
        return "worse" if worse_by > 0 else "better"
    if _spread(a) > metric.bound or _spread(b) > metric.bound:
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "same"


def _failed_share(entry: Dict[str, Any]) -> float:
    timed = entry["timed"]
    return timed["failed"] / timed["attempted"]


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Print the table; returns the regressions found."""
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print(f"note: A is seed {a['seed']} scale {a['scale']}, B is seed "
              f"{b['seed']} scale {b['scale']}; simulated outcomes only "
              f"repeat for equal seed and scale")
    regressions = []
    print(f"{'workload':<18}{'metric':<15}{'A':>13}{'B':>13}"
          f"{'B/A':>8}  {'bound':>6}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            print(f"{workload:<18}not in B")
            regressions.append(f"{workload} did not report in B")
            continue
        side_a = a["workloads"][workload]
        side_b = b["workloads"][workload]
        for metric in spec.END_TO_END:
            row_a = side_a["metrics"][metric.name]
            row_b = side_b["metrics"][metric.name]
            result = verdict(workload, metric, row_a, row_b)
            bound = ("exact" if spec.repeats_exactly(workload, metric)
                     else f"{metric.bound:.0%}")
            ratio = (f"{row_b['value'] / row_a['value']:.3f}"
                     if row_a["value"] else "-")
            print(f"{workload:<18}{metric.name:<15}{row_a['value']:>13.6g}"
                  f"{row_b['value']:>13.6g}{ratio:>8}  {bound:>6}  "
                  f"{result}")
            if result == "worse":
                regressions.append(f"{workload} {metric.name}")
        failed_a, failed_b = _failed_share(side_a), _failed_share(side_b)
        print(f"{workload:<18}{'failed_share':<15}{failed_a:>13.6g}"
              f"{failed_b:>13.6g}")
        if failed_b > failed_a:
            regressions.append(f"{workload} failed_share")
    return regressions


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    regressions = compare(*documents)
    for text in regressions:
        print(f"REGRESSION: {text}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
