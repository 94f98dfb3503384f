"""Wall-clock reads and the summary statistics every metric uses.

The benchmark measures real time, which the repo's ``no-wall-clock`` lint
rule otherwise forbids; the reads are confined to this module.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Sequence

now = time.perf_counter          # repro: allow=no-wall-clock
now_ns = time.perf_counter_ns    # repro: allow=no-wall-clock
sleep = time.sleep               # repro: allow=no-wall-clock


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in (0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count, as the report prints them."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}
