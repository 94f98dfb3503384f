"""Optional-dependency gate: numpy, if present and not disabled.

numpy is an optional extra (``pip install repro-bouncer[test]`` pulls it
in); the core library must run without it.  Every consumer imports the
module object from here —

    from ._compat import numpy as _np

— and branches on ``_np is None`` at call time, so tests can force the
pure-python fallback for one module by monkeypatching its ``_np`` global,
and CI can force it process-wide with ``REPRO_NO_NUMPY=1`` (read once at
import).  The two implementations must be bit-identical; numpy is a speed
lever, never a semantics lever (``tests/test_numpy_fallback.py``).

The one consumer is :mod:`repro.core.histogram`:
``HistogramSnapshot.percentiles`` switches to ``searchsorted`` at
``NUMPY_MIN_TARGETS`` (six) or more targets.  The shipped SLOs carry two,
so no simulated or gateway workload reaches that arm; the referee's
standalone ``core.histogram.percentiles6_per_s`` drive does, and that is
what ``REPRO_NO_NUMPY`` changes there.
"""

from __future__ import annotations

import os
from typing import Any, Optional

numpy: Optional[Any]
try:
    import numpy
except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY leg
    numpy = None

if os.environ.get("REPRO_NO_NUMPY", "").strip() not in ("", "0"):
    numpy = None


def have_numpy() -> bool:
    """True when the accelerated paths are active in this process."""
    return numpy is not None
