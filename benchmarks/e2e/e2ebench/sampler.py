"""CPU-time sampler that charges each sample to a layer of ``repro``.

``ITIMER_PROF`` fires every millisecond of process CPU time; the handler
walks the interrupted stack of the main thread.  The innermost frame that
belongs to ``repro`` or to the benchmark decides the sample's *self* layer
(frames of the standard library and of numpy are charged to whoever called
them); every layer on the stack is counted once as *inclusive*.  A sample
whose innermost such frame is the benchmark's own is unattributed, so the
``busy_share`` values and ``trace.unattributed_share`` sum to 1.

cProfile was tried first and slowed the workloads 4x; sampling costs ~1%.
"""

from __future__ import annotations

import os
import signal
from types import FrameType
from typing import Dict, Optional

from . import spec

INTERVAL_S = 0.001
UNATTRIBUTED = "unattributed"


class LayerSampler:
    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self._repro_dir = os.path.join(os.path.abspath(repro_dir), "")
        self._bench_dir = os.path.join(os.path.abspath(bench_dir), "")
        self._layer_of_file: Dict[str, Optional[str]] = {}
        self.samples = 0
        self.self_counts: Dict[str, int] = {}
        self.inclusive_counts: Dict[str, int] = {}
        self._previous: object = None

    def _classify(self, filename: str) -> Optional[str]:
        path = os.path.abspath(filename)
        if path.startswith(self._bench_dir):
            return UNATTRIBUTED
        if not path.startswith(self._repro_dir):
            return None
        module = "repro." + path[len(self._repro_dir):-len(".py")].replace(
            os.sep, ".")
        best = ""
        layer = None
        for name, prefixes in spec.LAYERS.items():
            for prefix in prefixes:
                if ((module == prefix or module.startswith(prefix + "."))
                        and len(prefix) > len(best)):
                    best, layer = prefix, name
        return layer

    def _on_tick(self, signum: int, frame: Optional[FrameType]) -> None:
        self.samples += 1
        cache = self._layer_of_file
        own = None
        seen = set()
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = cache[filename]
            except KeyError:
                layer = cache[filename] = self._classify(filename)
            if layer is not None:
                if own is None:
                    own = layer
                seen.add(layer)
            frame = frame.f_back
        own = own or UNATTRIBUTED
        self.self_counts[own] = self.self_counts.get(own, 0) + 1
        for layer in seen:
            self.inclusive_counts[layer] = (
                self.inclusive_counts.get(layer, 0) + 1)

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)  # type: ignore[arg-type]

    def shares(self) -> Dict[str, float]:
        """``<layer>.busy_share`` per layer plus the unattributed rest."""
        total = self.samples or 1
        out = {f"{layer}.busy_share": self.self_counts.get(layer, 0) / total
               for layer in spec.LAYERS}
        out["trace.unattributed_share"] = (
            self.self_counts.get(UNATTRIBUTED, 0) / total
            if self.samples else 1.0)
        return out
