"""Multi-process admission gateway (sharded Bouncer front end).

The threaded :class:`~repro.runtime.AdmissionServer` tops out at one GIL;
this package scales admission *decisions* across worker processes.  Each
worker owns a consistent-hash shard of query types
(:class:`~repro.gateway.hashring.ShardRouter`) and runs its own
:class:`~repro.core.bouncer.BouncerPolicy` against histogram snapshots the
parent publishes cross-process through a shared-memory board
(:class:`~repro.gateway.snapshot.SnapshotBoard`), with the dual-buffer
publish epoch carried across the process boundary as the invalidation
token.  :class:`~repro.gateway.server.GatewayServer` owns the worker
fleet and the board; :mod:`repro.gateway.loadgen` drives it open-loop
from generator processes.  See ``docs/gateway.md``.
"""

from typing import Any, List

from .._lazy import LazyExports

_EXPORTS = LazyExports(globals(), {
    ".hashring": "ShardRouter",
    ".loadgen": "LoadgenReport run_open_loop",
    ".server": "GatewayServer WorkerStats",
    ".snapshot": "BOARD_DEFAULT_SLOTS SnapshotBoard",
    ".worker": "PolicySpec",
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.load(name)


def __dir__() -> List[str]:
    return _EXPORTS.dir()
