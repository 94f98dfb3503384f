"""Seeded Bouncer outcomes pinned to fingerprints, and the oracle's run.

Bouncer decides through one path (``estimate_wait_mean`` then ``_entry``),
for ``decide``, ``decide_many``'s scalar loop and the gateway's
``decide_types`` alike.  The cells here were recorded at ``170f22e``, the
last commit that still shipped the vectorized ``decide_many`` override,
the fused scalar ``_decide`` and the naive recompute-everything arm, so
they pin those paths' outcomes:

* plain Bouncer, clumps of 64 through ``offer_many`` (the override's only
  simulated caller);
* the drifting gateway workload (``tests/gateway_workload.py``) through
  two in-process :class:`~repro.gateway.worker.ShardEngine` s sharing one
  snapshot board: a digest of the bits and of each worker's log bytes.

The naive oracle (``tests/bouncer_oracle.py``) must reproduce the Figure 6
fingerprint recorded in ``tests/golden/event_engine.json``.  ``python -m
tests.test_bouncer_goldens`` prints the document the current tree
produces; re-record only for a change *meant* to alter seeded outcomes.
"""

import hashlib
import json
import pathlib
import random

import pytest

from tests.test_event_engine import GOLDEN_PATH as ENGINE_GOLDEN_PATH
from tests.test_event_engine import _fig06_cell, _report_fingerprint

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "bouncer.json"


def _burst64_cell(**config):
    from repro.bench.experiments import make_bouncer, simulation_mix
    from repro.sim.driver import run_simulation

    mix = simulation_mix()
    return run_simulation(
        mix, make_bouncer(**config), rate_qps=1.1 * mix.full_load_qps(100),
        num_queries=6000, parallelism=100, warmup_queries=3000, seed=11,
        attainment_threshold=0.05, burst=64)


def gateway_digest(publications=12, frames_per_publication=25, seed=5):
    """Drive the drifting workload through two in-process shard engines.

    Each publication goes on one board; each frame's types are split by
    type name between the shards.  Returns the hex digests of the bits
    (in frame order) and of every engine's decision log.
    """
    from repro.gateway.snapshot import SnapshotBoard
    from repro.gateway.worker import ShardEngine
    from tests.gateway_workload import (GATEWAY_TYPES, build_policy_spec,
                                        build_publication)

    names = sorted(GATEWAY_TYPES)
    weights = [GATEWAY_TYPES[name][3] for name in names]
    shard_of = {name: index % 2 for index, name in enumerate(names)}
    rng = random.Random(seed)
    bits = hashlib.sha256()
    spec = build_policy_spec()
    with SnapshotBoard.create(slots=16) as board:
        engines = [ShardEngine(spec, board, shard) for shard in range(2)]
        for index in range(publications):
            board.publish(*build_publication(index, seed=seed))
            for _ in range(frames_per_publication):
                frame = rng.choices(names, weights, k=32)
                for engine in engines:
                    owned = [q for q in frame
                             if shard_of[q] == engine.shard]
                    bits.update(engine.decide_batch(owned).encode("ascii"))
                    bits.update(b"|")
        logs = [hashlib.sha256(bytes(engine._log)).hexdigest()
                for engine in engines]
        accepted = sum(engine.accepted for engine in engines)
        decisions = sum(engine.decisions for engine in engines)
    return {"bits": bits.hexdigest(), "logs": logs,
            "accepted": accepted, "decisions": decisions}


_CELLS = {"burst64": _burst64_cell}


class TestGoldens:
    @pytest.mark.parametrize("cell", sorted(_CELLS))
    def test_cell_matches_golden_fingerprint(self, cell):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert _report_fingerprint(_CELLS[cell]()) == golden["reports"][cell]

    def test_gateway_digest_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert gateway_digest() == golden["gateway"]


class TestOracle:
    def test_oracle_fig06_run_matches_recorded_fingerprint(self):
        from repro.bench.experiments import simulation_slos
        from tests.bouncer_oracle import naive_bouncer

        golden = json.loads(ENGINE_GOLDEN_PATH.read_text())
        report = _fig06_cell(naive_bouncer(simulation_slos()))
        assert _report_fingerprint(report) == golden["reports"]["fig06"]


def current_document():
    return {"reports": {name: _report_fingerprint(cell())
                        for name, cell in sorted(_CELLS.items())},
            "gateway": gateway_digest()}


if __name__ == "__main__":
    print(json.dumps(current_document(), indent=1, sort_keys=True))
