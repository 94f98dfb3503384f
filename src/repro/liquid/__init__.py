"""LIquid-style in-memory distributed graph database substrate (§5.1/§5.4).

Two complementary pieces:

* a **real store** — :class:`~repro.liquid.service.LiquidService` over
  sharded :class:`~repro.liquid.storage.EdgeStore` instances, executing
  actual :class:`~repro.liquid.query.GraphQuery` objects; and
* a **cluster model** — :mod:`repro.liquid.cluster_sim`, the event-driven
  broker/shard queueing network the §5.4 experiments run on.
"""

from typing import Any, List

from .._lazy import LazyExports

_EXPORTS = LazyExports(globals(), {
    ".cluster_sim": "FANOUT_ALL FANOUT_ONE BrokerHost ClusterConfig "
                    "ClusterMetrics ClusterReport LiquidClusterSim "
                    "QueryTypeCost ResilienceConfig ShardHost "
                    "run_cluster_simulation",
    ".engine": "ShardEngine",
    ".partition": "HashPartitioner stable_hash",
    ".query": "CountQuery DistanceQuery EdgeQuery FanoutQuery GraphQuery "
              "QueryResult SubQuery",
    ".rules": "PathQuery Rule RuleEngine parse_rule",
    ".service": "LiquidService build_random_graph",
    ".snapshot": "load_snapshot read_manifest save_snapshot",
    ".storage": "EdgeStore",
    ".traces": "LINKEDIN_MIX linkedin_cost_table linkedin_mix_proportions "
               "sample_graph_queries",
    ".updates": "EdgeUpdate ShardConsumer UpdateLog UpdateOp UpdatePipeline",
    ".vlist": "VList",
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.load(name)


def __dir__() -> List[str]:
    return _EXPORTS.dir()
