"""Experiment configuration and rendering shared by the benchmark harness."""

from .experiments import (CLUSTER_RATES_SCALED, CLUSTER_SCALE,
                          SIM_PARALLELISM, TABLE1_TYPES, TRAFFIC_FACTORS,
                          bench_queries, cluster_config,
                          cluster_policy_lineup, cluster_queries,
                          cluster_slos, make_accept_fraction, make_bouncer,
                          make_bouncer_aa, make_bouncer_hu, make_maxql,
                          make_maxqwt, simulation_mix,
                          simulation_policy_lineup, simulation_slos,
                          starvation_demo_mix)
from .tables import format_series, format_table, publish, results_dir

__all__ = [
    "CLUSTER_RATES_SCALED",
    "CLUSTER_SCALE",
    "SIM_PARALLELISM",
    "TABLE1_TYPES",
    "TRAFFIC_FACTORS",
    "bench_queries",
    "cluster_config",
    "cluster_policy_lineup",
    "cluster_queries",
    "cluster_slos",
    "format_series",
    "format_table",
    "make_accept_fraction",
    "make_bouncer",
    "make_bouncer_aa",
    "make_bouncer_hu",
    "make_maxql",
    "make_maxqwt",
    "publish",
    "results_dir",
    "simulation_mix",
    "simulation_policy_lineup",
    "simulation_slos",
    "starvation_demo_mix",
]
