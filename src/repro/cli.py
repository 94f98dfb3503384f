"""Command-line interface: ``python -m repro <command>``.

Eight commands:

* ``simulate`` — run the §5.3 single-host study for one policy across one
  or more load factors and print the per-type outcome table.
* ``cluster``  — run the §5.4 broker/shard cluster model for one policy
  across one or more (scaled) rates.
* ``chaos``    — run a named fault plan against one policy on the cluster
  model and print SLO attainment under faults next to the fault-free
  baseline (see ``docs/fault_injection.md``).
* ``trace-report`` — summarize a JSONL decision trace (exported by the
  telemetry tracer or scraped from a host's ``/traces`` endpoint) into
  rejection-attribution and SLO-attainment tables.
* ``spans``    — collect lifecycle spans from a span-traced run (or load
  an exported span JSONL) and print the per-type critical-path breakdown;
  ``--chrome-out`` writes a Perfetto-loadable Chrome trace
  (see ``docs/observability.md``).
* ``calibrate-report`` — join each admission decision's Eq. 2/3/4
  estimates to the measured wait/response times and print per-type
  signed-error/APE/attainment tables plus the exclusive rejection
  attribution by Algorithm 1 term.
* ``lint``     — run the project-aware static analysis (clock, RNG and
  simulated-time determinism, lock discipline, swallowed engine errors;
  see ``docs/static_analysis.md``).
* ``info``     — print the reproduction's configuration: the Table 1 mix,
  the SLOs, the cluster shape, and the experiment-to-bench map.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Optional, Sequence

from . import __version__
from .exceptions import ReproError

#: ``--policy`` choices of the single-host verbs (see :func:`_sim_policy`).
SIM_POLICIES = ("accept-fraction", "bouncer", "bouncer-aa", "bouncer-hu",
                "gatekeeper", "maxql", "maxqwt", "qcop")

CLUSTER_POLICIES = {
    "bouncer-aa": "Bouncer+AA",
    "bouncer-hu": "Bouncer+HU",
    "maxql": "MaxQL",
    "maxqwt": "MaxQWT",
    "accept-fraction": "AcceptFraction",
}

#: Broker policies runnable under ``repro chaos`` — the cluster line-up
#: plus plain Bouncer (with the cluster SLOs).
CHAOS_POLICIES = ("bouncer",) + tuple(CLUSTER_POLICIES)


def _sim_policy(name: str) -> Any:
    """The policy factory ``--policy name`` runs on the single host."""
    from .bench import (make_accept_fraction, make_bouncer, make_bouncer_aa,
                        make_bouncer_hu, make_maxql, make_maxqwt)
    from .core.related.gatekeeper import GatekeeperConfig, GatekeeperPolicy
    from .core.related.qcop import QCopConfig, QCopPolicy

    if name == "gatekeeper":    # related-work comparators (§6 / §7)
        return lambda ctx: GatekeeperPolicy(
            ctx, GatekeeperConfig(max_outstanding_time=0.030))
    if name == "qcop":
        return lambda ctx: QCopPolicy(
            ctx, QCopConfig(timeout=0.050, learning_rate=0.2))
    return {
        "bouncer": lambda: make_bouncer(),
        "bouncer-aa": lambda: make_bouncer_aa(allowance=0.05),
        "bouncer-hu": lambda: make_bouncer_hu(alpha=1.0),
        "maxql": lambda: make_maxql(limit=400),
        "maxqwt": lambda: make_maxqwt(limit=0.015),
        "accept-fraction": lambda: make_accept_fraction(
            max_utilization=0.95),
    }[name]()


def _chaos_policy_factory(name: str) -> Any:
    from .bench import cluster_policy_lineup, cluster_slos, make_bouncer

    if name == "bouncer":
        return make_bouncer(slos=cluster_slos())
    return dict(cluster_policy_lineup())[CLUSTER_POLICIES[name]]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bouncer (SIGMOD 2024) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="single-host simulation study (paper §5.3)")
    sim.add_argument("--policy", choices=SIM_POLICIES,
                     default="bouncer")
    sim.add_argument("--factors", default="1.0,1.2,1.5",
                     help="comma-separated multiples of QPS_full_load")
    sim.add_argument("--queries", type=int, default=30_000)
    sim.add_argument("--parallelism", type=int, default=100)
    sim.add_argument("--seed", type=int, default=11)

    cluster = sub.add_parser(
        "cluster", help="broker/shard cluster study (paper §5.4)")
    cluster.add_argument("--policy", choices=sorted(CLUSTER_POLICIES),
                         default="bouncer-aa")
    cluster.add_argument("--rates", default="9000,27000,45000",
                         help="comma-separated scaled cluster rates")
    cluster.add_argument("--queries", type=int, default=10_000)
    cluster.add_argument("--seed", type=int, default=5)

    from .faults import NAMED_PLANS

    chaos = sub.add_parser(
        "chaos",
        help="run a fault plan against a policy (docs/fault_injection.md)")
    chaos.add_argument("--plan", choices=sorted(NAMED_PLANS),
                       default="shard-stall")
    chaos.add_argument("--policy", choices=CHAOS_POLICIES,
                       default="bouncer")
    chaos.add_argument("--rate", type=float, default=9000.0,
                       help="scaled cluster arrival rate (qps)")
    chaos.add_argument("--queries", type=int, default=18_000)
    chaos.add_argument("--warmup", type=int, default=2000)
    chaos.add_argument("--seed", type=int, default=5,
                       help="workload seed (both runs share it)")
    chaos.add_argument("--plan-seed", type=int, default=7,
                       help="fault plan RNG seed")
    chaos.add_argument("--threshold-ms", type=float, default=50.0,
                       help="SLO threshold for attainment (default: the "
                            "paper's p90 objective)")
    chaos.add_argument("--out", default=None,
                       help="also write the report to this file")

    trace = sub.add_parser(
        "trace-report",
        help="summarize a JSONL decision trace (telemetry export)")
    trace.add_argument("path", help="trace file (one JSON event per line)")

    spans = sub.add_parser(
        "spans",
        help="span-trace a run and print the per-type critical-path "
             "breakdown (docs/observability.md)")
    spans.add_argument("--input", default=None,
                       help="load an exported span JSONL instead of "
                            "running a simulation")
    spans.add_argument("--policy", choices=SIM_POLICIES,
                       default="bouncer")
    spans.add_argument("--factor", type=float, default=1.2,
                       help="load as a multiple of QPS_full_load")
    spans.add_argument("--queries", type=int, default=8_000)
    spans.add_argument("--parallelism", type=int, default=100)
    spans.add_argument("--seed", type=int, default=11)
    spans.add_argument("--cluster", action="store_true",
                       help="run the broker/shard cluster model instead "
                            "of the single-host study")
    spans.add_argument("--rate", type=float, default=9000.0,
                       help="cluster arrival rate (qps; with --cluster)")
    spans.add_argument("--sample-rate", type=float, default=1.0,
                       help="deterministic span sampling rate in [0, 1]")
    spans.add_argument("--qtype", default=None,
                       help="restrict the report to one query type")
    spans.add_argument("--out", default=None,
                       help="also export the spans as JSONL")
    spans.add_argument("--chrome-out", default=None,
                       help="also export a Chrome trace-event JSON "
                            "(load in Perfetto / chrome://tracing)")

    calibrate = sub.add_parser(
        "calibrate-report",
        help="estimator calibration: predicted vs measured wait/response "
             "times + rejection attribution (docs/observability.md)")
    calibrate.add_argument("--trace", default=None,
                           help="replay an exported decision-trace JSONL "
                                "instead of running a simulation")
    calibrate.add_argument("--policy", choices=SIM_POLICIES,
                           default="bouncer")
    calibrate.add_argument("--factor", type=float, default=1.2,
                           help="load as a multiple of QPS_full_load")
    calibrate.add_argument("--queries", type=int, default=8_000)
    calibrate.add_argument("--parallelism", type=int, default=100)
    calibrate.add_argument("--seed", type=int, default=11)
    calibrate.add_argument("--window", type=int, default=None,
                           help="rolling window size per estimator series")
    calibrate.add_argument("--sample-rate", type=float, default=1.0,
                           help="deterministic join sampling rate in "
                                "[0, 1]")

    lint = sub.add_parser(
        "lint",
        help="project-aware static analysis (docs/static_analysis.md)")
    lint.add_argument("paths", nargs="*", default=[],
                      help="files or directories to lint (default: every "
                           "existing one of src, tests, benchmarks, "
                           "examples)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      dest="output_format")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule names to run "
                           "(default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")

    sub.add_parser("info", help="print the reproduction's configuration")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run the §5.3 single-host study and print per-type outcome tables."""
    from .bench import format_table, simulation_mix
    from .sim.driver import run_simulation

    mix = simulation_mix()
    factory = _sim_policy(args.policy)
    full_load = mix.full_load_qps(args.parallelism)
    for raw in args.factors.split(","):
        factor = float(raw)
        report = run_simulation(mix, factory, rate_qps=factor * full_load,
                                num_queries=args.queries,
                                parallelism=args.parallelism,
                                seed=args.seed)
        rows = []
        for qtype in mix.type_names:
            stats = report.stats_for(qtype)
            rows.append([
                qtype,
                stats.received,
                f"{stats.rejection_pct:.2f}%",
                f"{stats.response.get(50.0, 0) * 1000:.2f}",
                f"{stats.response.get(90.0, 0) * 1000:.2f}",
            ])
        rows.append(["ALL", report.overall.received,
                     f"{report.overall.rejection_pct:.2f}%",
                     f"{report.overall.response.get(50.0, 0) * 1000:.2f}",
                     f"{report.overall.response.get(90.0, 0) * 1000:.2f}"])
        print(format_table(
            ["type", "received", "rejected", "rt_p50 (ms)", "rt_p90 (ms)"],
            rows,
            title=(f"{report.policy_name} @ {factor:.2f}x "
                   f"({factor * full_load:,.0f} qps), utilization "
                   f"{report.utilization:.1%}")))
        print()
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run the §5.4 cluster model and print per-type outcome tables."""
    from .bench import (CLUSTER_SCALE, cluster_config, cluster_policy_lineup,
                        format_table)
    from .liquid.cluster_sim import run_cluster_simulation

    config = cluster_config(seed=args.seed)
    factory = dict(cluster_policy_lineup())[CLUSTER_POLICIES[args.policy]]
    for raw in args.rates.split(","):
        rate = int(raw)
        report = run_cluster_simulation(config, factory, rate_qps=rate,
                                        num_queries=args.queries,
                                        seed=args.seed)
        rows = []
        for qtype in sorted(report.per_type,
                            key=lambda name: int(name[2:])):
            stats = report.per_type[qtype]
            rows.append([
                qtype, stats.received, f"{stats.rejection_pct:.2f}%",
                f"{stats.processing.get(50.0, 0) * 1000:.2f}",
                f"{stats.response.get(50.0, 0) * 1000:.2f}",
                f"{stats.response.get(90.0, 0) * 1000:.2f}",
            ])
        print(format_table(
            ["type", "received", "rejected", "pt_p50 (ms)", "rt_p50 (ms)",
             "rt_p90 (ms)"],
            rows,
            title=(f"{report.policy_name} @ {rate:,} qps "
                   f"(~{rate * CLUSTER_SCALE // 1000}K cluster-equivalent)"
                   f" — rejections: brokers {report.broker_rejections}, "
                   f"shards {report.shard_rejections}")))
        print()
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a named fault plan on the cluster model and print the report."""
    from .bench import cluster_config
    from .faults import named_plan
    from .faults.chaos import render_chaos_table, run_chaos

    plan = named_plan(args.plan, seed=args.plan_seed)
    result = run_chaos(plan, _chaos_policy_factory(args.policy),
                       config=cluster_config(seed=args.seed),
                       rate_qps=args.rate, num_queries=args.queries,
                       warmup_queries=args.warmup, seed=args.seed,
                       threshold=args.threshold_ms / 1000.0)
    report = render_chaos_table(result)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    return 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    """Summarize an exported decision trace into the §5-style tables."""
    from .telemetry.report import render_trace_report, summarize_trace

    try:
        summary = summarize_trace(args.path)
    except OSError as exc:
        print(f"trace-report: cannot read {args.path}: {exc}",
              file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"trace-report: {exc}", file=sys.stderr)
        return 1
    if not summary.events:
        print(f"trace-report: {args.path} holds no trace events",
              file=sys.stderr)
        return 1
    print(render_trace_report(summary))
    return 0


def _make_span_telemetry(sample_rate: float, spans: bool = True,
                         calibration: bool = False,
                         window: Optional[int] = None) -> Any:
    """Build a ``Telemetry`` facade for the observability CLI commands."""
    from .telemetry.calibration import CalibrationTracker
    from .telemetry.hub import Telemetry
    from .telemetry.registry import MetricsRegistry
    from .telemetry.spans import SpanRecorder

    kwargs = {}
    if spans:
        kwargs["spans"] = SpanRecorder(sample_rate=sample_rate)
    if calibration:
        cal_kwargs = {"sample_rate": sample_rate}
        if window is not None:
            cal_kwargs["window"] = window
        kwargs["calibration"] = CalibrationTracker(**cal_kwargs)
    return Telemetry(registry=MetricsRegistry(), **kwargs)


def _check_sample_rate(rate: float) -> Optional[str]:
    if not 0.0 <= rate <= 1.0:
        return f"sample rate must be within [0, 1], got {rate}"
    return None


def cmd_spans(args: argparse.Namespace) -> int:
    """Span-trace a run (or load an export) and print the breakdown."""
    from .bench import cluster_config, simulation_mix
    from .liquid.cluster_sim import run_cluster_simulation
    from .sim.driver import run_simulation
    from .telemetry.spans import (load_spans_jsonl, render_chrome_trace,
                                  render_span_report, summarize_spans)

    if args.input is not None:
        try:
            spans = load_spans_jsonl(args.input)
        except OSError as exc:
            print(f"spans: cannot read {args.input}: {exc}",
                  file=sys.stderr)
            return 1
        except ReproError as exc:
            print(f"spans: {exc}", file=sys.stderr)
            return 1
        title = args.input
    else:
        problem = _check_sample_rate(args.sample_rate)
        if problem:
            print(f"spans: {problem}", file=sys.stderr)
            return 2
        telemetry = _make_span_telemetry(args.sample_rate)
        if args.cluster:
            if args.policy not in CHAOS_POLICIES:
                print(f"spans: policy {args.policy!r} has no cluster "
                      f"line-up entry (choose from "
                      f"{', '.join(CHAOS_POLICIES)})", file=sys.stderr)
                return 2
            run_cluster_simulation(
                cluster_config(seed=args.seed),
                _chaos_policy_factory(args.policy), rate_qps=args.rate,
                num_queries=args.queries, seed=args.seed,
                telemetry=telemetry)
            title = (f"{args.policy} cluster @ {args.rate:,.0f} qps, "
                     f"seed {args.seed}")
        else:
            mix = simulation_mix()
            rate = args.factor * mix.full_load_qps(args.parallelism)
            run_simulation(mix, _sim_policy(args.policy),
                           rate_qps=rate, num_queries=args.queries,
                           parallelism=args.parallelism, seed=args.seed,
                           telemetry=telemetry)
            title = (f"{args.policy} @ {args.factor:.2f}x "
                     f"({rate:,.0f} qps), seed {args.seed}")
        recorder = telemetry.spans
        assert recorder is not None
        if args.out:
            recorder.export_jsonl(args.out)
            print(f"wrote {args.out}")
        spans = recorder.spans()
    if args.qtype is not None:
        keep = {s.trace_id for s in spans if s.qtype == args.qtype}
        spans = [s for s in spans if s.trace_id in keep]
    if not spans:
        print("spans: no spans recorded (is the sample rate 0, or the "
              "qtype filter empty?)", file=sys.stderr)
        return 1
    if args.chrome_out:
        with open(args.chrome_out, "w", encoding="utf-8") as fh:
            fh.write(render_chrome_trace(spans))
        print(f"wrote {args.chrome_out} (load in Perfetto or "
              f"chrome://tracing)")
    print(render_span_report(summarize_spans(spans), title=title))
    return 0


def cmd_calibrate_report(args: argparse.Namespace) -> int:
    """Join Eq. 2/3/4 estimates to measurements and print the tables."""
    from .bench import simulation_mix
    from .sim.driver import run_simulation
    from .telemetry.calibration import (calibration_from_events,
                                        render_calibration_report)
    from .telemetry.tracer import load_jsonl

    if args.trace is not None:
        try:
            events = load_jsonl(args.trace)
        except OSError as exc:
            print(f"calibrate-report: cannot read {args.trace}: {exc}",
                  file=sys.stderr)
            return 1
        except ReproError as exc:
            print(f"calibrate-report: {exc}", file=sys.stderr)
            return 1
        kwargs = {}
        if args.window is not None:
            kwargs["window"] = args.window
        tracker = calibration_from_events(events, **kwargs)
        title = args.trace
    else:
        problem = _check_sample_rate(args.sample_rate)
        if problem:
            print(f"calibrate-report: {problem}", file=sys.stderr)
            return 2
        telemetry = _make_span_telemetry(args.sample_rate, spans=False,
                                         calibration=True,
                                         window=args.window)
        mix = simulation_mix()
        rate = args.factor * mix.full_load_qps(args.parallelism)
        run_simulation(mix, _sim_policy(args.policy),
                       rate_qps=rate, num_queries=args.queries,
                       parallelism=args.parallelism, seed=args.seed,
                       telemetry=telemetry)
        tracker = telemetry.calibration
        assert tracker is not None
        title = (f"{args.policy} @ {args.factor:.2f}x ({rate:,.0f} qps), "
                 f"seed {args.seed}")
    if not tracker.qtypes() and not tracker.rejected_total:
        print("calibrate-report: no decisions joined (does the trace "
              "carry estimates, or is the sample rate 0?)",
              file=sys.stderr)
        return 1
    print(render_calibration_report(tracker, title=title))
    return 0


#: Directories ``repro lint`` covers when no paths are given; missing
#: ones are skipped so the default works in partial checkouts.
LINT_DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static lint rules and print their findings."""
    from .analysis import (LintConfig, available_rules, lint_paths,
                           render_json, render_text)

    if args.list_rules:
        for name, description in available_rules().items():
            print(f"{name}: {description}")
        return 0
    select = None
    if args.select:
        select = {part.strip() for part in args.select.split(",")
                  if part.strip()}
        unknown = select - set(available_rules())
        if unknown:
            print(f"lint: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    paths = args.paths or [path for path in LINT_DEFAULT_PATHS
                           if os.path.exists(path)]
    config = LintConfig(select=select)
    violations, checked = lint_paths(paths, config)
    if args.output_format == "json":
        print(render_json(violations, checked))
    else:
        print(render_text(violations, checked))
    return 1 if violations else 0


def cmd_info() -> int:
    """Print the reproduction's workload, SLO, and cluster configuration."""
    from .bench import (CLUSTER_SCALE, cluster_config, format_table,
                        simulation_mix)

    mix = simulation_mix()
    config = cluster_config()
    print(f"repro {__version__} — reproduction of 'Bouncer: Admission "
          f"Control with Response Time Objectives' (SIGMOD 2024)")
    print()
    rows = [[spec.name, f"{spec.proportion:.0%}",
             f"{spec.mean * 1000:.2f}", f"{spec.median * 1000:.2f}",
             f"{spec.p90 * 1000:.2f}"] for spec in mix]
    print(format_table(
        ["type", "mix", "pt_mean (ms)", "pt_p50 (ms)", "pt_p90 (ms)"],
        rows, title="Simulation workload (paper Table 1)"))
    print()
    print(f"SLOs: p50 = 18ms, p90 = 50ms for every type (paper Table 2)")
    print(f"QPS_full_load (P=100): {mix.full_load_qps(100):,.0f}")
    print()
    print(f"Cluster model: {config.num_brokers} brokers x "
          f"{config.broker_processes} engines, {config.num_shards} shards "
          f"x {config.shard_processes} cores "
          f"(paper's 12/16 cluster scaled {CLUSTER_SCALE}x down)")
    print()
    print("Performance referee: python3 benchmarks/e2e/run.py "
          "(compare two results with benchmarks/e2e/compare.py)")
    print("Paper figures and tables: pytest benchmarks/ --benchmark-only")
    print("Experiment map: DESIGN.md section 3; measured outcomes: "
          "EXPERIMENTS.md")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "cluster":
            return cmd_cluster(args)
        if args.command == "chaos":
            return cmd_chaos(args)
        if args.command == "trace-report":
            return cmd_trace_report(args)
        if args.command == "spans":
            return cmd_spans(args)
        if args.command == "calibrate-report":
            return cmd_calibrate_report(args)
        if args.command == "lint":
            return cmd_lint(args)
        return cmd_info()
    except BrokenPipeError:
        # ``repro ... | head`` closes stdout early; exit quietly instead
        # of dumping a traceback.  Detach stdout so the interpreter's
        # shutdown flush cannot raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
