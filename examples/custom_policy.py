#!/usr/bin/env python3
"""Writing your own admission policy, end to end.

Implements a deliberately simple "token bucket per query type" policy on
the library's :class:`~repro.core.policy.AdmissionPolicy` interface, then
races it against Bouncer on the paper's §5.3 workload — showing both how
to extend the framework and why rate-limiting is not SLO enforcement.

Run:  python examples/custom_policy.py
"""

from repro import AdmissionResult, Query, RejectReason, run_simulation
from repro.bench import make_bouncer, simulation_mix
from repro.core import AdmissionPolicy, HostContext
from repro.exceptions import ConfigurationError
from repro.telemetry import render_metrics


class TokenBucketPolicy(AdmissionPolicy):
    """Admit each query type at most ``rate_per_type`` queries/second.

    A classic client-quota mechanism (the paper's §1 lists per-client
    quotas among the complementary overload techniques).  It caps
    *throughput* per type — it knows nothing about latency, so under a
    skewed mix it both wastes capacity (cheap types capped while the host
    idles) and violates SLOs (expensive types admitted into a long queue).
    """

    name = "token-bucket"

    def __init__(self, ctx: HostContext, rate_per_type: float,
                 burst: float = 50.0) -> None:
        super().__init__()
        if rate_per_type <= 0:
            raise ConfigurationError("rate_per_type must be > 0")
        self._clock = ctx.clock
        self._rate = float(rate_per_type)
        self._burst = float(burst)
        self._tokens = {}       # qtype -> (tokens, last_refill)

    def _decide(self, query: Query) -> AdmissionResult:
        now = self._clock.now()
        tokens, last = self._tokens.get(query.qtype, (self._burst, now))
        tokens = min(self._burst, tokens + (now - last) * self._rate)
        if tokens >= 1.0:
            self._tokens[query.qtype] = (tokens - 1.0, now)
            return AdmissionResult.accept()
        self._tokens[query.qtype] = (tokens, now)
        return AdmissionResult.reject(RejectReason.CAPACITY)


def main() -> None:
    mix = simulation_mix()
    parallelism = 100
    rate = 1.3 * mix.full_load_qps(parallelism)
    # Budget the bucket at an even per-type split of full capacity.
    per_type_rate = mix.full_load_qps(parallelism) / len(mix)

    contenders = {
        "token-bucket": lambda ctx: TokenBucketPolicy(ctx, per_type_rate),
        "bouncer": make_bouncer(),
    }

    print(f"workload: Table 1 mix at 1.3x capacity "
          f"({rate:,.0f} qps, P={parallelism})")
    last_policy = {}
    for name, factory in contenders.items():
        def capturing_factory(ctx, factory=factory, name=name):
            policy = factory(ctx)
            last_policy[name] = policy
            return policy

        report = run_simulation(mix, capturing_factory, rate_qps=rate,
                                num_queries=30_000,
                                parallelism=parallelism, seed=21)
        slow = report.stats_for("slow")
        print(f"\n=== {name} ===")
        print(f"  utilization {report.utilization:.1%}, rejected "
              f"{report.rejection_pct():.1f}% overall")
        print(f"  fast rejected {report.rejection_pct('fast'):.1f}%, "
              f"slow rejected {report.rejection_pct('slow'):.1f}%")
        if slow.completed:
            print(f"  slow rt_p50 {slow.response[50.0] * 1000:.1f}ms / "
                  f"rt_p90 {slow.response[90.0] * 1000:.1f}ms "
                  f"(SLO 18/50)")

    print("\nOperational metrics for the custom policy "
          "(repro.telemetry.render_metrics exposition):\n")
    sample = render_metrics(last_policy["token-bucket"])
    print("\n".join(sample.splitlines()[:10]))
    print("...")
    print("\nThe token bucket caps every type equally, so it rejects "
          "cheap queries the host could easily serve while still letting "
          "slow ones blow the SLO; Bouncer spends the same rejections "
          "only where the SLO is at risk.")


if __name__ == "__main__":
    main()
