"""Run one workload: the timed run, or the traced run.

The timed run reports the end-to-end metrics with every instrument off.
The traced run makes two plain repeats, one under the sampler, one under
the timing proxy, then the standalone layer drives; it is never the source
of an end-to-end number.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import layers, spec
from .measure import now, summarize
from .proxy import Tracer
from .sampler import INTERVAL_S, LayerSampler
from .workloads import Repeat, Workload, build

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

MIN_REPEATS = 3
MAX_REPEATS = 12


def float_probe() -> str:
    """Fingerprint of this platform's libm.  The simulations are chaotic
    in the last bit of ``exp``/``log``, so the accept counts recorded in
    ``expected.json`` only bind where the fingerprint matches."""
    digest = hashlib.blake2b(digest_size=8)
    for step in range(1, 400):
        x = step * 0.0371
        digest.update(repr((math.exp(x % 3.0), math.log(x), math.sqrt(x),
                            math.exp(-x))).encode("ascii"))
    return digest.hexdigest()


def check_expected(name: str, seed: int, scale: str,
                   outcome: Dict[str, Any]) -> Tuple[str, List[str]]:
    """Accept counts against ``expected.json`` (default seed only)."""
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    if seed != expected["seed"]:
        return "skipped: counts are recorded for the default seed only", []
    if float_probe() != expected["float_probe"]:
        return "skipped: this platform's libm differs from the recorded one", []
    want = expected.get(scale, {}).get(name)
    if want is None:
        return "skipped: nothing recorded for this scale", []
    if outcome["accepted"] != want["accepted"]:
        return "failed", [f"accepted {outcome['accepted']}, expected.json "
                          f"says {want['accepted']}"]
    return "ok", []


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak_kb / 1024.0


def _same_outcome(repeats: List[Repeat], what: str) -> List[str]:
    first = repeats[0].outcome
    return [f"{what} {index} differs from repeat 0: {repeat.outcome} != "
            f"{first}"
            for index, repeat in enumerate(repeats)
            if repeat.outcome != first]


def cold_setup(workload: Workload, import_s: float) -> float:
    """Seconds from this interpreter's start to the end of ``setup()``."""
    start = now()
    workload.setup()
    return import_s + now() - start


def _cold_setups_elsewhere(workload: Workload, scale: str) -> List[float]:
    """``setup_s`` of fresh interpreters, one after the other.  Setting up
    again in this process would skip whatever is imported, built on first
    use or memoized, and that is where work moved out of the timed region
    ends up."""
    setups = []
    for _ in range(workload.sizes.setup_repeats - 1):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload.name, "--seed", str(workload.seed),
             "--scale", scale, "--out", workload.scratch_dir, "--setup-only"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        setups.append(float(done.stdout.split()[-1]))
    return setups


def end_children() -> List[str]:
    """Stop ``multiprocessing``'s resource tracker, wait for it, and name
    whatever child is still there: a run leaves no process behind.

    The tracker starts with the first spawned worker or shared-memory
    segment and reads its pipe until this process closes it.  Left alone
    that happens at interpreter exit, so the tracker outlives the run by a
    moment and nobody waits for it."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()
    problems: List[str] = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:       # no child left: as it should be
            return problems
        if pid == 0:
            return problems + ["a child process is still running at the "
                               "end of the run"]
        problems.append(f"nobody had waited for child process {pid}")


def _timed_run(workload: Workload, seconds: float, import_s: float,
               scale: str
               ) -> Tuple[Dict[str, List[float]], List[Repeat], List[str]]:
    setups = [cold_setup(workload, import_s)]
    repeats: List[Repeat] = []
    try:
        began = now()
        while len(repeats) < MAX_REPEATS:
            # Every repeat starts from the same heap: a simulation is one
            # big reference cycle, and whether the collector had got to the
            # previous one moved peak_rss_mb by 10%.
            gc.collect()
            repeats.append(workload.repeat())
            elapsed = now() - began
            # Stop once another repeat would mostly overshoot --seconds.
            if (len(repeats) >= MIN_REPEATS
                    and elapsed + 0.5 * elapsed / len(repeats) >= seconds):
                break
    finally:
        problems = workload.teardown()
    peak_rss_mb = _peak_rss_mb()
    setups += _cold_setups_elsewhere(workload, scale)
    samples: Dict[str, List[float]] = {
        "setup_s": setups,
        "queries_per_s": [r.rate() for r in repeats],
        "peak_rss_mb": [peak_rss_mb],
    }
    for key in ("accept_share", "slo_ok_share", "rt_p50_ms", "rt_p90_ms"):
        samples[key] = [r.values[key] for r in repeats]
    return samples, repeats, problems + _same_outcome(repeats, "repeat")


def _traced_run(workload: Workload, repro_dir: str
                ) -> Tuple[Dict[str, List[float]], List[Repeat], List[str],
                           Dict[str, Any]]:
    # The sampler and the proxy get a repeat each: the proxy's own cost
    # (~10% where the policy is most of the work) would otherwise sit in
    # the ledger the sampler draws.
    tracer = Tracer(workload.name, repeat=3)
    sampler = LayerSampler(repro_dir, BENCH_DIR)
    with tracer.span(workload.name):
        with tracer.span("generate"):
            workload.setup()
        try:
            plain = [workload.repeat() for _ in range(2)]
            with sampler:
                sampled = workload.repeat()
            with tracer.span("repeat"):
                proxied = workload.repeat(tracer)
        finally:
            with tracer.span("replay"):
                problems = workload.teardown()
    repeats = plain + [sampled, proxied]
    problems += _same_outcome(repeats, "traced repeat")
    plain_wall = statistics.median(r.wall_s for r in plain)
    drives = layers.drive_all(workload.seed, workload.sizes,
                              workload.scratch_dir)
    problems += drives.pop("problems")

    values: Dict[str, float] = {metric.name: 0.0 for metric in spec.PER_LAYER}
    values.update(drives)
    values.update(sampler.shares())
    values.update(tracer.metrics(proxied.wall_s))
    values.update({key: value for key, value in sampled.layer.items()
                   if key in values})
    values["trace.overhead_ratio"] = sampled.wall_s / plain_wall
    values["trace.proxy_overhead_ratio"] = proxied.wall_s / plain_wall
    trace_doc = {
        "workload": workload.name, "seed": workload.seed,
        "sampler": {"interval_s": INTERVAL_S, "samples": sampler.samples,
                    "self": sampler.self_counts,
                    "inclusive": sampler.inclusive_counts},
        "calls": {"decide": tracer.decide_calls,
                  "decide_many": tracer.many_calls,
                  "hooks": tracer.hook_calls},
        "spans": tracer.spans,
    }
    return ({key: [value] for key, value in values.items()},
            repeats, problems, trace_doc)


def _row(metric: spec.Metric, samples: List[float]) -> Dict[str, Any]:
    summary = summarize(samples)
    return dict(summary, value=spec.reported(metric, summary),
                unit=metric.unit)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str, import_s: float, repro_dir: str, out_dir: str
                 ) -> Dict[str, Any]:
    """Run one workload; returns the detailed result document (also
    written to ``<out_dir>/<name>.trace<0|1>.json``)."""
    os.makedirs(out_dir, exist_ok=True)
    workload = build(name, seed, spec.SCALES[scale], out_dir)
    trace_doc: Optional[Dict[str, Any]] = None
    try:
        if trace:
            samples, repeats, problems, trace_doc = _traced_run(
                workload, repro_dir)
            metrics = spec.PER_LAYER
        else:
            samples, repeats, problems = _timed_run(workload, seconds,
                                                    import_s, scale)
            metrics = spec.END_TO_END
    finally:
        left_behind = end_children()
    problems += left_behind
    for index, repeat in enumerate(repeats):
        problems += [f"repeat {index}: {text}" for text in repeat.problems]
    expected, mismatches = check_expected(name, seed, scale,
                                          repeats[0].outcome)
    problems += mismatches

    # Every failed check counts as one failed operation, on top of the
    # queries that errored or went unanswered.
    failed = sum(r.failed for r in repeats) + len(problems)
    document = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "repeats": len(repeats), "outcome": repeats[0].outcome,
        "expected": expected, "problems": problems,
        "attempted": sum(r.attempted for r in repeats) + len(problems),
        "failed": failed, "correct": failed == 0,
        "metrics": {metric.name: _row(metric, samples[metric.name])
                    for metric in metrics},
    }
    with open(os.path.join(out_dir, f"{name}.trace{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    if trace_doc is not None:
        with open(os.path.join(out_dir, f"trace.{name}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(trace_doc, handle)
    return document


def render(document: Dict[str, Any]) -> str:
    """Every metric by name: the reported value with its unit, then the
    median, the quartiles and the count of the samples it comes from."""
    lines = [f"== {document['workload']}  seed={document['seed']} "
             f"scale={document['scale']} trace={document['trace']} "
             f"repeats={document['repeats']}"]
    for name, row in document["metrics"].items():
        lines.append(f"{name:<46} {row['value']:>16.6g} {row['unit']:<6}"
                     f" median={row['median']:.6g} q1={row['q1']:.6g}"
                     f" q3={row['q3']:.6g} n={row['n']}")
    share = document["failed"] / document["attempted"]
    lines.append(f"{'failed_share':<46} {share:>16.6g} share "
                 f" ({document['failed']} of {document['attempted']})")
    lines.append(f"outcome: {document['outcome']}")
    lines.append(f"expected.json: {document['expected']}")
    lines += [f"FAILED CHECK: {text}" for text in document["problems"]]
    return "\n".join(lines)


def result_line(document: Dict[str, Any]) -> str:
    """The driver's contract: one JSON object, last on standard output."""
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in document["metrics"].items()},
    })
