"""Self-tests of the referee benchmark, all at ``--scale smoke``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests`` (about 25 s).
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), BENCH_DIR]

from e2ebench import harness, spec, workloads  # noqa: E402
from e2ebench.proxy import Tracer  # noqa: E402
from e2ebench.sampler import LayerSampler  # noqa: E402

RUN = os.path.join(BENCH_DIR, "run.py")
REPRO_DIR = os.path.join(REPO_ROOT, "src", "repro")
SMOKE = spec.SCALES["smoke"]


def _benchmark_json():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _left_in_session(session):
    """Processes (zombies too) whose session is ``session``."""
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                # "pid (comm) state ppid pgrp session ...", after the comm
                if fh.read().rpartition(")")[2].split()[3] == str(session):
                    left.append(pid)
        except OSError:
            pass
    return left


def _run(*args):
    # In a session of its own, so that whatever the run orphans can still
    # be told from every other process of the machine: a run leaves none.
    with subprocess.Popen([sys.executable, RUN, "--scale", "smoke", *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as run:
        out, _ = run.communicate(timeout=120)
    if os.path.isdir("/proc/self"):
        assert _left_in_session(run.pid) == []
    return run.returncode, out


def test_benchmark_json_restates_the_spec():
    doc = _benchmark_json()
    assert doc["workloads"] == [{"name": name, "why": why}
                                for name, why in spec.WORKLOADS.items()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in doc[key]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)


def test_suite_reports_every_end_to_end_metric_on_every_workload(tmp_path):
    # What an earlier run left for a workload must not be read as this one's.
    stale = tmp_path / "sim_burst.trace0.json"
    stale.write_text('{"metrics": {}, "stale": true}', encoding="utf-8")
    code, out = _run("--seed", str(spec.DEFAULT_SEED), "--seconds", "0.3",
                     "--out", str(tmp_path))
    assert code == 0, out
    result_path = str(tmp_path / "result.json")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    assert list(result["workloads"]) == list(spec.WORKLOADS)
    for name, entry in result["workloads"].items():
        assert "stale" not in entry["timed"]
        assert entry["timed"]["correct"], entry["timed"]["problems"]
        assert entry["timed"]["expected"] != "failed"
        assert list(entry["metrics"]) == [m.name for m in spec.END_TO_END]
        for metric in spec.END_TO_END:
            assert re.search(rf"^{re.escape(metric.name)}\s+\S+ "
                             rf"{re.escape(metric.unit)}\s", out, re.M)
    # A result compared with itself shows no regression.
    compare = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "compare.py"),
         result_path, result_path],
        capture_output=True, text=True, timeout=60)
    assert compare.returncode == 0, compare.stdout
    assert "worse" not in compare.stdout


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    code, out = _run("--workload", "sim_burst", "--seed", "11",
                     "--seconds", "0.3", "--trace", "1",
                     "--out", str(tmp_path))
    assert code == 0, out
    last = json.loads(out.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert list(last["metrics"]) == [m.name for m in spec.PER_LAYER]
    assert last["metrics"]["core.starvation.overrides"]["value"] > 0
    assert last["metrics"]["core.bouncer.batch_mean_size"]["value"] > 1


def test_policy_proxy_is_transparent(tmp_path):
    workload = workloads.build("sim_overload", 7, SMOKE, str(tmp_path))
    workload.setup()
    plain = workload.simulate(SMOKE.sim_overload_queries, SMOKE.sim_warmup)
    tracer = Tracer("sim_overload", 0)
    proxied = workload.simulate(SMOKE.sim_overload_queries, SMOKE.sim_warmup,
                                tracer)
    assert tracer.many_calls + tracer.decide_calls > 0
    assert dataclasses.asdict(plain) == dataclasses.asdict(proxied)


def test_sampler_shares_sum_to_one(tmp_path):
    workload = workloads.build("sim_overload", 7, SMOKE, str(tmp_path))
    workload.setup()
    sampler = LayerSampler(REPRO_DIR, BENCH_DIR)
    with sampler:
        for _ in range(3):
            workload.repeat()
    assert sampler.samples > 50
    shares = sampler.shares()
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.02)
    assert shares["core.bouncer.busy_share"] > 0.1


def test_corrupted_decision_log_fails_the_run(monkeypatch, tmp_path):
    replay = workloads.replay_decision_log

    def corrupt_then_replay(path, policy_spec, publications):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        victim = next(i for i, line in enumerate(lines)
                      if line.startswith("d "))
        flipped = "0" if lines[victim].endswith("1") else "1"
        lines[victim] = lines[victim][:-1] + flipped
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return replay(path, policy_spec, publications)

    monkeypatch.setattr(workloads, "replay_decision_log", corrupt_then_replay)
    document = harness.run_workload("gateway_rpc", 7, 0.2, False, "smoke",
                                    0.0, REPRO_DIR, str(tmp_path))
    assert document["failed"] > 0 and not document["correct"]
    assert any("differ on replay" in text for text in document["problems"])


def test_compare_survives_a_value_of_zero():
    import compare
    metric = next(m for m in spec.END_TO_END if m.name == "slo_ok_share")
    zero = {"value": 0.0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    some = {"value": 0.5, "median": 0.5, "q1": 0.5, "q3": 0.5}
    assert compare.verdict("gateway_rpc", metric, zero, zero) == "same"
    assert compare.verdict("gateway_rpc", metric, zero, some) == "better"
    assert compare.verdict("gateway_rpc", metric, some, zero) == "worse"
    assert compare.verdict("sim_overload", metric, zero, some) == "better"
    document = {"seed": 7, "scale": "smoke", "workloads": {"gateway_rpc": {
        "metrics": {m.name: zero for m in spec.END_TO_END},
        "timed": {"failed": 0, "attempted": 1}}}}
    assert compare.compare(document, document) == []
