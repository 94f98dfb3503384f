#!/usr/bin/env python3
"""The referee benchmark's one command.

``python3 benchmarks/e2e/run.py --seed 7``
    runs every workload in a fresh child interpreter, one after the other,
    prints every metric and writes ``benchmarks/e2e/out/result.json``;
    ``--trace`` adds the traced run (``out/trace.json``).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    runs one workload in this process and prints, as the last line of
    standard output, ``{"correct", "attempted", "failed", "metrics"}``: the
    end-to-end metrics with ``--trace 0``, the per-layer ones with
    ``--trace 1``.  This is the form the driver calls.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()   # repro: allow=no-wall-clock

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def _run_one(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"no program to measure: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from e2ebench import harness, spec, workloads
    import_s = time.perf_counter() - _STARTED   # repro: allow=no-wall-clock
    if args.setup_only:
        os.makedirs(args.out, exist_ok=True)
        workload = workloads.build(args.workload, args.seed,
                                   spec.SCALES[args.scale], args.out)
        try:
            print(repr(harness.cold_setup(workload, import_s)), flush=True)
        finally:
            workload.teardown(check=False)
            left_behind = harness.end_children()
        for text in left_behind:
            print(text, file=sys.stderr)
        return 1 if left_behind else 0
    document = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
        import_s, os.path.join(SRC_DIR, "repro"), args.out)
    print(harness.render(document))
    print(harness.result_line(document), flush=True)
    return 0 if document["correct"] else 1


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run_child(args: argparse.Namespace, name: str, trace: int,
               leaves: List[str]) -> Tuple[int, Optional[List[Any]]]:
    """One workload in a fresh interpreter.  Returns its exit code and the
    documents it wrote to ``leaves``, ``None`` if it died before."""
    # What an earlier run left must not stand in for this child's.
    for path in leaves:
        if os.path.exists(path):
            os.remove(path)
    code = subprocess.call(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(trace), "--scale", args.scale, "--out", args.out])
    if not all(os.path.exists(path) for path in leaves):
        print(f"{name} --trace {trace}: the child exited with {code} "
              f"before reporting")
        return code or 1, None
    return code, [_load(path) for path in leaves]


def _run_suite(args: argparse.Namespace) -> int:
    """Each workload (and each traced run) in its own child interpreter.
    A workload whose child died is left out of ``result.json``."""
    from e2ebench import spec
    os.makedirs(args.out, exist_ok=True)
    result: Dict[str, Any] = {"seed": args.seed, "scale": args.scale,
                              "seconds": args.seconds, "workloads": {}}
    traces: List[Dict[str, Any]] = []
    status = 0
    for name in spec.WORKLOADS:
        code, wrote = _run_child(
            args, name, 0, [os.path.join(args.out, f"{name}.trace0.json")])
        status = status or code
        if wrote is None:
            continue
        timed, = wrote
        merged = {"metrics": timed.pop("metrics"), "timed": timed}
        if args.trace:
            code, wrote = _run_child(
                args, name, 1,
                [os.path.join(args.out, f"{name}.trace1.json"),
                 os.path.join(args.out, f"trace.{name}.json")])
            status = status or code
            if wrote is None:
                continue
            traced, spans = wrote
            merged["metrics"].update(traced.pop("metrics"))
            merged["traced"] = traced
            traces.append(spans)
        result["workloads"][name] = merged
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    if args.trace:
        with open(os.path.join(args.out, "trace.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(traces, handle)
    print(f"wrote {os.path.join(args.out, 'result.json')}"
          + (" and trace.json" if args.trace else ""))
    return status


def main(argv: List[str]) -> int:
    from e2ebench import spec
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run this one workload here")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14.0,
                        help="how long the timed repeats measure")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out"),
                        help="where results and scratch files go")
    parser.add_argument("--setup-only", action="store_true",
                        help="with --workload: set up in this fresh "
                             "interpreter, print the seconds it took, exit "
                             "(how a run samples setup_s)")
    args = parser.parse_args(argv)
    if args.workload:
        return _run_one(args)
    return _run_suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
