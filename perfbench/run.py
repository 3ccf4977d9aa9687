"""The repository benchmark: one command, four named workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-search --seed 1 --seconds 30 --trace 0

Workloads: ``verify-search``, ``verify-reach``, ``batch-sweep`` and
``service-mixed`` (why each exists: ``perfbench/README.md``).  A run
repeats *passes* of the workload for about ``--seconds`` seconds, each
pass in a fresh Python process, so every pass is cold: it pays the
imports, input generation and set-up that a ``repro`` invocation, a
campaign worker or a restarted service pays.  A few set-up-only
processes come first, so that ``setup_s`` is a median of more samples
than there are passes.  Every pass checks its
outputs (see ``workloads.py``); the run reports the medians over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes (at least two traced ones), prints the
per-layer table, checks that the deterministic counts repeat exactly
across the traced passes, and reports the tracing overhead as the median
traced ``wall_s`` minus the median untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it record the run metadata and each workload's own figures (the bases of
the rates, latency percentiles).  Exit status is 0 when a result was
printed, 2 on bad arguments or a checkout without the program, and 1
when a pass crashed or overran.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics: (name, unit).  ``work_per_s`` is deterministic
#: work over ``wall_s``: explored states (verify-*), executed lane steps
#: (batch-sweep) or settled requests (service-mixed).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)

#: Per-layer metrics: (name, unit, deterministic).  Deterministic counts
#: must repeat exactly across traced passes.  A workload that never
#: enters a layer reports 0 for it.
PER_LAYER = (
    ("modelcheck.cells", "count", True),
    ("modelcheck.states", "count", True),
    ("modelcheck.transitions", "count", True),
    ("modelcheck.run_s", "s", False),
    ("modelcheck.livelock_s", "s", False),
    ("modelcheck.livelock.scc_calls", "count", True),
    ("modelcheck.livelock.scc_s", "s", False),
    ("modelcheck.canonical_calls", "count", True),
    ("modelcheck.canonical_s", "s", False),
    ("branching.expand_calls", "count", True),
    ("branching.expand_s", "s", False),
    ("algorithms.plan_calls", "count", True),
    ("algorithms.plan_s", "s", False),
    ("analysis.enumerate_s", "s", False),
    ("campaign.dispatch_s", "s", False),
    ("runs.execute_s", "s", False),
    ("batchsim.lane_steps", "count", True),
    ("batchsim.run_s", "s", False),
    ("batchplan.plan_calls", "count", True),
    ("batchplan.plan_s", "s", False),
    ("batchsim.lane_trace_s", "s", False),
    ("trace.serialize_s", "s", False),
    ("service.hit_requests", "count", True),
    ("service.miss_requests", "count", True),
    ("service.hit_latency_p50_s", "s", False),
    ("service.miss_latency_p50_s", "s", False),
    ("service.submit_s", "s", False),
    ("service.queue_wait_s", "s", False),
    ("service.journal_s", "s", False),
    ("runs.cache.get_calls", "count", True),
    ("runs.cache.get_s", "s", False),
    ("runs.cache.put_calls", "count", True),
    ("runs.cache.put_s", "s", False),
    ("service.transport_s", "s", False),
    ("service.metrics_lag", "count", False),
    ("trace.overhead_s", "s", False),
)

#: A run stops starting passes once this many seconds have gone, so it
#: exits well inside the 180 s a run may take.
HARD_LIMIT_S = 150.0
MIN_PASSES = 3
#: Set-up-only processes per run: at least the minimum, then more until
#: the run has spent the budget on them or made the maximum.  A set-up
#: takes 0.1-0.8 s and varies by tens of percent from one process to the
#: next, so ``setup_s`` is the median over these probes and the passes'
#: own set-ups.
SETUP_PROBES_MIN, SETUP_PROBES_MAX, SETUP_PROBE_BUDGET_S = 3, 12, 3.0


class PassFailed(Exception):
    """A pass crashed, overran, or wrote no result."""


def _run_pass(args, index, traced: bool, check: bool, budget_s: float,
              setup_only: bool = False) -> dict:
    out = os.path.join(OUT, f"{'setup' if setup_only else 'pass'}-{index:02d}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--check", "1" if check else "0",
        "--spawned-at", repr(time.time()), "--out", out,
        "--setup-only", "1" if setup_only else "0",
    ]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, timeout=max(budget_s, 1.0),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {index} overran {budget_s:.0f} s") from exc
    if completed.returncode != 0 or not os.path.exists(out):
        raise PassFailed(f"pass {index} exited {completed.returncode}:\n{completed.stdout[-4000:]}")
    with open(out, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    if setup_only:
        return result
    result["traced"] = traced
    result["checked"] = check
    return result


def _failed_operations(passes) -> int:
    """Wrong outputs over all passes.

    A checked pass reports its wrong operations itself.  An unchecked
    pass must reproduce the per-operation digests of the first pass,
    which is always checked; an operation wrong there stays wrong.
    """
    first = passes[0]
    reference = dict(first["operations"])
    wrong_first = set(first["wrong"])
    failed = 0
    for result in passes:
        operations = result["operations"]
        if result["checked"]:
            failed += min(len(result["wrong"]), max(len(operations), 1))
        else:
            failed += sum(
                1 for label, value in operations
                if label in wrong_first or reference.get(label) != value
            )
            failed += abs(len(operations) - len(reference))
    return failed


def _median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2

    # The "build": byte-compile the program once, so the first pass of a
    # fresh checkout does not pay compilation as set-up time.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)

    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    passes = []
    durations = []
    try:
        setups = []
        while len(setups) < SETUP_PROBES_MAX and (
            len(setups) < SETUP_PROBES_MIN
            or time.monotonic() - started < SETUP_PROBE_BUDGET_S
        ):
            setups.append(_run_pass(args, len(setups), False, False, HARD_LIMIT_S,
                                    setup_only=True)["setup_s"])
        while True:
            elapsed = time.monotonic() - started
            traced = bool(args.trace) and len(passes) % 2 == 0
            check = not passes or workload.check_every_pass
            pass_started = time.monotonic()
            passes.append(_run_pass(args, len(passes), traced, check,
                                    HARD_LIMIT_S + 20.0 - elapsed))
            durations.append(time.monotonic() - pass_started)
            elapsed = time.monotonic() - started
            enough = len(passes) >= MIN_PASSES
            if enough and elapsed + statistics.median(durations) > args.seconds:
                break
            if elapsed > HARD_LIMIT_S:
                if not enough:
                    raise PassFailed(f"only {len(passes)} passes in {elapsed:.0f} s")
                break
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(max(len(p["operations"]), 1) for p in passes)
    failed = _failed_operations(passes)
    correct = failed == 0
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    meta = dict(passes[0]["meta"], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, passes=len(passes))
    print(json.dumps({"meta": meta}, sort_keys=True))
    detail_keys = sorted(untraced[0]["details"])
    details = {key: statistics.median(p["details"][key] for p in untraced) for key in detail_keys}
    details["work_units"] = _median_of(untraced, "work_units")
    print(json.dumps({"details": details}, sort_keys=True))

    metrics = {}
    if args.trace:
        for name, unit, deterministic in PER_LAYER:
            values = [p["layers"].get(name, 0) for p in traced]
            if deterministic and len(set(values)) != 1:
                print(f"perfbench: {name} differs across traced passes: {values}",
                      file=sys.stderr)
                correct = False
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_s"]["value"] = (
            _median_of(traced, "wall_s") - _median_of(untraced, "wall_s")
        )
        width = max(len(name) for name, _, _ in PER_LAYER)
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<{width}}  {metrics[name]['value']:>14.6g} {unit}")
    else:
        for name, unit in END_TO_END:
            if name == "work_per_s":
                value = statistics.median(p["work_units"] / p["wall_s"] for p in passes)
            elif name == "setup_s":
                value = statistics.median(setups + [p["setup_s"] for p in passes])
            else:
                value = _median_of(passes, name)
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
