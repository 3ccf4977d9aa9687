"""One benchmark pass in a fresh process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \\
        --check 0|1 --spawned-at UNIX_TIME --out RESULT.json [--setup-only 1]

The pass pays what a ``repro verify`` / ``repro batch`` invocation, a
campaign worker or a restarted service pays: imports, input generation,
reference loading and, for the service, server start plus the warm
pool.  ``setup_s`` runs from ``--spawned-at`` (the parent's wall clock
just before it started this process) to the first timed operation.
With ``--setup-only 1`` the process stops there and reports only
``setup_s``: ``run.py`` adds a few such set-up probes to its passes, so
that the median ``setup_s`` of a run rests on more samples.
With ``--trace 1`` the span wrappers of ``tracing.py`` are installed
after set-up, the span log is written next to the result, and the
per-layer figures are computed before the output checks run (the checks
call the program too, and must not count as work of the pass).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter


def run_metadata() -> dict:
    """What later runs are compared against: interpreter, NumPy, the
    resolved model-check engine and batchsim backend, usable cores."""
    import platform

    from repro.batchsim.backends import resolve_backend
    from repro.modelcheck.engines import numpy_or_none, resolve_engine

    numpy = numpy_or_none()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "modelcheck_engine": resolve_engine(),
        "batchsim_backend": resolve_backend(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0,
                        help="stop after set-up and report only setup_s")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, traced=bool(args.trace))
    workload.prepare()
    recorder = None
    if args.trace:
        from tracing import SpanRecorder, install

        recorder = SpanRecorder(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        install(recorder)

    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        workload.close()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"setup_s": setup_s}, handle)
        return 0
    started = perf_counter()
    outputs = workload.run()
    wall_s = perf_counter() - started
    # Read before the per-layer figures and the checks, which run the
    # program again and must not raise the pass's peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "meta": run_metadata(),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "work_units": workload.work_units(outputs),
        "details": workload.details(outputs, wall_s),
        "operations": workload.operations(outputs),
    }
    if recorder is not None:
        result["layers"] = workload.layers(recorder, outputs)
        recorder.write(os.path.splitext(args.out)[0] + ".spans.jsonl")
    result["wrong"] = workload.check(outputs) if args.check else None
    workload.close()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
