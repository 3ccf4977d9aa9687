"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload runs on the program's defaults (``auto`` model-check
engine, ``auto`` batchsim backend) and takes only the inputs its seed
generates.  A pass is one fresh process (see ``worker.py``): set-up,
the timed section, in a traced pass the per-layer figures derived from
the span log, then the output checks.

Why each workload exists is written down in ``README.md`` beside this
file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import statistics
import tempfile
import threading
from collections import Counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references", "verify_cells.json")

#: Verify workloads: (task, (k, n)) cells, executed as one VerifySpec per
#: task.  Searching states are concrete; the reach tasks canonicalize.
SEARCH_CELLS: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "searching": ((7, 16), (8, 17), (9, 20), (4, 14)),
}
REACH_CELLS: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "gathering": ((7, 16), (8, 18), (2, 16)),
    "align": ((9, 20),),
}

#: batch-sweep: lanes per sweep, ring size and robots.
SWEEP_LANES = 48
SWEEP_N, SWEEP_K = 24, 8

#: service-mixed: cache-read re-submissions and executing requests.
SERVICE_HIT_SIMULATE = 114
SERVICE_HIT_VERIFY = 6
SERVICE_MISS_SIMULATE = 110
SERVICE_MISS_VERIFY = 10
#: Executing simulate specs that are submitted twice back to back, so
#: that the two clients race on an identical submission and the
#: server's de-duplication is exercised.
SERVICE_DUPLICATES = 8
#: Small verify cells (all SOLVED, a few ms each) for service requests.
SERVICE_VERIFY_CELLS: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "gathering": ((3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (4, 7),
                  (4, 8), (4, 9), (4, 10), (5, 8), (5, 9), (5, 10)),
    "align": ((3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (4, 7), (4, 8),
              (4, 9), (4, 10), (5, 8), (5, 9), (5, 10)),
}


def digest(document: object) -> str:
    """SHA-256 of a document's canonical JSON text."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


class Workload:
    """One workload: seeded inputs, a timed ``run``, and its checks."""

    name = "abstract"
    #: Whether every pass checks its outputs against independent
    #: references; otherwise only the first pass does, and later passes
    #: must reproduce that pass's per-operation digests exactly.
    check_every_pass = True

    def __init__(self, seed: int, traced: bool = False) -> None:
        self.seed = seed
        self.traced = traced

    def prepare(self) -> None:
        """Set-up that belongs to ``setup_s`` (beyond imports)."""

    def run(self) -> object:
        """The timed section; returns the outputs to check."""
        raise NotImplementedError

    def operations(self, outputs: object) -> List[Tuple[str, str]]:
        """``(operation label, output digest)`` per operation."""
        raise NotImplementedError

    def check(self, outputs: object) -> List[str]:
        """Labels of the operations whose output is wrong."""
        raise NotImplementedError

    def work_units(self, outputs: object) -> int:
        """Deterministic work done: the base of ``work_per_s``."""
        raise NotImplementedError

    def details(self, outputs: object, wall_s: float) -> Dict[str, float]:
        """The workload's own end-to-end figures (printed, not gated)."""
        return {}

    def layers(self, recorder, outputs: object) -> Dict[str, float]:
        """Per-layer figures of a traced pass."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``prepare`` acquired."""


def _covered(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _self_time(recorder, name: str) -> float:
    return recorder.self_s.get(name, 0.0)


def _calls(recorder, name: str) -> int:
    return recorder.calls.get(name, 0)


# --------------------------------------------------------------------- #
# verify-search / verify-reach
# --------------------------------------------------------------------- #
class VerifyWorkload(Workload):
    """``execute(VerifySpec(...))`` per task, no cache, ``jobs=1``."""

    cells: Dict[str, Tuple[Tuple[int, int], ...]] = {}

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed, traced)
        from repro.runs.spec import VerifySpec

        rng = random.Random(seed)
        tasks = sorted(self.cells)
        rng.shuffle(tasks)
        self.specs = []
        for task in tasks:
            cells = list(self.cells[task])
            rng.shuffle(cells)
            self.specs.append(VerifySpec(task=task, cells=tuple(cells)))
        with open(REFERENCES, "r", encoding="utf-8") as handle:
            self.references = json.load(handle)["cells"]

    def run(self) -> object:
        import repro.runs

        return [repro.runs.execute(spec, jobs=1).payload for spec in self.specs]

    @staticmethod
    def _documents(outputs) -> List[Dict[str, object]]:
        return [document for payload in outputs for document in payload["cells"]]

    @staticmethod
    def _label(document) -> str:
        return f"{document['task']}:{document['k']}x{document['n']}"

    def operations(self, outputs) -> List[Tuple[str, str]]:
        return [(self._label(d), digest(d)) for d in self._documents(outputs)]

    def check(self, outputs) -> List[str]:
        wrong = []
        documents = {self._label(d): d for d in self._documents(outputs)}
        for spec in self.specs:
            for k, n in spec.cells:
                label = f"{spec.task}:{k}x{n}"
                document = documents.get(label)
                if (
                    document is None
                    or document.get("verdict") in ("unknown", "error")
                    or document != self.references.get(label)
                ):
                    wrong.append(label)
        return wrong

    def work_units(self, outputs) -> int:
        return sum(int(d["num_states"]) for d in self._documents(outputs))

    def details(self, outputs, wall_s: float) -> Dict[str, float]:
        return {"states": self.work_units(outputs),
                "states_per_s": self.work_units(outputs) / wall_s}

    def layers(self, recorder, outputs) -> Dict[str, float]:
        documents = self._documents(outputs)
        return {
            "modelcheck.cells": len(documents),
            "modelcheck.states": sum(int(d["num_states"]) for d in documents),
            "modelcheck.transitions": sum(int(d["num_transitions"]) for d in documents),
            "modelcheck.run_s": _self_time(recorder, "modelcheck.run"),
            "modelcheck.livelock_s": recorder.total_s.get("modelcheck.livelock", 0.0),
            "modelcheck.livelock.scc_calls": _calls(recorder, "modelcheck.scc"),
            "modelcheck.livelock.scc_s": _self_time(recorder, "modelcheck.scc"),
            "modelcheck.canonical_calls": _calls(recorder, "modelcheck.canonical"),
            "modelcheck.canonical_s": _self_time(recorder, "modelcheck.canonical"),
            "branching.expand_calls": _calls(recorder, "branching.expand"),
            "branching.expand_s": _self_time(recorder, "branching.expand"),
            "algorithms.plan_calls": _calls(recorder, "algorithms.plan"),
            "algorithms.plan_s": _self_time(recorder, "algorithms.plan"),
            "analysis.enumerate_s": _self_time(recorder, "analysis.enumerate"),
            "campaign.dispatch_s": _self_time(recorder, "campaign.dispatch"),
            "runs.execute_s": _self_time(recorder, "runs.execute"),
        }


class VerifySearch(VerifyWorkload):
    name = "verify-search"
    cells = SEARCH_CELLS


class VerifyReach(VerifyWorkload):
    name = "verify-reach"
    cells = REACH_CELLS


# --------------------------------------------------------------------- #
# batch-sweep
# --------------------------------------------------------------------- #
class BatchSweep(Workload):
    """Two ``BatchSweepSpec`` sweeps: ring-clearing and align to C*."""

    name = "batch-sweep"
    check_every_pass = False

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed, traced)
        from repro.runs.spec import BatchSweepSpec

        rng = random.Random(seed)
        seeds = rng.sample(range(1_000_000), 2 * SWEEP_LANES)
        steps = 30 * SWEEP_N * SWEEP_K
        self.specs = [
            BatchSweepSpec(algorithm="ring-clearing", n=SWEEP_N, k=SWEEP_K, steps=steps,
                           seeds=tuple(seeds[:SWEEP_LANES])),
            BatchSweepSpec(algorithm="align", n=SWEEP_N, k=SWEEP_K, steps=steps,
                           seeds=tuple(seeds[SWEEP_LANES:]), stop="c_star"),
        ]

    def run(self) -> object:
        import repro.runs

        return [repro.runs.execute(spec).payload for spec in self.specs]

    def _lanes(self, outputs):
        for spec, payload in zip(self.specs, outputs):
            for seed, lane in zip(spec.seeds, payload["runs"]):
                yield spec, seed, lane

    def operations(self, outputs) -> List[Tuple[str, str]]:
        return [(f"{spec.algorithm}:{seed}", digest(lane))
                for spec, seed, lane in self._lanes(outputs)]

    def check(self, outputs) -> List[str]:
        import repro.runs

        wrong = []
        for spec, payload in zip(self.specs, outputs):
            if list(payload["seeds"]) != list(spec.seeds) or len(payload["runs"]) != len(spec.seeds):
                wrong.extend(f"{spec.algorithm}:{seed}" for seed in spec.seeds)
                continue
            for seed, lane in zip(spec.seeds, payload["runs"]):
                if lane != repro.runs.execute(spec.member(seed)).payload:
                    wrong.append(f"{spec.algorithm}:{seed}")
        return wrong

    def work_units(self, outputs) -> int:
        return sum(int(lane["steps_executed"]) for _, _, lane in self._lanes(outputs))

    def details(self, outputs, wall_s: float) -> Dict[str, float]:
        return {"lane_steps": self.work_units(outputs),
                "lane_steps_per_s": self.work_units(outputs) / wall_s}

    def layers(self, recorder, outputs) -> Dict[str, float]:
        return {
            "batchsim.lane_steps": self.work_units(outputs),
            "batchsim.run_s": _self_time(recorder, "batchsim.run"),
            "batchplan.plan_calls": _calls(recorder, "batchplan.plan"),
            "batchplan.plan_s": _self_time(recorder, "batchplan.plan"),
            "batchsim.lane_trace_s": _self_time(recorder, "batchsim.lane_trace"),
            "trace.serialize_s": _self_time(recorder, "trace.serialize"),
            "runs.execute_s": _self_time(recorder, "runs.execute"),
        }


# --------------------------------------------------------------------- #
# service-mixed
# --------------------------------------------------------------------- #
def _simulate_spec(seed: int) -> Dict[str, object]:
    return {"kind": "simulate", "algorithm": "align", "n": 12, "k": 5,
            "steps": 300, "seed": seed, "stop": "c_star"}


def _verify_spec(task: str, cells) -> Dict[str, object]:
    return {"kind": "verify", "task": task, "cells": [list(c) for c in cells]}


class ServiceMixed(Workload):
    """In-process ``create_server`` driven by a two-thread closed loop."""

    name = "service-mixed"

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed, traced)
        from service_client import RequestRecord

        rng = random.Random(seed)
        sim_seeds = rng.sample(range(1_000_000), SERVICE_HIT_SIMULATE + SERVICE_MISS_SIMULATE)
        hits = [_simulate_spec(s) for s in sim_seeds[:SERVICE_HIT_SIMULATE]]
        misses = [_simulate_spec(s) for s in sim_seeds[SERVICE_HIT_SIMULATE:]]
        # Verify requests: warm specs pair up "warm" cells; each executing
        # spec pairs one warm cell (a campaign-unit cache hit) with a
        # fresh one, so unit de-duplication runs on every verify miss.
        per_task_hits = SERVICE_HIT_VERIFY // 2
        per_task_misses = SERVICE_MISS_VERIFY // 2
        for task in sorted(SERVICE_VERIFY_CELLS):
            cells = list(SERVICE_VERIFY_CELLS[task])
            rng.shuffle(cells)
            warm = cells[: 2 * per_task_hits]
            fresh = cells[2 * per_task_hits:]
            for i in range(per_task_hits):
                hits.append(_verify_spec(task, warm[2 * i: 2 * i + 2]))
            for i in range(per_task_misses):
                misses.append(_verify_spec(task, [warm[i % len(warm)], fresh[i]]))
        self.warm_specs = list(hits)
        records = [RequestRecord("hit", spec) for spec in hits]
        records += [RequestRecord("miss", spec) for spec in misses]
        rng.shuffle(records)
        twice = {id(spec) for spec in rng.sample(misses[:SERVICE_MISS_SIMULATE],
                                                 SERVICE_DUPLICATES)}
        self.records = []
        for record in records:
            self.records.append(record)
            if id(record.spec) in twice:
                self.records.append(RequestRecord("twin", record.spec))
        self._tempdir: Optional[str] = None
        self._server = None
        self._thread: Optional[threading.Thread] = None

    def prepare(self) -> None:
        from repro.runs import execute
        from repro.runs.spec import spec_from_jsonable
        from repro.service import create_server

        scratch = os.path.join(os.path.dirname(HERE), ".perfbench-out")
        os.makedirs(scratch, exist_ok=True)
        self._tempdir = tempfile.mkdtemp(prefix="service-", dir=scratch)
        cache_dir = os.path.join(self._tempdir, "cache")
        self._server = create_server("127.0.0.1", 0, cache=cache_dir)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="perfbench-server", daemon=True)
        self._thread.start()
        # The warm pool: every re-submitted spec is already in the cache
        # the server reads, executed directly (not through the server).
        service = self._server.RequestHandlerClass.service
        for spec in self.warm_specs:
            execute(spec_from_jsonable(spec), cache=service._cache)

    def run(self) -> object:
        from service_client import ServiceLoad

        # Metrics scrapes add requests, so only traced passes make them.
        load = ServiceLoad(self._server.server_address[1], self.records, scrape=self.traced)
        load.run()
        return load

    def operations(self, load) -> List[Tuple[str, str]]:
        return [(f"{r.kind}:{digest(r.spec)[:16]}", digest(r.payload)) for r in load.records]

    def check(self, load) -> List[str]:
        from repro.runs import execute
        from repro.runs.spec import spec_from_jsonable

        # Executions per run id, counted where they happen: every run the
        # server executes settles once in its queue journal.  A pre-warmed
        # spec must never execute; every other spec exactly once, however
        # many times (and however concurrently) it was submitted.
        journal = os.path.join(self._tempdir, "cache", "queue", "journal.jsonl")
        with open(journal, "r", encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        executions = Counter(event["run_id"] for event in events
                             if event["event"] == "settle" and event["status"] == "done")
        created = Counter(record.run_id for record in load.records if record.created)
        wrong = []
        for record in load.records:
            label = f"{record.kind}:{digest(record.spec)[:16]}"
            expected = execute(spec_from_jsonable(record.spec)).payload
            runs = executions[record.run_id]
            if (
                record.http_errors
                or record.status != "done"
                or record.payload != expected
                or created[record.run_id] > 1
                or (record.kind == "hit" and (runs or record.created or not record.cached))
                or (record.kind != "hit" and (runs != 1 or record.cached))
            ):
                wrong.append(label)
        if load.errors:
            wrong.append("client: " + "; ".join(load.errors))
        return wrong

    def work_units(self, load) -> int:
        return len(load.records)

    def details(self, load, wall_s: float) -> Dict[str, float]:
        latencies = [r.latency_s for r in load.records]
        return {
            "requests": len(latencies),
            "latency_p50_s": _percentile(latencies, 0.50),
            "latency_p95_s": _percentile(latencies, 0.95),
            "throughput_rps": len(latencies) / wall_s,
        }

    def layers(self, recorder, load) -> Dict[str, float]:
        submits: Dict[str, List[Tuple[float, float]]] = {}
        for span in recorder.spans_named("service.submit"):
            submits.setdefault(span[5], []).append((span[2], span[3]))
        executes = {span[5]: (span[2], span[3]) for span in recorder.spans_named("runs.execute")}

        # A run is queued when its journal submit (the first journal span
        # of its run id; the settle comes later) releases the queue, and a
        # worker may start it before the HTTP submit returns.  Every
        # request for that run, its twin too, waits server-side from then
        # until the execution ends.
        queued_at: Dict[str, float] = {}
        for span in recorder.spans_named("service.journal"):
            queued_at.setdefault(span[5], span[3])
        queue_wait = 0.0
        transport = 0.0
        for record in load.records:
            intervals = [(start, end) for start, end in submits.get(record.run_id, ())
                         if record.started <= start <= record.settled]
            if record.run_id in executes and record.run_id in queued_at:
                start, end = executes[record.run_id]
                intervals.append((queued_at[record.run_id], end))
                if record.created:
                    queue_wait += start - queued_at[record.run_id]
            transport += record.latency_s - _covered(intervals, record.started, record.settled)
        hits = [r.latency_s for r in load.records if r.kind == "hit"]
        misses = [r.latency_s for r in load.records if r.kind != "hit"]
        return {
            "service.hit_requests": len(hits),
            "service.miss_requests": len(misses),
            "service.hit_latency_p50_s": _median(hits),
            "service.miss_latency_p50_s": _median(misses),
            "service.submit_s": _self_time(recorder, "service.submit"),
            "service.queue_wait_s": queue_wait,
            "service.journal_s": _self_time(recorder, "service.journal"),
            "runs.execute_s": _self_time(recorder, "runs.execute"),
            "runs.cache.get_calls": _calls(recorder, "runs.cache.get"),
            "runs.cache.get_s": _self_time(recorder, "runs.cache.get"),
            "runs.cache.put_calls": _calls(recorder, "runs.cache.put"),
            "runs.cache.put_s": _self_time(recorder, "runs.cache.put"),
            "service.transport_s": transport,
            "service.metrics_lag": load.metrics_lag,
        }

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server.RequestHandlerClass.service.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=30)
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (VerifySearch, VerifyReach, BatchSweep, ServiceMixed)}
