"""Metrics and the journal settle before a run becomes visibly settled.

A client that sees a run as ``done`` (or ``error``) and then reads the
metrics must find the run already counted.  These tests force the one
interleaving that would expose the opposite order: the journal settle is
gated so that, if the run is already visible as settled when the journal
is written, nothing after the journal write runs until the woken waiter
has read the metrics.
"""

import threading

import pytest

import repro.service.server as server_module
from repro.context import ExecContext
from repro.service import RunService

TINY_SPEC = {
    "kind": "simulate",
    "algorithm": "align",
    "n": 10,
    "k": 4,
    "steps": 200,
    "seed": 0,
    "stop": "c_star",
}


@pytest.fixture()
def gated_service():
    """A one-worker service whose journal settle waits for the reader."""
    service = RunService(workers=1)
    reader_done = threading.Event()
    settle = service._queue.settle

    def gated_settle(run_id, status):
        view = service.status(run_id)
        if view is not None and view["status"] in ("done", "error"):
            reader_done.wait(timeout=30)
        return settle(run_id, status)

    service._queue.settle = gated_settle
    try:
        yield service, reader_done
    finally:
        reader_done.set()
        service.shutdown()


def _read_metrics_when_idle(service, reader_done):
    assert service.wait_idle(timeout=30)
    metrics = service.metrics
    seen = {
        "done": metrics.value("runs_total", status="done"),
        "error": metrics.value("runs_total", status="error"),
        "executed": metrics.value("runs_executed_total"),
        "inflight": metrics.value("runs_inflight"),
    }
    reader_done.set()
    return seen


def test_done_run_is_counted_when_waiter_wakes(gated_service):
    service, reader_done = gated_service
    view, created = service.submit(TINY_SPEC)
    assert created
    seen = _read_metrics_when_idle(service, reader_done)
    assert service.status(view["run_id"])["status"] == "done"
    assert seen == {"done": 1, "error": None, "executed": 1, "inflight": 0}


def test_failed_run_is_counted_when_waiter_wakes(gated_service, monkeypatch):
    service, reader_done = gated_service

    def failing_execute(spec, ctx):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(server_module, "execute", failing_execute)
    view, created = service.submit(TINY_SPEC)
    assert created
    seen = _read_metrics_when_idle(service, reader_done)
    assert service.status(view["run_id"])["status"] == "error"
    assert seen == {"done": None, "error": 1, "executed": 0, "inflight": 0}


def test_cancelled_run_is_counted_when_waiter_wakes(monkeypatch):
    release = threading.Event()
    started = threading.Event()

    def blocking_execute(spec, ctx):
        started.set()
        release.wait(timeout=30)
        raise RuntimeError("released")

    monkeypatch.setattr(server_module, "execute", blocking_execute)
    service = RunService(workers=1)
    try:
        service.submit(dict(TINY_SPEC, seed=1))
        assert started.wait(timeout=30)
        queued, created = service.submit(dict(TINY_SPEC, seed=2))
        assert created and queued["status"] == "queued"
        run_id = queued["run_id"]
        seen = {}

        def waiter():
            with service._idle:
                service._idle.wait_for(
                    lambda: service._runs[run_id]["status"] == "cancelled", timeout=30
                )
                seen["cancelled"] = service.metrics.value("runs_total", status="cancelled")
                seen["depth"] = service.metrics.value("queue_depth")

        thread = threading.Thread(target=waiter)
        thread.start()
        assert service.cancel(run_id)["status"] == "cancelled"
        thread.join(timeout=30)
        assert seen == {"cancelled": 1, "depth": 0}
    finally:
        release.set()
        service.shutdown()


def test_cached_submit_is_counted_before_it_is_visible(tmp_path):
    cache = str(tmp_path / "cache")
    first = RunService(ExecContext(cache=cache), workers=1)
    try:
        view, _ = first.submit(TINY_SPEC)
        assert first.wait_idle(timeout=30)
    finally:
        first.shutdown()

    service = RunService(ExecContext(cache=cache), workers=1)
    seen = []
    prune = service._prune_locked

    def observing_prune():
        # Runs under the registry lock right after the entry is inserted:
        # the first moment any other thread could see it.
        seen.append(service.metrics.value("runs_submitted_total", outcome="cached"))
        return prune()

    service._prune_locked = observing_prune
    try:
        cached, created = service.submit(TINY_SPEC)
        assert not created
        assert cached["run_id"] == view["run_id"]
        assert cached["status"] == "done" and cached["cached"]
        assert seen == [1]
        assert service.metrics.value("cache_hits_total") == 1
    finally:
        service.shutdown()
