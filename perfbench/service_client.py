"""Closed-loop HTTP client of the ``service-mixed`` workload.

Two client threads share one request list and take the next request
only after their previous one settled (a closed loop).  Each thread
holds at most one connection at a time and reuses it while the server
keeps it alive:

* a ``POST /v1/runs`` answered ``done`` (a cache read) settles in the
  response itself;
* a ``POST`` answered ``queued`` is followed, on the same connection, by
  ``GET /v1/runs/<id>/events``; the request settles when the stream
  delivers the terminal ``status`` event (no sleep-polling, so latency
  is not rounded up to a poll interval).  The server closes the stream's
  connection, so the payload is fetched on a fresh one.

Executions are counted by the benchmark itself (``workloads.py``), from
the client's answers and the server's queue journal, never from the
server's counters.  In traced passes a client that saw a run execute
reads ``GET /v1/health`` and then scrapes ``GET /v1/metrics``: when the
settled-run counters (``runs_total{status="done"}`` plus
``runs_submitted_total{outcome="cached"}``) are below the ``done`` runs
the health document already showed, the counters trail visible state.
Each such scrape is counted as metrics lag, never asserted.
"""

from __future__ import annotations

import http.client
import json
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

SETTLED = ("done", "error", "cancelled")


class RequestRecord:
    """What one client request saw."""

    __slots__ = ("kind", "spec", "run_id", "started", "settled", "status",
                 "http_errors", "created", "cached", "payload")

    def __init__(self, kind: str, spec: Dict[str, object]) -> None:
        self.kind = kind  # "hit", "miss" or "twin" (a miss submitted again)
        self.spec = spec
        self.run_id: Optional[str] = None
        self.started = 0.0
        self.settled = 0.0
        self.status: Optional[str] = None
        self.http_errors: List[int] = []
        self.created = False
        self.cached = False
        self.payload: Optional[Dict[str, object]] = None

    @property
    def latency_s(self) -> float:
        return self.settled - self.started


class _Connection:
    """At most one live keep-alive connection, reopened when closed."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def _open(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=120)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """Send one request; returns ``(status, response)`` with the
        response unread (the caller reads it fully or streams it)."""
        conn = self._open()
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response

    def json(self, method: str, path: str, body: Optional[dict] = None):
        status, response = self.request(method, path, body)
        raw = response.read()
        if response.will_close:
            self.close()
        return status, (json.loads(raw) if raw else None)

    def wait_settled(self, run_id: str) -> Tuple[int, Optional[str]]:
        """Follow the run's SSE stream to its terminal status event."""
        status, response = self.request("GET", f"/v1/runs/{run_id}/events")
        final: Optional[str] = None
        event: Optional[str] = None
        if status == 200:
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: ") and event == "status":
                    state = json.loads(line[len("data: "):]).get("status")
                    if state in SETTLED:
                        final = state
                        break
        else:
            response.read()
        self.close()  # the server ends every event stream with a close
        return status, final


class ServiceLoad:
    """Drive ``records`` through the server on ``port`` with two threads."""

    CLIENTS = 2

    def __init__(self, port: int, records: List[RequestRecord], scrape: bool) -> None:
        self.port = port
        self.records = records
        self.scrape = scrape
        self.metrics_lag = 0
        self.errors: List[str] = []
        self._next = 0
        self._lock = threading.Lock()

    def _take(self) -> Optional[RequestRecord]:
        with self._lock:
            if self._next >= len(self.records):
                return None
            record = self.records[self._next]
            self._next += 1
            return record

    def _lagging(self, conn: _Connection) -> bool:
        """Whether the settled-run counters trail the visible run states."""
        status, health = conn.json("GET", "/v1/health")
        if status != 200 or not isinstance(health, dict):
            raise RuntimeError(f"GET /v1/health answered {status}")
        visible_done = int(health["runs"].get("done", 0))
        status, response = conn.request("GET", "/v1/metrics")
        text = response.read().decode("utf-8")
        if response.will_close:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET /v1/metrics answered {status}")
        counted = 0.0
        for line in text.splitlines():
            if line.startswith(('repro_runs_total{status="done"}',
                                'repro_runs_submitted_total{outcome="cached"}')):
                counted += float(line.split()[-1])
        return counted < visible_done

    def _one(self, conn: _Connection, record: RequestRecord) -> None:
        record.started = perf_counter()
        status, view = conn.json("POST", "/v1/runs", record.spec)
        if status not in (200, 202) or not isinstance(view, dict):
            record.http_errors.append(status)
            record.settled = perf_counter()
            return
        record.run_id = str(view["run_id"])
        record.created = status == 202
        record.cached = bool(view.get("cached"))
        record.status = str(view["status"])
        if record.status not in SETTLED:
            stream_status, final = conn.wait_settled(record.run_id)
            if stream_status != 200:
                record.http_errors.append(stream_status)
            record.status = final
        record.settled = perf_counter()
        if record.status == "done" and "result" in view:
            record.payload = view["result"]
            return
        if record.status == "done":
            if self.scrape and self._lagging(conn):
                with self._lock:
                    self.metrics_lag += 1
            status, final_view = conn.json("GET", f"/v1/runs/{record.run_id}")
            if status != 200 or not isinstance(final_view, dict):
                record.http_errors.append(status)
                return
            record.cached = bool(final_view.get("cached"))
            record.payload = final_view.get("result")  # type: ignore[assignment]

    def _loop(self) -> None:
        conn = _Connection(self.port)
        try:
            while True:
                record = self._take()
                if record is None:
                    return
                self._one(conn, record)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            with self._lock:
                self.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            conn.close()

    def run(self) -> None:
        """Run the closed loop until every record settled."""
        threads = [
            threading.Thread(target=self._loop, name=f"perfbench-client-{i}", daemon=True)
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
        if any(thread.is_alive() for thread in threads):
            self.errors.append("client thread did not finish within 150 s")
