"""Span recorder for the traced benchmark pass.

The recorder is installed from outside the program: :func:`install`
replaces public call sites with timing wrappers at the module or class
attribute the caller looks up (``repro.modelcheck.frontier.tarjan_scc``,
``BranchingDriver.successors_compact``, ...).  Nothing under ``src/``
knows about it, and untraced passes never import this module.

Every wrapped call becomes one span ``(id, name, start, end, parent,
run id, self time)``.  The parent is the innermost span open on the same
thread, so spans nest exactly and a span's self time is its duration
minus the durations of its direct children, accumulated as children
close.  Per name the recorder keeps the call count, the summed self
time and the summed duration.  Spans stay in memory until the pass ends; :meth:`write` dumps
them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span tuple: (id, name, start, end, parent id or -1, run id, self time).
Span = Tuple[int, str, float, float, int, str, float]


class SpanRecorder:
    """Thread-safe in-memory span log with per-name aggregates."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Open a span on the calling thread; returns its frame."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, name, parent, self.run_id, 0.0, perf_counter()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        """Close the innermost span (which must be ``frame``)."""
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, name, parent, run_id, child_s, start = frame
        duration = end - start
        self_time = duration - child_s
        if stack:
            stack[-1][4] += duration
        with self._lock:
            self.spans.append((span_id, name, start, end, parent, run_id, self_time))
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + self_time
            self.total_s[name] = self.total_s.get(name, 0.0) + duration

    def open_names(self) -> Iterable[str]:
        """Names of the spans open on the calling thread, innermost last."""
        return (frame[1] for frame in self._stack())

    def write(self, path: str) -> None:
        """Dump every span as one JSON line."""
        keys = ("id", "name", "start", "end", "parent", "run_id", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _timed(
        self,
        function: Callable,
        name: str,
        outermost: bool,
        run_id_of: Optional[Callable[[tuple, dict, object], str]],
    ) -> Callable:
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if outermost and name in recorder.open_names():
                return function(*args, **kwargs)
            frame = recorder.open(name)
            try:
                result = function(*args, **kwargs)
                if run_id_of is not None:
                    frame[3] = run_id_of(args, kwargs, result)
            finally:
                recorder.close(frame)
            return result

        return wrapper

    def _timed_iterator(self, function: Callable, name: str) -> Callable:
        """Wrap a generator function: one span per resumption."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while True:
                frame = recorder.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.close(frame)
                yield item

        return wrapper

    def wrap(
        self,
        target: str,
        name: str,
        *,
        outermost: bool = False,
        iterator: bool = False,
        run_id_of: Optional[Callable[[tuple, dict, object], str]] = None,
        required: bool = True,
    ) -> None:
        """Replace ``module[:Class].attr`` with a timed wrapper.

        ``outermost`` records only calls not nested in a span of the same
        name (an algorithm's ``compute`` calling its own ``plan``).
        ``iterator`` wraps a generator function.  ``run_id_of(args,
        kwargs, result)`` tags the span with a request's run id.  A
        missing attribute raises unless ``required`` is false.
        """
        module_name, _, attr_path = target.partition(":")
        owner: object = importlib.import_module(module_name)
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        # An inherited method is wrapped on this class only (shadowing the
        # base), so sibling classes stay untraced unless wrapped too.
        original = getattr(owner, attr, None)
        if original is None:
            if required:
                raise AttributeError(f"cannot trace {target}: no such attribute")
            return
        if iterator:
            wrapper = self._timed_iterator(original, name)
        else:
            wrapper = self._timed(original, name, outermost, run_id_of)
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------ #
    # derived figures
    # ------------------------------------------------------------------ #
    def spans_named(self, name: str) -> List[Span]:
        """All closed spans called ``name``, in start order."""
        with self._lock:
            return sorted((s for s in self.spans if s[1] == name), key=lambda s: s[2])


def _result_run_id(args: tuple, kwargs: dict, result) -> str:
    return result.run_id


def _submitted_run_id(args: tuple, kwargs: dict, result) -> str:
    return str(result[0]["run_id"])


def _key_argument(args: tuple, kwargs: dict, result) -> str:
    return str(args[1])


#: ``(call site, span name, wrap options)``.  A call site is written
#: ``module:attribute`` or ``module:Class.method`` and names the attribute
#: the caller looks up at call time.
SITES: Tuple[Tuple[str, str, dict], ...] = (
    # model checking
    ("repro.modelcheck.checker:ModelChecker.run", "modelcheck.run", {}),
    # the livelock phase: the fair-trap search, then the witness path
    ("repro.modelcheck.checker:ModelChecker._find_livelock", "modelcheck.livelock",
     {"outermost": True}),
    ("repro.modelcheck.checker:ModelChecker._livelock_witness", "modelcheck.livelock",
     {"outermost": True}),
    ("repro.modelcheck.frontier:FrontierExplorer._find_livelock", "modelcheck.livelock",
     {"outermost": True}),
    ("repro.modelcheck.frontier:FrontierExplorer._livelock_witness", "modelcheck.livelock",
     {"outermost": True}),
    ("repro.modelcheck.vector:VectorFrontierExplorer._find_livelock", "modelcheck.livelock",
     {"outermost": True, "required": False}),
    ("repro.modelcheck.frontier:tarjan_scc", "modelcheck.scc", {}),
    ("repro.modelcheck.checker:tarjan_scc", "modelcheck.scc", {}),
    ("repro.modelcheck.vector:tarjan_scc", "modelcheck.scc", {"required": False}),
    ("repro.core.cyclic:PackedSequenceCodec.canonical", "modelcheck.canonical",
     {"outermost": True}),
    ("repro.core.cyclic:PackedSequenceCodec.canonical_with_transform",
     "modelcheck.canonical", {"outermost": True}),
    ("repro.modelcheck.vector:canonical_many", "modelcheck.canonical", {"outermost": True}),
    ("repro.simulator.branching:BranchingDriver.successors_compact", "branching.expand", {}),
    ("repro.modelcheck.frontier:iter_configurations", "analysis.enumerate", {"iterator": True}),
    ("repro.modelcheck.checker:iter_configurations", "analysis.enumerate", {"iterator": True}),
    ("repro.modelcheck.grid:run_campaign", "campaign.dispatch", {}),
    # execution front door: the benchmark's own calls and the service's
    ("repro.runs:execute", "runs.execute", {"run_id_of": _result_run_id}),
    ("repro.service.server:execute", "runs.execute", {"run_id_of": _result_run_id}),
    # batched simulation and serialisation
    ("repro.batchsim.engine:BatchEngine.run", "batchsim.run", {"outermost": True}),
    ("repro.batchsim.engine:BatchEngine.run_until_configuration", "batchsim.run",
     {"outermost": True}),
    ("repro.simulator.batchplan:GlobalPlanTable.plan_for_counts", "batchplan.plan", {}),
    ("repro.batchsim.engine:BatchEngine.lane_trace", "batchsim.lane_trace", {}),
    ("repro.simulator.trace:Trace.to_jsonable", "trace.serialize", {"outermost": True}),
    ("repro.simulator.trace:Trace.canonical_bytes", "trace.serialize", {"outermost": True}),
    # service tier
    ("repro.service.server:RunService.submit", "service.submit",
     {"run_id_of": _submitted_run_id}),
    ("repro.service.queue:JobQueue.submit", "service.journal", {"run_id_of": _key_argument}),
    ("repro.service.queue:JobQueue.settle", "service.journal", {"run_id_of": _key_argument}),
    ("repro.runs.cache:ResultCache.get", "runs.cache.get", {"run_id_of": _key_argument}),
    ("repro.runs.cache:ResultCache.put", "runs.cache.put", {"run_id_of": _key_argument}),
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every call site of :data:`SITES` plus the registered algorithms.

    An algorithm's layer is the outermost call into a registered
    algorithm's ``compute`` or ``plan``.  ``compute`` is left unwrapped
    on pure global-rule algorithms: the program recognises those by the
    identity of their inherited ``compute`` (to plan once per
    configuration), and their ``compute`` reaches the algorithm only
    through ``plan`` anyway.
    """
    for target, name, options in SITES:
        recorder.wrap(target, name, **options)
    from repro.model.algorithm import is_pure_global_rule
    from repro.runs.spec import ALGORITHMS

    for factory in set(ALGORITHMS.values()):
        target = f"{factory.__module__}:{factory.__name__}"
        if not is_pure_global_rule(factory()):
            recorder.wrap(f"{target}.compute", "algorithms.plan", outermost=True)
        recorder.wrap(f"{target}.plan", "algorithms.plan", outermost=True, required=False)
