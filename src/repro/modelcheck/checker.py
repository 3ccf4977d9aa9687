"""Exhaustive adversarial model checking of the implemented algorithms.

:class:`ModelChecker` explores the complete reachable system-state graph
of one algorithm on one ``(k, n)`` cell under an exhaustive adversary
(every activation subset, every view-presentation tie-break — see
:mod:`repro.simulator.branching`) and returns a machine-checked verdict:

``SOLVED``
    every fair execution satisfies the task (reaches the goal for
    terminal tasks, clears every edge / covers every node infinitely
    often for the perpetual ones);

``COLLISION``
    the adversary can violate exclusivity; the result carries a
    minimal-length counterexample trace (BFS order);

``LIVELOCK``
    the adversary can loop fairly forever while violating the task; the
    result carries the reachable fair loop as a witness;

``UNKNOWN`` / ``ERROR``
    the state cap was exceeded, or the algorithm raised a precondition
    error on a reachable state (itself a useful finding).

**Fairness.**  A loop is accepted as *fair* when it contains a step
activating every robot (SSYNC adversary), which makes every LIVELOCK
verdict sound: repeating the loop forever activates every robot
infinitely often.  Under the ``sequential`` adversary no step activates
everybody, so the checker falls back to a coverage test (every occupied
node of every loop state is activated by some in-loop step); because
robots are anonymous, oblivious and co-located robots are
interchangeable, such a loop can be scheduled fairly, but the witness is
weaker — prefer the default SSYNC adversary for verdicts.  Conversely
``SOLVED`` certifies the absence of such loops: like the game solver's
``CANDIDATE_FOUND`` (see :mod:`repro.analysis.game`), it is exact for
the adversary class explored and evidence (not proof) for the full
asynchronous CORDA adversary.

**Engines.**  Exploration runs on the packed-state frontier engine
(:mod:`repro.modelcheck.frontier`): states are single integers, dihedral
canonicalisation is a table-driven min-scan, the searching dynamics are
interval bitmasks.  When NumPy is importable the checker uses the array-batched vector backend
(:mod:`repro.modelcheck.vector`), which processes whole BFS waves as
int64 arrays, and the packed engine otherwise (see
:mod:`repro.modelcheck.engines`); the choice is not a user option.  The
original tuple-state explorer is retained behind ``engine="legacy"``
purely as a differential-testing oracle; all engines produce byte-identical verdict
documents and witness traces (asserted over the whole E8 quick suite,
both adversaries, by the three-way equivalence test suite).
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.enumeration import iter_configurations
from ..analysis.graphs import tarjan_scc
from ..core.cyclic import canonical_dihedral
from ..core.errors import (
    AlgorithmPreconditionError,
    InvalidConfigurationError,
    UnsupportedParametersError,
)
from ..core.ring import Edge, Ring
from ..simulator.branching import BranchingDriver, BranchTransition
from ..tasks.searching import advance_clear_edges
from .engines import resolve_engine
from .frontier import FrontierExplorer
from .results import (
    DEFAULT_MAX_STATES,
    ModelCheckResult,
    Verdict,
    Witness,
    WitnessStep,
)
from .tasks import TASKS, TaskSpec, make_task_spec

__all__ = [
    "DEFAULT_MAX_STATES",
    "Verdict",
    "Witness",
    "WitnessStep",
    "ModelCheckResult",
    "ModelChecker",
    "check_cell",
]

Counts = Tuple[int, ...]
#: A legacy-engine system state: occupancy vector, task phase (clear-edge
#: set for the searching task, ``None`` otherwise) and the pending-move
#: set.  The pending set is always empty under the atomic (SSYNC /
#: sequential) adversaries implemented here; the slot is part of the
#: state shape so an asynchronous extension changes no signatures.  The
#: packed engine encodes the same triple into one int (see
#: :mod:`repro.modelcheck.frontier`).
State = Tuple[Counts, Optional[FrozenSet[Edge]], Tuple[int, ...]]


class ModelChecker:
    """Explore one cell's reachable state graph and pronounce a verdict.

    Args:
        task: task name (see :data:`repro.modelcheck.tasks.TASKS`).
        n: ring size.
        k: number of robots.
        adversary: ``"ssync"`` (default) or ``"sequential"``.
        max_states: exploration cap; exceeding it yields ``UNKNOWN``.
        spec: pre-built task adapter (overrides ``task`` lookup).
        engine: ``"auto"`` (default), ``"packed"``, ``"vector"`` or
            ``"legacy"``, resolved by
            :func:`repro.modelcheck.engines.resolve_engine` — ``auto``
            prefers the NumPy-vectorized backend when NumPy is
            importable, ``vector`` degrades to ``packed`` when it is
            not, and ``legacy`` is the original tuple-state explorer
            kept as a differential oracle.  Every engine produces
            byte-identical results; only the differential suite and
            reference generators pass anything but ``auto``.
    """

    def __init__(
        self,
        task: str,
        n: int,
        k: int,
        *,
        adversary: str = "ssync",
        max_states: int = DEFAULT_MAX_STATES,
        spec: Optional[TaskSpec] = None,
        engine: str = "auto",
    ) -> None:
        if adversary not in ("ssync", "sequential"):
            raise ValueError(f"unknown adversary {adversary!r}; expected 'ssync' or 'sequential'")
        custom_spec = spec is not None
        self.spec = spec if spec is not None else make_task_spec(task, n, k)
        self.n = n
        self.k = k
        self.adversary = adversary
        self.max_states = max_states
        self.engine = resolve_engine(engine)
        # The persistent cell cache is keyed by task name; a custom or
        # unregistered adapter therefore keeps instance-local caches.
        self._registered_spec = not custom_spec and self.spec.task in TASKS
        self.ring = Ring(n)
        self.driver = BranchingDriver(
            self.spec.algorithm, n, multiplicity_detection=self.spec.multiplicity_detection
        )

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def run(self) -> ModelCheckResult:
        """Explore the reachable graph and return the verdict."""
        result = ModelCheckResult(
            task=self.spec.task,
            k=self.k,
            n=self.n,
            algorithm=self.spec.algorithm_name,
            adversary=self.adversary,
            verdict=Verdict.UNKNOWN,
            paper_algorithm=self.spec.paper_algorithm,
        )
        if self.spec.note:
            result.notes.append(self.spec.note)
        started = perf_counter()
        try:
            if self.engine == "legacy":
                self._run_legacy(result)
            else:
                explorer_cls = FrontierExplorer
                if self.engine == "vector":
                    from .vector import VectorFrontierExplorer

                    # Cells whose packed states exceed the int64 batch
                    # width fall back to the (identical) packed engine.
                    if VectorFrontierExplorer.supports_cell(self.spec, self.n, self.k):
                        explorer_cls = VectorFrontierExplorer
                explorer_cls(
                    self.spec,
                    self.n,
                    self.k,
                    self.adversary,
                    self.max_states,
                    self.driver,
                    persistent=self._registered_spec,
                ).run(result)
        finally:
            result.elapsed_s = perf_counter() - started
        return result

    # ------------------------------------------------------------------ #
    # legacy tuple-state engine (differential-testing oracle)
    # ------------------------------------------------------------------ #
    def _state_counts(self, counts: Counts) -> Counts:
        return canonical_dihedral(counts) if self.spec.canonical else counts

    def _initial_states(self) -> Tuple[List[Tuple[State, Counts]], str]:
        """Starting states with their concrete counts, plus a provenance note."""
        rigid = list(iter_configurations(self.n, self.k, rigid_only=True))
        if rigid:
            configurations = rigid
            note = f"{len(rigid)} rigid initial configuration class(es)"
        else:
            configurations = list(iter_configurations(self.n, self.k))
            note = (
                "no rigid configuration exists for this cell; starting from all "
                f"{len(configurations)} configuration class(es)"
            )
        initials: List[Tuple[State, Counts]] = []
        for configuration in configurations:
            counts = configuration.counts
            state = self._make_state(counts, parent_clear=None, traversed=())
            initials.append((state, counts))
        return initials, note

    def _make_state(
        self,
        counts: Counts,
        parent_clear: Optional[FrozenSet[Edge]],
        traversed: Tuple[Edge, ...],
    ) -> State:
        if self.spec.kind == "search":
            configuration = self.driver.configuration(counts)
            clear = advance_clear_edges(
                self.ring,
                set(parent_clear) if parent_clear is not None else set(),
                set(traversed),
                configuration,
            )
            return (counts, clear, ())
        return (self._state_counts(counts), None, ())

    def _is_goal(self, counts: Counts) -> bool:
        return self.spec.goal is not None and self.spec.goal(self.driver.configuration(counts))

    def _run_legacy(self, result: ModelCheckResult) -> None:
        initials, start_note = self._initial_states()
        result.notes.append(start_note)
        result.num_initial = len(initials)
        if not initials:
            result.verdict = Verdict.ERROR
            result.notes.append("no initial configurations for this cell")
            return

        parents: Dict[State, Optional[Tuple[State, BranchTransition]]] = {}
        out_edges: Dict[State, List[Tuple[State, BranchTransition]]] = {}
        goal_states: Set[State] = set()
        queue: deque = deque()
        for state, _ in initials:
            if state not in parents:
                parents[state] = None
                queue.append(state)

        num_transitions = 0
        while queue:
            state = queue.popleft()
            counts = state[0]
            if self.spec.kind == "reach" and self._is_goal(counts):
                # Absorbing goal: verify stability instead of expanding.
                if self._goal_is_stable(counts):
                    goal_states.add(state)
                    out_edges[state] = []
                    continue
                result.notes.append(
                    f"goal configuration {list(counts)} is not stable; treated as non-goal"
                )
            try:
                transitions = self.driver.successors(counts, self.adversary)
            except (
                AlgorithmPreconditionError,
                UnsupportedParametersError,
                InvalidConfigurationError,
            ) as exc:
                result.verdict = Verdict.ERROR
                result.witness = self._path_witness(
                    parents, state, extra=None,
                    note=f"algorithm rejected a reachable state: {type(exc).__name__}: {exc}",
                )
                result.num_states = len(parents)
                result.num_transitions = num_transitions
                return

            edges_here: List[Tuple[State, BranchTransition]] = []
            for transition in transitions:
                num_transitions += 1
                if self.spec.exclusive and transition.collision:
                    result.verdict = Verdict.COLLISION
                    result.witness = self._path_witness(
                        parents, state, extra=transition,
                        note="exclusivity violated: two robots meet on one node",
                    )
                    result.num_states = len(parents)
                    result.num_transitions = num_transitions
                    return
                successor = self._make_state(
                    transition.counts_after, parent_clear=state[1], traversed=transition.traversed
                )
                edges_here.append((successor, transition))
                if successor not in parents:
                    parents[successor] = (state, transition)
                    if len(parents) > self.max_states:
                        result.verdict = Verdict.UNKNOWN
                        result.notes.append(
                            f"state cap exceeded ({self.max_states}); verdict unknown"
                        )
                        result.num_states = len(parents)
                        result.num_transitions = num_transitions
                        return
                    queue.append(successor)
            out_edges[state] = edges_here

        result.num_states = len(parents)
        result.num_transitions = num_transitions

        livelock = self._find_livelock(out_edges, goal_states)
        if livelock is not None:
            anchor, cycle_edges, note = livelock
            result.verdict = Verdict.LIVELOCK
            result.witness = self._livelock_witness(parents, anchor, cycle_edges, note)
            return
        result.verdict = Verdict.SOLVED

    def _goal_is_stable(self, counts: Counts) -> bool:
        """Whether every adversary step keeps a goal configuration in place."""
        return all(not t.moved for t in self.driver.successors(counts, self.adversary))

    # ------------------------------------------------------------------ #
    # livelock detection (legacy engine)
    # ------------------------------------------------------------------ #
    def _find_livelock(
        self,
        out_edges: Dict[State, List[Tuple[State, BranchTransition]]],
        goal_states: Set[State],
    ) -> Optional[Tuple[State, List[Tuple[State, BranchTransition]], str]]:
        """Search for a reachable fair loop violating the task.

        Returns ``(anchor_state, cycle_edges, note)`` where the cycle
        edges start and end at the anchor, or ``None``.
        """
        kind = self.spec.kind
        if kind == "reach":
            region = {s for s in out_edges if s not in goal_states}
            return self._fair_trap(
                out_edges, region, note="fair loop never reaches the goal configuration"
            )
        if kind == "search":
            for ring_edge in self.ring.edges():
                region = {s for s in out_edges if s[1] is not None and ring_edge not in s[1]}
                trap = self._fair_trap(
                    out_edges,
                    region,
                    note=f"fair loop on which edge {ring_edge} is never clear",
                )
                if trap is not None:
                    return trap
            return None
        # explore: a fair loop in which some node is never occupied.
        components = tarjan_scc(
            {s: [t for (t, _) in targets] for s, targets in out_edges.items()}
        )
        for component in components:
            members = set(component)
            internal = [
                (s, t, tr)
                for s in component
                for (t, tr) in out_edges.get(s, [])
                if t in members
            ]
            if not internal or not self._is_fair(component, internal):
                continue
            covered: Set[int] = set()
            for s in component:
                covered.update(node for node, c in enumerate(s[0]) if c > 0)
            missing = sorted(set(range(self.n)) - covered)
            if missing:
                anchor, cycle = self._anchored_cycle(component, internal)
                return anchor, cycle, (
                    f"fair loop on which node(s) {missing} are never visited"
                )
        return None

    def _fair_trap(
        self,
        out_edges: Dict[State, List[Tuple[State, BranchTransition]]],
        region: Set[State],
        note: str,
    ) -> Optional[Tuple[State, List[Tuple[State, BranchTransition]], str]]:
        if not region:
            return None
        # Iterate in BFS discovery order (= out_edges insertion order), not
        # set order: the SCC enumeration — and with it the witness chosen
        # among equally valid fair loops — must not depend on how states
        # happen to hash, so every engine picks the same loop.
        restricted = {
            s: [t for (t, _) in out_edges[s] if t in region]
            for s in out_edges
            if s in region
        }
        for component in tarjan_scc(restricted):
            members = set(component)
            internal = [
                (s, t, tr)
                for s in component
                for (t, tr) in out_edges.get(s, [])
                if t in members
            ]
            if internal and self._is_fair(component, internal):
                anchor, cycle = self._anchored_cycle(component, internal)
                return anchor, cycle, note
        return None

    def _is_fair(
        self,
        component: List[State],
        internal: List[Tuple[State, State, BranchTransition]],
    ) -> bool:
        if self.adversary == "ssync":
            return any(tr.full for (_, _, tr) in internal)
        # Sequential coverage test: from every loop state, every occupied
        # node can be activated without leaving the loop (see module
        # docstring for the fairness caveat).
        by_state: Dict[State, Set[int]] = {}
        for s, _, tr in internal:
            by_state.setdefault(s, set()).update(tr.activated_nodes)
        for s in component:
            occupied = {node for node, c in enumerate(s[0]) if c > 0}
            if not occupied <= by_state.get(s, set()):
                return False
        return True

    def _anchored_cycle(
        self,
        component: List[State],
        internal: List[Tuple[State, State, BranchTransition]],
    ) -> Tuple[State, List[Tuple[State, BranchTransition]]]:
        """A concrete cycle through the component, starting at its anchor.

        The cycle opens with a fairness-witness edge (a full step under
        SSYNC when one exists) and closes back to the anchor along
        internal edges.
        """
        if self.adversary == "ssync":
            first = next((e for e in internal if e[2].full), internal[0])
        else:
            first = internal[0]
        anchor, after_first, first_tr = first
        adjacency: Dict[State, List[Tuple[State, BranchTransition]]] = {}
        for s, t, tr in internal:
            adjacency.setdefault(s, []).append((t, tr))
        # BFS back to the anchor inside the component.
        back: Dict[State, Optional[Tuple[State, BranchTransition]]] = {after_first: None}
        queue: deque = deque([after_first])
        while queue:
            s = queue.popleft()
            if s == anchor:
                break
            for t, tr in adjacency.get(s, []):
                if t not in back:
                    back[t] = (s, tr)
                    queue.append(t)
        path: List[Tuple[State, BranchTransition]] = []
        cursor: State = anchor
        while cursor != after_first:
            previous = back[cursor]
            assert previous is not None  # anchor is reachable: the component is an SCC
            prev_state, tr = previous
            path.append((cursor, tr))
            cursor = prev_state
        path.reverse()
        # Rebuild as (target_state, transition) pairs from the anchor.
        cycle: List[Tuple[State, BranchTransition]] = [(after_first, first_tr)]
        cycle.extend(path)
        return anchor, cycle

    # ------------------------------------------------------------------ #
    # witnesses (legacy engine)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _path_to(
        parents: Dict[State, Optional[Tuple[State, BranchTransition]]], state: State
    ) -> Tuple[State, List[BranchTransition]]:
        """Root initial state and the transitions leading to ``state``."""
        chain: List[BranchTransition] = []
        cursor = state
        while True:
            parent = parents[cursor]
            if parent is None:
                return cursor, list(reversed(chain))
            cursor, transition = parent
            chain.append(transition)

    def _path_witness(
        self,
        parents: Dict[State, Optional[Tuple[State, BranchTransition]]],
        state: State,
        extra: Optional[BranchTransition],
        note: str,
    ) -> Witness:
        root, transitions = self._path_to(parents, state)
        if extra is not None:
            transitions.append(extra)
        steps = tuple(
            WitnessStep(profile=t.profile, counts_after=t.counts_after) for t in transitions
        )
        return Witness(initial_counts=root[0], steps=steps, cycle_start=None, note=note)

    def _livelock_witness(
        self,
        parents: Dict[State, Optional[Tuple[State, BranchTransition]]],
        anchor: State,
        cycle_edges: List[Tuple[State, BranchTransition]],
        note: str,
    ) -> Witness:
        root, prefix = self._path_to(parents, anchor)
        steps = [WitnessStep(profile=t.profile, counts_after=t.counts_after) for t in prefix]
        cycle_start = len(steps)
        for _, transition in cycle_edges:
            steps.append(
                WitnessStep(profile=transition.profile, counts_after=transition.counts_after)
            )
        return Witness(
            initial_counts=root[0],
            steps=tuple(steps),
            cycle_start=cycle_start,
            note=note,
        )


def check_cell(
    task: str,
    n: int,
    k: int,
    *,
    adversary: str = "ssync",
    max_states: int = DEFAULT_MAX_STATES,
    engine: str = "auto",
) -> ModelCheckResult:
    """Convenience wrapper: build a checker and run one cell."""
    return ModelChecker(
        task,
        n,
        k,
        adversary=adversary,
        max_states=max_states,
        engine=engine,
    ).run()
