"""Tests for the branching adversary driver."""

import pytest

from repro.algorithms import AlignAlgorithm, GatheringAlgorithm, RingClearingAlgorithm
from repro.algorithms.baselines import IdleAlgorithm, SweepAlgorithm
from repro.core.configuration import Configuration
from repro.simulator.branching import IDLE, BranchingDriver, NodeActivation


class TestNodeOptions:
    def test_align_single_mover_deterministic(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        options = driver.node_options(counts)
        movers = {node: opts for node, opts in options.items() if opts != (IDLE,)}
        assert len(movers) == 1
        (node, opts), = movers.items()
        assert len(opts) == 1 and opts[0] in (-1, 1)

    def test_symmetric_views_expose_both_directions(self):
        # Two antipodal robots: each sees identical views, so the
        # adversary owns the direction of any move.
        driver = BranchingDriver(GatheringAlgorithm(), 6, multiplicity_detection=True)
        options = driver.node_options((1, 0, 0, 1, 0, 0))
        assert options == {0: (-1, 1), 3: (-1, 1)}

    def test_presentation_dependence_surfaces_idle_and_move(self):
        # Sweep moves iff the first presented view starts with a gap, so
        # a robot with one empty and one occupied neighbour can be driven
        # to idle or to move by choosing the presentation order.
        driver = BranchingDriver(SweepAlgorithm(), 5)
        options = driver.node_options((1, 1, 0, 0, 0))
        assert options[0] == (-1, 0) or options[0] == (0, 1)

    def test_idle_algorithm_only_idles(self):
        driver = BranchingDriver(IdleAlgorithm(), 6)
        options = driver.node_options((1, 0, 1, 0, 1, 0))
        assert all(opts == (IDLE,) for opts in options.values())

    @pytest.mark.parametrize(
        "algorithm,multiplicity",
        [
            (AlignAlgorithm(), False),
            (GatheringAlgorithm(), True),
            (SweepAlgorithm(), False),
            (RingClearingAlgorithm(), False),
        ],
    )
    def test_options_match_direct_snapshot_computation(self, algorithm, multiplicity):
        """The canonical-class mapping and the global-plan path must
        reproduce the exact per-snapshot option sets on every occupancy
        vector — including reflections (direction negation), gathering
        multiplicities and the presentation-dependent sweep baseline —
        in increasing node order, which fixes the successor enumeration
        order and hence BFS order, witnesses and verdict bytes."""
        import itertools

        n, k = 7, 3
        fast = BranchingDriver(algorithm, n, multiplicity_detection=multiplicity)
        oracle = BranchingDriver(algorithm, n, multiplicity_detection=multiplicity)
        for support in itertools.combinations(range(n), k):
            counts = tuple(1 if v in support else 0 for v in range(n))
            try:
                expected = oracle.table.snapshot_options(counts)
            except Exception as exc:  # noqa: BLE001 - mirror error below
                with pytest.raises(type(exc)):
                    fast.node_options(counts)
                continue
            options = fast.node_options(counts)
            assert options == expected, counts
            assert list(options) == sorted(options), counts
        if multiplicity:
            # A vector with a tower exercises the on_multiplicity flag.
            counts = (2, 0, 1, 0, 0, 0, 0)
            assert fast.node_options(counts) == oracle.table.snapshot_options(counts)

    def test_towers_take_the_per_snapshot_path(self):
        """Views hide multiplicities, so on a vector with a tower a pure
        rule's robots decide on the tower-free configuration; the plan of
        the true vector must not be read off for them."""
        driver = BranchingDriver(AlignAlgorithm(), 6)
        for counts in [(2, 1, 0, 1, 0, 0), (2, 0, 1, 1, 0, 0), (2, 0, 1, 0, 0, 1)]:
            assert driver.node_options(counts) == driver.table.snapshot_options(counts)

    def test_plan_fast_path_falls_back_on_non_adjacent_target(self):
        """A planner prescribing a 2-hop move must surface the legacy
        AlgorithmPreconditionError — also for symmetric-view nodes, and
        also once the table's self-check budget is spent."""
        from repro.core.errors import AlgorithmPreconditionError
        from repro.model.algorithm import GlobalRuleAlgorithm
        from repro.simulator.batchplan import DEFAULT_SELF_CHECKS

        class TwoHopPlanner(GlobalRuleAlgorithm):
            """Idle everywhere except on an antipodal pair."""

            name = "two-hop"

            def plan(self, configuration):
                node = configuration.support[0]
                if configuration.num_occupied == 2 and configuration.counts[(node + 3) % 6]:
                    return {node: (node + 2) % configuration.n}
                return {}

        driver = BranchingDriver(TwoHopPlanner(), 6)
        # Five distinct classes whose (all-idle) plans pass the self-check.
        classes = [
            (1, 0, 0, 0, 0, 0),
            (1, 1, 1, 0, 0, 0),
            (1, 1, 0, 1, 0, 0),
            (1, 0, 1, 0, 1, 0),
            (1, 1, 1, 1, 0, 0),
        ]
        assert len(classes) >= DEFAULT_SELF_CHECKS
        for counts in classes:
            assert set(driver.node_options(counts).values()) == {(IDLE,)}
        with pytest.raises(AlgorithmPreconditionError, match="non-adjacent"):
            # Antipodal robots: both views coincide, so the symmetric
            # branch is the one that must still validate adjacency.
            driver.node_options((1, 0, 0, 1, 0, 0))

    def test_successors_wrapper_matches_compact_records(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        for mode in ("ssync", "sequential"):
            records = driver.successors_compact(counts, mode)
            transitions = driver.successors(counts, mode)
            assert len(records) == len(transitions)
            for record, transition in zip(records, transitions):
                assert record[1] == transition.counts_after
                assert record[0] == tuple(
                    (a.node, a.idle, a.cw, a.ccw) for a in transition.profile
                )
                assert bool(record[4] & 1) == transition.moved
                assert bool(record[4] & 2) == transition.full
                assert bool(record[4] & 4) == transition.collision
                assert frozenset(
                    v for (v, _, _, _) in record[0]
                ) == transition.activated_nodes


class TestSuccessors:
    def test_full_flag_requires_every_robot(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        transitions = driver.successors(counts)
        full = [t for t in transitions if t.full]
        assert len(full) == 1
        assert sum(a.activated for a in full[0].profile) == sum(counts)

    def test_idle_self_loop_present(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        transitions = driver.successors(counts)
        assert any(t.counts_after == counts and not t.moved for t in transitions)

    def test_collision_flagged(self):
        # Two robots either side of one empty node, both driven into it.
        driver = BranchingDriver(SweepAlgorithm(), 5)
        transitions = driver.successors((1, 0, 1, 0, 0))
        collisions = [t for t in transitions if t.collision]
        assert collisions
        assert all(max(t.counts_after) > 1 for t in collisions)

    def test_sequential_activates_single_robot(self):
        driver = BranchingDriver(GatheringAlgorithm(), 6, multiplicity_detection=True)
        for transition in driver.successors((1, 0, 0, 1, 0, 0), "sequential"):
            assert sum(a.activated for a in transition.profile) == 1

    def test_successor_counts_preserve_robots(self):
        # A C*-type support with a pile, as reached mid-contraction.
        driver = BranchingDriver(GatheringAlgorithm(), 7, multiplicity_detection=True)
        counts = (1, 2, 0, 1, 0, 0, 0)
        for transition in driver.successors(counts):
            assert sum(transition.counts_after) == sum(counts)

    def test_unknown_mode_rejected(self):
        driver = BranchingDriver(IdleAlgorithm(), 5)
        with pytest.raises(ValueError):
            driver.successors((1, 0, 1, 0, 0), "async")

    def test_multiplicity_partial_activation(self):
        # Two robots piled on the contraction anchor of a C*-type
        # support: the adversary may release any subset of the pile.
        driver = BranchingDriver(GatheringAlgorithm(), 8, multiplicity_detection=True)
        counts = (2, 1, 0, 1, 0, 0, 0, 0)
        after = {t.counts_after for t in driver.successors(counts)}
        assert (1, 2, 0, 1, 0, 0, 0, 0) in after  # one of the two moved
        assert (0, 3, 0, 1, 0, 0, 0, 0) in after  # both moved


class TestReplay:
    def test_replay_matches_successors(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        for transition in driver.successors(counts):
            assert driver.apply(counts, transition.profile) == transition.counts_after

    def test_replay_rejects_unoccupied_node(self):
        driver = BranchingDriver(IdleAlgorithm(), 5)
        with pytest.raises(ValueError):
            driver.apply((1, 0, 1, 0, 0), [NodeActivation(node=1, idle=1, cw=0, ccw=0)])

    def test_replay_rejects_overfull_activation(self):
        driver = BranchingDriver(IdleAlgorithm(), 5)
        with pytest.raises(ValueError):
            driver.apply((1, 0, 1, 0, 0), [NodeActivation(node=0, idle=2, cw=0, ccw=0)])

    def test_replay_rejects_impossible_outcome(self):
        driver = BranchingDriver(IdleAlgorithm(), 5)
        with pytest.raises(ValueError):
            driver.apply((1, 0, 1, 0, 0), [NodeActivation(node=0, idle=0, cw=1, ccw=0)])

    def test_replay_trajectory(self):
        driver = BranchingDriver(GatheringAlgorithm(), 6, multiplicity_detection=True)
        counts = (1, 0, 0, 1, 0, 0)
        transition = next(t for t in driver.successors(counts) if t.moved)
        trajectory = driver.replay(counts, [transition.profile])
        assert trajectory == [counts, transition.counts_after]


class TestEngineConsistency:
    def test_options_match_engine_decisions(self):
        """The option sets cover what the engine actually computes.

        The engine presents views in a seeded-random order; over many
        seeds the executed decision of each robot must stay inside the
        driver's option set for its node.
        """
        from repro.simulator.engine import Simulator

        configuration = Configuration.from_occupied(9, (0, 1, 3, 6))
        driver = BranchingDriver(AlignAlgorithm(), 9)
        options = driver.node_options(configuration.counts)
        for seed in range(20):
            engine = Simulator(AlignAlgorithm(), configuration, presentation_seed=seed)
            event = engine.step()
            for move in event.moves:
                direction = (move.target - move.source) % 9
                outcome = 1 if direction == 1 else -1
                assert outcome in options[move.source]
