"""Unit tests for the shared global-plan table and the purity gate."""

import pytest

from repro.algorithms import (
    AlignAlgorithm,
    GatheringAlgorithm,
    IdleAlgorithm,
    RingClearingAlgorithm,
    SweepAlgorithm,
)
from repro.core.configuration import Configuration
from repro.core.cyclic import reflect, rotate
from repro.core.errors import AlgorithmPreconditionError
from repro.model import GlobalRuleAlgorithm, is_pure_global_rule
from repro.simulator.batchplan import INVALID_TARGET, GlobalPlanTable
from repro.simulator.branching import BranchingDriver


class CountingAlign(AlignAlgorithm):
    """Align with a planner-call counter (still a pure global rule)."""

    def __init__(self):
        super().__init__()
        self.plan_calls = 0

    def plan(self, configuration):
        self.plan_calls += 1
        return super().plan(configuration)


class RiggedPlanner(GlobalRuleAlgorithm):
    """Adjacent-valid but rotation-variant: breaks the equivariance contract."""

    name = "rigged"

    def plan(self, configuration):
        # "The robot at the lowest-index occupied node moves clockwise" is
        # phrased in absolute coordinates, not views, so relabelling the
        # ring does not relabel the output the same way.
        mover = min(configuration.support)
        return {mover: (mover + 1) % configuration.n}


class NonAdjacentPlanner(GlobalRuleAlgorithm):
    """Planner that targets a non-adjacent node."""

    name = "teleporter"

    def plan(self, configuration):
        mover = min(configuration.support)
        return {mover: (mover + 3) % configuration.n}


class TestPurityGate:
    def test_classification(self):
        assert is_pure_global_rule(AlignAlgorithm())
        assert is_pure_global_rule(RingClearingAlgorithm())
        assert is_pure_global_rule(CountingAlign())
        # Not GlobalRuleAlgorithm subclasses at all:
        assert not is_pure_global_rule(SweepAlgorithm())
        assert not is_pure_global_rule(IdleAlgorithm())
        # Overrides plan_for_snapshot (multiplicity-dependent):
        assert not is_pure_global_rule(GatheringAlgorithm())

    def test_table_rejects_impure_algorithms(self):
        counts = Configuration.from_occupied(8, [0, 1, 3]).counts
        with pytest.raises(TypeError, match="not a pure global-rule algorithm"):
            GlobalPlanTable(SweepAlgorithm(), 8).plan_for_counts(counts)
        with pytest.raises(TypeError, match="not a pure global-rule algorithm"):
            GlobalPlanTable(GatheringAlgorithm(), 8).plan_for_counts(counts)


class TestCanonicalSharing:
    COUNTS = Configuration.from_occupied(9, [0, 1, 3, 6]).counts

    def test_canonical_counts_is_dihedral_invariant(self):
        table = GlobalPlanTable(AlignAlgorithm(), 9)
        base = table.canonical_counts(self.COUNTS)
        for r in range(9):
            assert table.canonical_counts(rotate(self.COUNTS, r)) == base
            assert table.canonical_counts(rotate(reflect(self.COUNTS), r)) == base

    def test_one_planner_call_per_orbit(self):
        algorithm = CountingAlign()
        table = GlobalPlanTable(algorithm, 9, self_check=0)
        for r in range(9):
            table.plan_for_counts(rotate(self.COUNTS, r))
            table.plan_for_counts(rotate(reflect(self.COUNTS), r))
        assert algorithm.plan_calls == 1
        assert len(table) == 18

    @pytest.mark.parametrize("seed_counts", [COUNTS, reflect(COUNTS)])
    def test_frame_mapped_plans_match_direct_plans(self, seed_counts):
        algorithm = AlignAlgorithm()
        table = GlobalPlanTable(algorithm, 9, self_check=0)
        for r in range(9):
            counts = rotate(seed_counts, r)
            derived = table.plan_for_counts(counts)
            direct = algorithm.planned_moves(
                Configuration.from_trusted_counts(counts)
            )
            assert derived == direct

    def test_self_check_accepts_equivariant_planner(self):
        table = GlobalPlanTable(AlignAlgorithm(), 9)
        for r in range(9):
            table.plan_for_counts(rotate(self.COUNTS, r))


class TestContractViolations:
    def test_equivariance_violation_is_caught(self):
        table = GlobalPlanTable(RiggedPlanner(), 9)
        counts = Configuration.from_occupied(9, [2, 3, 5]).counts
        with pytest.raises(AlgorithmPreconditionError, match="equivariance"):
            for r in range(9):
                table.plan_for_counts(rotate(counts, r))

    def test_branching_driver_refuses_equivariance_violation(self):
        # The model checker's driver reads the same table: a violation is
        # an error there too, not a silent switch to per-snapshot options.
        driver = BranchingDriver(RiggedPlanner(), 9)
        counts = Configuration.from_occupied(9, [2, 3, 5]).counts
        with pytest.raises(AlgorithmPreconditionError, match="equivariance"):
            driver.node_options(counts)

    def test_non_adjacent_target_becomes_sentinel(self):
        table = GlobalPlanTable(NonAdjacentPlanner(), 9)
        counts = Configuration.from_occupied(9, [1, 4, 6]).counts
        plan = table.plan_for_counts(counts)
        mover = min(Configuration.from_trusted_counts(counts).support)
        assert plan[mover] is INVALID_TARGET
