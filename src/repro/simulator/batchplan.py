"""The one plan-sharing layer: per-node decisions per dihedral class.

In the paper's model every algorithm is a rule over a robot's two views,
so its decisions are equivariant under ring rotations and reflections:
the decisions in a rotated or reflected occupancy vector are the rotated
or reflected decisions.  :class:`GlobalPlanTable` exploits this for both
of its consumers — the branching adversary driver
(:meth:`repro.simulator.branching.BranchingDriver.node_options`, hence
the model checker) and the batched engine
(:class:`repro.batchsim.BatchEngine`) — by computing decisions once per
*dihedral canonical class* and mapping them into each concrete frame
through the packed codec's ``canonical_with_transform`` and the
precomputed :func:`~repro.core.symmetry.dihedral_permutation_tables`.

Per class the table computes

* for a pure global-rule algorithm (see
  :func:`repro.model.algorithm.is_pure_global_rule`), one
  ``plan(configuration)`` call: the robot at node ``p`` moves to
  ``plan[p]`` whatever view the adversary presents first, so one call
  replaces up to ``2k`` snapshot evaluations;
* for any other algorithm, the decision under *both* view presentations
  of every occupied node, through a
  :class:`~repro.model.algorithm.DecisionCache`.

The table owns the adjacency check (a planned target that is not a ring
neighbour of its mover becomes :data:`INVALID_TARGET`) and the
equivariance self-check: for the first few classes the plan's option
sets are replayed against the per-snapshot path under both
presentations — i.e. in every robot's own frame — and a disagreement
raises :class:`~repro.core.errors.AlgorithmPreconditionError`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.configuration import Configuration
from ..core.cyclic import packed_codec
from ..core.errors import (
    AlgorithmPreconditionError,
    InvalidConfigurationError,
    UnsupportedParametersError,
)
from ..core.ring import CCW, CW
from ..core.symmetry import dihedral_permutation_tables
from ..model.algorithm import Algorithm, DecisionCache, is_pure_global_rule
from ..model.snapshot import Snapshot
from .engine import ConfigurationPool

__all__ = ["IDLE", "INVALID_TARGET", "DEFAULT_SELF_CHECKS", "GlobalPlanTable"]

#: Option encoding: stay on the current node.
IDLE = 0

#: Sentinel plan target marking a mover whose planned target is not
#: adjacent to it.  A robot looking on such a node raises
#: :class:`~repro.core.errors.AlgorithmPreconditionError`, mirroring the
#: adjacency check inside ``GlobalRuleAlgorithm.compute``.
INVALID_TARGET = object()

#: Number of classes whose plan is replayed through the exact
#: per-snapshot path before the table trusts the planner's equivariance.
DEFAULT_SELF_CHECKS = 4

Counts = Tuple[int, ...]
Options = Dict[int, Tuple[int, ...]]
Plan = Dict[int, object]

_ALGORITHM_ERRORS = (
    AlgorithmPreconditionError,
    UnsupportedParametersError,
    InvalidConfigurationError,
)


class GlobalPlanTable:
    """Per-node decisions of one algorithm, computed once per dihedral class.

    Args:
        algorithm: the per-robot algorithm.
        n: ring size the decisions are computed on.
        multiplicity_detection: grant local multiplicity detection (the
            gathering capability) when building snapshots.
        pool: optional shared :class:`ConfigurationPool`; decisions are
            computed on pooled :class:`Configuration` objects so their
            memoised derived state (gap cycle, supermin, symmetry) is
            shared with every other consumer of the pool.
        self_check: how many classes to verify against the per-snapshot
            path (0 disables).
    """

    __slots__ = (
        "algorithm",
        "n",
        "multiplicity_detection",
        "_pure",
        "_pool",
        "_decisions",
        "_plans",
        "_options",
        "_canonical_plans",
        "_canonical_options",
        "_transforms",
        "_self_checks_left",
    )

    def __init__(
        self,
        algorithm: Algorithm,
        n: int,
        *,
        multiplicity_detection: bool = False,
        pool: Optional[ConfigurationPool] = None,
        self_check: int = DEFAULT_SELF_CHECKS,
    ) -> None:
        self.algorithm = algorithm
        self.n = n
        self.multiplicity_detection = multiplicity_detection
        self._pure = is_pure_global_rule(algorithm)
        self._pool = pool if pool is not None else ConfigurationPool()
        self._decisions = DecisionCache(maxsize=1 << 15)
        self._plans: Dict[Counts, Plan] = {}
        self._options: Dict[Counts, Options] = {}
        self._canonical_plans: Dict[Counts, Plan] = {}
        self._canonical_options: Dict[Counts, Options] = {}
        self._transforms: Dict[Counts, Tuple[Counts, Sequence[int], bool]] = {}
        self._self_checks_left = self_check

    def __len__(self) -> int:
        return len(self._plans)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def plan_for_counts(self, counts: Counts) -> Plan:
        """The validated plan for one occupancy vector (memoised).

        Values are adjacent target nodes, or :data:`INVALID_TARGET` for
        movers whose planned target is not adjacent.  Exceptions raised
        by the planner itself propagate (and are not memoised).

        Raises:
            TypeError: for an algorithm that is not a pure global rule —
                its decisions may depend on the view presentation or on
                multiplicity, so no single plan describes them.
        """
        plan = self._plans.get(counts)
        if plan is None:
            if not self._pure:
                raise TypeError(
                    f"{type(self.algorithm).__name__} is not a pure global-rule "
                    "algorithm; its decisions may depend on snapshot presentation "
                    "or multiplicity and cannot be evaluated from a global plan"
                )
            canonical, sigma, _ = self._transform(counts)
            plan = self._for_class(canonical, counts, self._canonical_plans, self._plan)
            if canonical is not counts:
                plan = {
                    sigma[node]: target if target is INVALID_TARGET else sigma[target]
                    for node, target in plan.items()
                }
            self._plans[counts] = plan
        return plan

    def options_for_counts(self, counts: Counts) -> Options:
        """Adversary-achievable outcomes per occupied node (memoised).

        Returns, for every occupied node in increasing node order, the
        sorted tuple of global outcomes (subset of ``(CCW, IDLE, CW)``)
        an activated robot on that node can be driven to by choosing the
        view presentation order.  Rotations relabel a class's nodes;
        reflections additionally swap clockwise and counter-clockwise.
        """
        options = self._options.get(counts)
        if options is None:
            canonical, sigma, reflected = self._transform(counts)
            options = self._for_class(
                canonical, counts, self._canonical_options, self._class_options
            )
            if reflected:
                options = dict(
                    sorted(
                        (sigma[node], tuple(sorted(-o for o in opts)))
                        for node, opts in options.items()
                    )
                )
            elif canonical is not counts:
                options = dict(sorted((sigma[node], opts) for node, opts in options.items()))
            self._options[counts] = options
        return options

    def canonical_counts(self, counts: Counts) -> Counts:
        """The dihedral canonical form of an occupancy vector (memoised).

        Two configurations share a canonical form iff one is a rotation
        or reflection of the other — the invariance class every
        equivariant quantity (plans, symmetry, the paper's convergence
        goals) is constant on.
        """
        return self._transform(counts)[0]

    def snapshot_options(self, counts: Counts) -> Options:
        """Per-node outcomes computed directly, one decision per presentation.

        The exact reference every shared lookup must reproduce: no class
        sharing, no global plan.
        """
        configuration = self._pool.configuration(counts)
        n = self.n
        options: Options = {}
        for node in configuration.support:
            cw_view, ccw_view = configuration.views_of(node)
            on_multiplicity = (
                self.multiplicity_detection and configuration.multiplicity(node) > 1
            )
            outcomes = set()
            for first_direction, views in ((CW, (cw_view, ccw_view)), (CCW, (ccw_view, cw_view))):
                snapshot = Snapshot(n=n, views=views, on_multiplicity=on_multiplicity)
                decision = self._decisions.compute(self.algorithm, snapshot)
                if decision.is_idle:
                    outcomes.add(IDLE)
                else:
                    outcomes.add(
                        first_direction if decision.toward_view == 0 else -first_direction
                    )
            options[node] = tuple(sorted(outcomes))
        return options

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _transform(self, counts: Counts) -> Tuple[Counts, Sequence[int], bool]:
        """Canonical form, the frame map into ``counts``, and whether it reflects.

        Returns ``(canonical, sigma, reflected)`` with ``canonical[j] ==
        counts[sigma[j]]``: node ``j`` of the canonical frame is node
        ``sigma[j]`` of the concrete one.  A canonical vector is returned
        as itself, so ``canonical is counts`` tests for it.
        """
        transform = self._transforms.get(counts)
        if transform is None:
            n = self.n
            codec = packed_codec(n, sum(counts))
            _, flip, r = codec.canonical_with_transform(codec.pack(counts))
            rotations, reflections = dihedral_permutation_tables(n)
            if flip == 0 and r == 0:
                transform = (counts, rotations[0], False)
            else:
                sigma = rotations[r] if flip == 0 else reflections[(n - 1 - r) % n]
                transform = (tuple(counts[i] for i in sigma), sigma, flip == 1)
            self._transforms[counts] = transform
        return transform

    @staticmethod
    def _for_class(canonical: Counts, counts: Counts, cache: dict, compute):
        """The memoised ``compute(canonical)`` of ``counts``'s class.

        An algorithm error on the canonical form is re-raised as
        ``counts`` itself raises it, so error messages do not depend on
        which member of a class was met first; a class member that does
        not raise at all betrays a non-equivariant algorithm, and the
        canonical form's error stands.
        """
        base = cache.get(canonical)
        if base is None:
            try:
                base = compute(canonical)
            except _ALGORITHM_ERRORS:
                if canonical is not counts:
                    compute(counts)
                raise
            cache[canonical] = base
        return base

    def _plan(self, counts: Counts) -> Plan:
        """One ``plan()`` call, adjacency-validated and self-checked."""
        configuration = self._pool.configuration(counts)
        n = self.n
        plan: Plan = {}
        for node, target in self.algorithm.plan(configuration).items():
            if target == (node + 1) % n or target == (node - 1) % n:
                plan[node] = target
            else:
                plan[node] = INVALID_TARGET
        if self._self_checks_left > 0:
            derived = self._plan_options(configuration, plan)
            if derived is not None:
                self._self_checks_left -= 1
                if derived != self.snapshot_options(counts):
                    raise AlgorithmPreconditionError(
                        f"algorithm {self.algorithm.name!r} violates its equivariance "
                        f"contract: its global plan for {counts} disagrees with the "
                        "decisions its robots compute from their own views"
                    )
        return plan

    def _class_options(self, counts: Counts) -> Options:
        """Options of one vector: from its plan if pure, else per snapshot.

        Views do not show multiplicities, so a pure rule's robots on a
        vector with towers decide on the tower-free configuration their
        views describe; the plan of the true vector does not apply there.
        """
        if self._pure and max(counts) <= 1:
            options = self._plan_options(self._pool.configuration(counts), self._plan(counts))
            if options is not None:
                return options
        # On a non-adjacent target the per-snapshot path raises the
        # adjacency error from the robot's own frame.
        return self.snapshot_options(counts)

    def _plan_options(self, configuration: Configuration, plan: Plan) -> Optional[Options]:
        """Option sets read off a validated plan (``None`` on an invalid target).

        Both view presentations of a robot yield the same global move,
        except on nodes whose two views coincide: there "move" means the
        adversary picks the direction.
        """
        n = self.n
        options: Options = {}
        for node in configuration.support:
            target = plan.get(node)
            if target is None:
                options[node] = (IDLE,)
            elif target is INVALID_TARGET:
                return None
            else:
                cw_view, ccw_view = configuration.views_of(node)
                if cw_view == ccw_view:
                    options[node] = (CCW, CW)
                elif target == (node + 1) % n:
                    options[node] = (CW,)
                else:
                    options[node] = (CCW,)
        return options
