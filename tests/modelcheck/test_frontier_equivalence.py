"""Equivalence suite: packed == legacy == vector engines.

The frontier engines are pure performance variants; these tests pin
that claim down byte-for-byte:

* for every cell of the E8 quick suite (every applicable task), the
  packed engine and the legacy tuple-state explorer produce
  byte-identical verdict JSON and witness traces;
* for every cell of the E8 quick suite under *both* adversaries, the
  NumPy-vectorized engine produces byte-identical verdict JSON (the
  three-way gate: vector == packed, packed == legacy), including the
  state-cap and algorithm-error paths;
* a cell checked in a campaign worker process (``jobs=2``) produces the
  same verdict JSON as an in-process :func:`check_cell`, and a parallel
  verification campaign writes byte-identical summaries.
"""

import json

import pytest

from repro.algorithms.nminusthree import nminusthree_supported
from repro.algorithms.ring_clearing import ring_clearing_supported
from repro.context import ExecContext
from repro.experiments.e8_verification import GAME_CELLS, MAX_STATES
from repro.modelcheck import ModelChecker, check_cell, run_verify_campaign
from repro.modelcheck.tasks import make_task_spec
from repro.modelcheck.results import ModelCheckResult, Verdict
from repro.workloads.suites import get_suite


def _applicable_tasks(k, n):
    """The tasks E8 checks on one cell (same rules as applicable_checks,
    minus the reference computations the equivalence claim doesn't need)."""
    tasks = []
    if 2 <= k < n - 2:
        tasks.append("gathering")
    if 3 <= k < n - 2:
        tasks.append("align")
    if ring_clearing_supported(n, k) or nminusthree_supported(n, k):
        tasks.extend(["searching", "exploration"])
    elif (k, n) in GAME_CELLS:
        tasks.append("searching")
    return tasks


def _canonical_json(result):
    return json.dumps(result.to_jsonable(include_timing=False), sort_keys=True)


E8_QUICK_CHECKS = [
    (task, k, n)
    for (k, n) in get_suite("e8", "quick").pairs
    for task in _applicable_tasks(k, n)
]


class TestPackedEqualsLegacy:
    @pytest.mark.parametrize("task,k,n", E8_QUICK_CHECKS)
    def test_verdict_json_byte_identical_on_e8_quick_suite(self, task, k, n):
        packed = check_cell(task, n, k, max_states=MAX_STATES, engine="packed")
        legacy = check_cell(task, n, k, max_states=MAX_STATES, engine="legacy")
        assert _canonical_json(packed) == _canonical_json(legacy)

    @pytest.mark.parametrize("task,k,n", E8_QUICK_CHECKS)
    def test_witness_traces_byte_identical_and_replayable(self, task, k, n):
        packed_checker = ModelChecker(
            task, n, k, max_states=MAX_STATES, engine="packed"
        )
        packed = packed_checker.run()
        legacy = check_cell(task, n, k, max_states=MAX_STATES, engine="legacy")
        if packed.witness is None:
            assert legacy.witness is None
            return
        assert json.dumps(packed.witness.as_jsonable(), sort_keys=True) == json.dumps(
            legacy.witness.as_jsonable(), sort_keys=True
        )
        # The packed engine's witnesses replay through the driver exactly
        # like legacy ones: each profile is achievable and reproduces the
        # recorded occupancy vectors.
        trajectory = packed_checker.driver.replay(
            packed.witness.initial_counts,
            [step.profile for step in packed.witness.steps],
        )
        assert trajectory[1:] == [step.counts_after for step in packed.witness.steps]

    def test_sequential_adversary_byte_identical(self):
        for task, k, n in [("gathering", 2, 6), ("searching", 3, 6), ("gathering", 3, 7)]:
            packed = check_cell(task, n, k, adversary="sequential", engine="packed")
            legacy = check_cell(task, n, k, adversary="sequential", engine="legacy")
            assert _canonical_json(packed) == _canonical_json(legacy)

    def test_state_cap_byte_identical(self):
        packed = check_cell("searching", 11, 5, max_states=5, engine="packed")
        legacy = check_cell("searching", 11, 5, max_states=5, engine="legacy")
        assert packed.verdict is Verdict.UNKNOWN
        assert _canonical_json(packed) == _canonical_json(legacy)

    def test_error_verdict_byte_identical(self):
        packed = check_cell("gathering", 6, 4, engine="packed")
        legacy = check_cell("gathering", 6, 4, engine="legacy")
        assert packed.verdict is Verdict.ERROR
        assert _canonical_json(packed) == _canonical_json(legacy)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ModelChecker("gathering", 6, 3, engine="quantum")


class TestVectorEqualsPacked:
    """The vectorized engine half of the three-way gate.

    Combined with ``TestPackedEqualsLegacy`` (packed == legacy) this
    certifies vector == packed == legacy over the whole E8 quick suite.
    Without NumPy the vector engine degrades to packed and these tests
    compare packed against itself — still true, just vacuous (the
    masked-NumPy CI job covers that path deliberately).
    """

    @pytest.mark.parametrize("adversary", ["ssync", "sequential"])
    @pytest.mark.parametrize("task,k,n", E8_QUICK_CHECKS)
    def test_verdict_json_byte_identical_both_adversaries(self, task, k, n, adversary):
        vector = check_cell(
            task, n, k, max_states=MAX_STATES, adversary=adversary, engine="vector"
        )
        packed = check_cell(
            task, n, k, max_states=MAX_STATES, adversary=adversary, engine="packed"
        )
        assert _canonical_json(vector) == _canonical_json(packed)

    def test_state_cap_byte_identical(self):
        vector = check_cell("searching", 11, 5, max_states=5, engine="vector")
        packed = check_cell("searching", 11, 5, max_states=5, engine="packed")
        assert vector.verdict is Verdict.UNKNOWN
        assert _canonical_json(vector) == _canonical_json(packed)

    def test_error_verdict_byte_identical(self):
        vector = check_cell("gathering", 6, 4, engine="vector")
        packed = check_cell("gathering", 6, 4, engine="packed")
        assert vector.verdict is Verdict.ERROR
        assert _canonical_json(vector) == _canonical_json(packed)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize(
        "task,k,n",
        [("searching", 6, 13), ("gathering", 2, 6), ("searching", 3, 6)],
        ids=["searching-6-13", "gathering-2-6", "searching-3-6"],
    )
    def test_campaign_cell_byte_identical_to_check_cell(self, task, k, n):
        report = run_verify_campaign(task, ((k, n),), ExecContext(jobs=2))
        (record,) = report.records
        in_process = check_cell(task, n, k)
        assert json.dumps(record["payload"]["result"], sort_keys=True) == _canonical_json(
            in_process
        )

    def test_searching_campaign_summaries_byte_identical(self):
        cells = ((3, 6), (3, 7), (6, 13))
        serial = run_verify_campaign("searching", cells)
        parallel = run_verify_campaign("searching", cells, ExecContext(jobs=2))
        assert serial.summary_bytes() == parallel.summary_bytes()


class TestCustomSpec:
    def test_custom_spec_explores_and_is_solved(self):
        spec = make_task_spec("gathering", 6, 3)
        checker = ModelChecker("gathering", 6, 3, spec=spec)
        assert checker.run().verdict is Verdict.SOLVED


class TestZeroDurationGuards:
    def test_states_per_second_is_zero_not_inf_on_zero_elapsed(self):
        result = ModelCheckResult(
            task="searching",
            k=3,
            n=6,
            algorithm="sweep",
            adversary="ssync",
            verdict=Verdict.SOLVED,
            num_states=123,
            elapsed_s=0.0,
        )
        assert result.states_per_second == 0.0
        document = json.dumps(result.to_jsonable())
        assert "Infinity" not in document and "NaN" not in document

    def test_fast_real_run_serialises_finite(self):
        result = check_cell("searching", 6, 3)
        document = json.dumps(result.to_jsonable())
        assert "Infinity" not in document and "NaN" not in document
