"""Tests for the unified execute() dispatcher and its result caching."""

import json

import pytest

from repro.context import ExecContext
from repro.faults import RetryPolicy
from repro.runs import (
    BatchSweepSpec,
    ExperimentSpec,
    ResultCache,
    SimulateSpec,
    VerifySpec,
    cache_key,
    execute,
)
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions


def _no_step(*args, **kwargs):  # pragma: no cover - must never run
    raise AssertionError("the engine stepped during a cached run")


class TestExecuteSimulate:
    SPEC = SimulateSpec(algorithm="align", n=12, k=5, steps=300, seed=2, stop="c_star")

    def test_payload_shape_and_determinism(self):
        first = execute(self.SPEC)
        second = execute(self.SPEC)
        assert not first.cached and not second.cached
        assert first.payload == second.payload
        assert first.run_id == second.run_id
        assert first.payload["reached_c_star"]
        assert first.payload["stopped_reason"] == "stop-condition"
        assert first.payload["frames"], "expected at least one move frame"
        assert len(first.payload["trace_sha256"]) == 64

    def test_explicit_initial_counts(self):
        spec = SimulateSpec(
            algorithm="idle", n=6, k=2, steps=4, initial=(1, 0, 1, 0, 0, 0)
        )
        result = execute(spec)
        assert result.payload["initial_counts"] == [1, 0, 1, 0, 0, 0]
        assert result.payload["total_moves"] == 0

    def test_gathering_spec(self):
        spec = SimulateSpec(
            algorithm="gathering", n=10, k=4, steps=2000, seed=1, stop="gathered",
            engine=EngineOptions(exclusive=False, multiplicity_detection=True),
        )
        result = execute(spec)
        assert result.payload["gathered"]

    def test_cache_hit_runs_zero_engine_steps(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "cache")
        fresh = execute(self.SPEC, cache=cache)
        assert not fresh.cached
        # The acceptance check: a repeated identical spec must be served
        # entirely from disk — the engine must never step.
        monkeypatch.setattr(Simulator, "step", _no_step)
        cached = execute(self.SPEC, cache=cache)
        assert cached.cached
        assert cached.run_id == fresh.run_id
        assert json.dumps(cached.payload, sort_keys=True) == json.dumps(
            fresh.payload, sort_keys=True
        )

    def test_refresh_re_executes(self, tmp_path):
        cache = str(tmp_path)
        execute(self.SPEC, cache=cache)
        result = execute(self.SPEC, cache=cache, refresh=True)
        assert not result.cached


class TestExecuteVerify:
    SPEC = VerifySpec(task="searching", cells=((3, 6),), max_states=20000)

    def test_verify_payload(self):
        result = execute(self.SPEC)
        assert result.payload["rows"][0][5] in ("collision", "livelock")
        assert result.payload["passed"] is True
        assert result.payload["cells"][0]["verdict"] in ("collision", "livelock")

    def test_verify_cached_roundtrip(self, tmp_path, monkeypatch):
        cache = str(tmp_path)
        fresh = execute(self.SPEC, cache=cache)
        monkeypatch.setattr(Simulator, "step", _no_step)
        cached = execute(self.SPEC, cache=cache)
        assert cached.cached and cached.payload == fresh.payload


class TestExecuteExperiment:
    SPEC = ExperimentSpec(name="e1", variant="quick")

    def test_experiment_payload_and_cache(self, tmp_path):
        cache = str(tmp_path)
        fresh = execute(self.SPEC, cache=cache)
        assert fresh.payload["passed"] and fresh.ok
        assert "E1" in fresh.payload["rendered"]
        cached = execute(self.SPEC, cache=cache)
        assert cached.cached
        assert cached.payload == fresh.payload

    def test_store_bypasses_whole_run_cache_but_units_dedup(self, tmp_path):
        cache = str(tmp_path / "cache")
        execute(self.SPEC, cache=cache)
        # With a store attached the run must actually execute (so the
        # store artifacts get written) — served unit-by-unit from the
        # de-duplication cache instead of the whole-run entry.
        stored = execute(self.SPEC, cache=cache, store=str(tmp_path / "store"))
        assert not stored.cached
        assert any("served from the result cache" in note for note in stored.payload["notes"])
        assert (tmp_path / "store" / "e1-quick" / "summary.json").exists()


class _CountingSink:
    """Duck-typed metrics sink: counts ``inc`` calls."""

    def __init__(self):
        self.calls = 0

    def inc(self, name, **labels):
        self.calls += 1


_VERIFY = VerifySpec(task="searching", cells=((3, 6), (3, 7)), max_states=20000)


class TestContextIsNotIdentity:
    """No execution-context field reaches a run id, cache key or payload."""

    @pytest.mark.parametrize(
        "spec,context",
        [
            (_VERIFY, lambda: ExecContext(jobs=2)),
            (_VERIFY, lambda: ExecContext(timeout=120.0)),
            (
                ExperimentSpec(name="e1", variant="quick"),
                lambda: ExecContext(
                    jobs=2, retry=RetryPolicy(base_delay_s=0.0), metrics=_CountingSink()
                ),
            ),
            (
                BatchSweepSpec(algorithm="align", n=9, k=4, steps=60, seeds=(0, 1)),
                lambda: ExecContext(timeout=120.0),
            ),
        ],
        ids=["verify-jobs", "verify-timeout", "experiment-jobs-retry-metrics", "batch-timeout"],
    )
    def test_same_run_id_cache_key_and_payload_bytes(self, spec, context, tmp_path):
        ctx = context()
        plain = execute(spec)
        tuned = execute(spec, ctx, cache=str(tmp_path))
        assert tuned.run_id == plain.run_id == cache_key(spec)
        assert json.dumps(tuned.payload, sort_keys=True) == json.dumps(
            plain.payload, sort_keys=True
        )
        # The entry the tuned run wrote is the one a plain run looks up.
        assert execute(spec, cache=str(tmp_path)).cached
        if isinstance(ctx.metrics, _CountingSink):
            assert ctx.metrics.calls > 0


class TestExecuteErrors:
    def test_unknown_spec_type_rejected(self):
        with pytest.raises(TypeError):
            execute(object())

    def test_transient_verify_failure_is_not_cached(self, tmp_path, monkeypatch):
        """A run whose units error transiently must be re-attempted, not replayed."""
        from repro.modelcheck.checker import ModelChecker

        spec = VerifySpec(task="searching", cells=((3, 6),), max_states=19999)
        cache = str(tmp_path)

        def explode(self):
            raise OSError("transient failure")

        monkeypatch.setattr(ModelChecker, "run", explode)
        broken = execute(spec, cache=cache)
        assert not broken.payload["passed"]
        assert broken.deterministic is False
        assert "ERROR" in str(broken.payload["rows"][0])

        monkeypatch.undo()
        healed = execute(spec, cache=cache)
        assert not healed.cached, "a failed payload must not have been cached"
        assert healed.payload["passed"] and healed.deterministic
        # ...and the healthy result now IS cached.
        assert execute(spec, cache=cache).cached

    def test_refresh_bypasses_the_unit_cache_too(self, tmp_path, monkeypatch):
        """--refresh must re-execute campaign units, not rebuild from them."""
        from repro.modelcheck.checker import ModelChecker

        spec = VerifySpec(task="searching", cells=((3, 6),), max_states=19998)
        cache = str(tmp_path)
        calls = {"n": 0}
        real_run = ModelChecker.run

        def counting_run(self):
            calls["n"] += 1
            return real_run(self)

        monkeypatch.setattr(ModelChecker, "run", counting_run)
        execute(spec, cache=cache)
        assert calls["n"] == 1
        refreshed = execute(spec, cache=cache, refresh=True)
        assert calls["n"] == 2, "refresh must re-run the checker despite unit-cache entries"
        assert not refreshed.cached
        # The refreshed results repopulated both cache levels.
        assert execute(spec, cache=cache).cached
        assert calls["n"] == 2

    def test_history_dependent_payloads_never_enter_whole_run_cache(self, tmp_path):
        """Resume/cache-serving notes must not leak into later cache hits."""
        spec = ExperimentSpec(name="e1", variant="quick")
        cache = str(tmp_path / "cache")
        execute(spec, cache=cache, store=str(tmp_path / "store"))
        resumed = execute(spec, cache=cache, store=str(tmp_path / "store"))
        assert any("result store" in note for note in resumed.payload["notes"])
        # Store-backed runs never write the whole-run entry, and a
        # store-less run whose units came from the de-dup cache carries a
        # history note, so its payload is not cached either.
        noted = execute(spec, cache=cache)
        assert not noted.cached
        assert any("result cache" in note for note in noted.payload["notes"])
        again = execute(spec, cache=cache)
        assert not again.cached
        # A run against a fresh cache produces the canonical payload and
        # THAT one is a whole-run entry on repeat.
        clean_cache = str(tmp_path / "clean")
        clean = execute(spec, cache=clean_cache)
        assert clean.payload["notes"] == [] or not any(
            "cache" in note or "store" in note for note in clean.payload["notes"]
        )
        hit = execute(spec, cache=clean_cache)
        assert hit.cached and hit.payload == clean.payload


class TestSpecCoercionErrors:
    def test_structurally_wrong_documents_raise_value_error(self):
        """TypeErrors from coercion must surface as ValueError (HTTP 400)."""
        from repro.runs import spec_from_jsonable

        with pytest.raises(ValueError):
            spec_from_jsonable({"kind": "verify", "task": "searching", "cells": [3, 6]})
        with pytest.raises(ValueError):
            spec_from_jsonable(
                {"kind": "simulate", "engine": {"decision_cache_size": "big"}}
            )
