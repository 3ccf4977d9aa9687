"""ExecContext: the one place execution knobs are checked and resolved."""

import dataclasses
import io

import pytest

from repro.campaign import ResultStore
from repro.cli import main
from repro.context import ExecContext
from repro.faults import FaultPlan
from repro.runs import ResultCache


class TestValidation:
    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"jobs": 0}, "jobs must be >= 1"),
            ({"timeout": 0}, "timeout must be > 0"),
            ({"timeout": -1}, "timeout must be > 0"),
        ],
        ids=["jobs=0", "timeout=0", "timeout=-1"],
    )
    def test_each_rule_raises_its_own_message(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExecContext(**fields)

    def test_defaults_are_valid(self):
        ctx = ExecContext()
        assert (ctx.jobs, ctx.timeout) == (1, None)
        assert ctx.cache is None and ctx.store is None

    def test_replace_rechecks(self):
        with pytest.raises(ValueError, match="timeout must be > 0"):
            dataclasses.replace(ExecContext(jobs=2), timeout=0)

    def test_context_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecContext().jobs = 2  # type: ignore[misc]


class TestPathResolution:
    def test_paths_become_instances_inheriting_the_fault_plan(self, tmp_path):
        plan = FaultPlan(seed=1)
        ctx = ExecContext(
            cache=str(tmp_path / "cache"), store=tmp_path / "store", fault_plan=plan
        )
        assert isinstance(ctx.cache, ResultCache)
        assert ctx.cache.root == str(tmp_path / "cache")
        assert ctx.cache.fault_plan is plan
        assert isinstance(ctx.store, ResultStore)
        assert ctx.store.root == str(tmp_path / "store")
        assert ctx.store.fault_plan is plan

    def test_instances_are_kept_as_given(self, tmp_path):
        cache, store = ResultCache(str(tmp_path / "c")), ResultStore(str(tmp_path / "s"))
        ctx = ExecContext(cache=cache, store=store)
        assert ctx.cache is cache and ctx.store is store
        assert dataclasses.replace(ctx, jobs=2).cache is cache


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "gathering", "--k", "3", "--n", "6", "--jobs", "0"], "must be >= 1"),
            (["serve", "--port", "0", "--jobs", "0"], "must be >= 1"),
            (["verify", "gathering", "--k", "3", "--n", "6", "--timeout", "0"], "must be > 0"),
            (["serve", "--port", "0", "--timeout", "0"], "must be > 0"),
        ],
        ids=["verify-jobs", "serve-jobs", "verify-timeout", "serve-timeout"],
    )
    def test_bad_knob_exits_2_naming_the_option(self, argv, message, capsys):
        # The argument types enforce the context's rules, so a bad value
        # is a usage error before any context is built.
        with pytest.raises(SystemExit) as excinfo:
            main(argv, out=io.StringIO())
        assert excinfo.value.code == 2
        assert f"argument {argv[-2]}: {message}, got 0" in capsys.readouterr().err
