"""ExecContext: the one place execution knobs are checked and resolved."""

import dataclasses
import io

import pytest

from repro.campaign import ResultStore
from repro.cli import main
from repro.context import ExecContext
from repro.faults import FaultPlan
from repro.runs import ResultCache

#: The conflict message, shared verbatim by the library and the CLI.
CONFLICT = "jobs and shards cannot both exceed 1"


class TestValidation:
    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"jobs": 0}, "jobs must be >= 1"),
            ({"shards": 0}, "shards must be >= 1"),
            ({"jobs": 2, "shards": 2}, CONFLICT),
            ({"timeout": 0}, "timeout must be > 0"),
            ({"timeout": -1}, "timeout must be > 0"),
        ],
        ids=["jobs=0", "shards=0", "jobs+shards", "timeout=0", "timeout=-1"],
    )
    def test_each_rule_raises_its_own_message(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExecContext(**fields)

    def test_defaults_are_valid(self):
        ctx = ExecContext()
        assert (ctx.jobs, ctx.shards, ctx.timeout) == (1, 1, None)
        assert ctx.cache is None and ctx.store is None

    def test_replace_rechecks(self):
        with pytest.raises(ValueError, match=CONFLICT):
            dataclasses.replace(ExecContext(jobs=2), shards=2)

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
        "argv",
        [
            ["verify", "gathering", "--k", "3", "--n", "6", "--jobs", "2", "--shards", "2"],
            ["serve", "--port", "0", "--jobs", "2", "--shards", "2"],
        ],
        ids=["verify", "serve"],
    )
    def test_jobs_with_shards_exits_2_with_the_context_message(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv, out=io.StringIO())
        assert excinfo.value.code == 2
        assert CONFLICT in capsys.readouterr().err
