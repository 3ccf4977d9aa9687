"""Execution context: *how* a run executes, never *what* it computes.

Every execution layer — :func:`repro.runs.execute`, the spec executors,
:func:`~repro.modelcheck.grid.run_verify_campaign`,
:func:`~repro.campaign.run_experiment_campaign`,
:func:`~repro.campaign.run_campaign`, the experiment runners and
:class:`~repro.service.RunService` — takes one frozen
:class:`ExecContext` instead of forwarding its fields keyword by
keyword.  The context is validated and its paths are resolved exactly
once, here; none of its fields ever enters a spec, a run id or a cache
key (see ``docs/architecture.md``, "Execution context").

Derive variants with :func:`dataclasses.replace`, which re-runs the
checks::

    ctx = ExecContext(jobs=4, cache=".repro-cache")
    quiet = dataclasses.replace(ctx, progress=None)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - annotations only (avoids import cycles)
    from .campaign.executor import ProgressCallback
    from .campaign.store import ResultStore
    from .faults import FaultPlan, RetryPolicy
    from .runs.cache import ResultCache

__all__ = ["ExecContext"]


@dataclass(frozen=True)
class ExecContext:
    """The eight execution knobs of a run, validated together.

    Attributes:
        jobs: worker processes running campaign units in parallel
            (``1`` runs in-process).
        store: campaign result store (path or
            :class:`~repro.campaign.ResultStore`): resume plus JSONL
            shards and ``summary.json``.
        progress: callback ``(done, total, record)`` after every unit.
        cache: content-addressed result cache (path or
            :class:`~repro.runs.ResultCache`).
        timeout: deadline in seconds: per campaign unit for verify and
            experiment runs, per run for simulate and batch sweeps.
        retry: :class:`~repro.faults.RetryPolicy` for transient unit
            failures.
        fault_plan: :class:`~repro.faults.FaultPlan` arming fault
            injection (chaos testing).
        metrics: duck-typed sink with an ``inc(name, **labels)`` method
            counting settled campaign units.

    Raises:
        ValueError: ``jobs`` below 1, or a ``timeout`` that is not
            ``None`` and not positive.
    """

    jobs: int = 1
    store: Optional[Union[str, "ResultStore"]] = None
    progress: Optional["ProgressCallback"] = None
    cache: Optional[Union[str, "ResultCache"]] = None
    timeout: Optional[float] = None
    retry: Optional["RetryPolicy"] = None
    fault_plan: Optional["FaultPlan"] = None
    metrics: Optional[object] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0 (or None to disable)")
        # A path-given cache or store inherits the fault plan's
        # write-path injection sites.  Imported here: both packages
        # import this module.
        if isinstance(self.cache, (str, os.PathLike)):
            from .runs.cache import ResultCache

            cache = ResultCache(os.fspath(self.cache), fault_plan=self.fault_plan)
            object.__setattr__(self, "cache", cache)
        if isinstance(self.store, (str, os.PathLike)):
            from .campaign.store import ResultStore

            store = ResultStore(os.fspath(self.store), fault_plan=self.fault_plan)
            object.__setattr__(self, "store", store)
