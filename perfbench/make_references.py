"""Write the reference verdict documents of the verify workloads.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_references.py

Every cell of ``verify-search`` and ``verify-reach`` is model-checked by
each frontier engine (``packed``, ``vector`` and the ``legacy``
tuple-state oracle); the script refuses to write unless all engines
produce byte-identical ``to_jsonable(include_timing=False)`` documents,
each engine in its own process.
The benchmark then checks each pass against this file, so its
correctness check does not rest on the engine being measured.  The
``legacy`` engine takes tens of seconds on the largest cells.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import REACH_CELLS, REFERENCES, SEARCH_CELLS  # noqa: E402

ENGINES = ("packed", "vector", "legacy")


def _cells():
    for table in (SEARCH_CELLS, REACH_CELLS):
        for task, task_cells in table.items():
            for k, n in task_cells:
                yield task, k, n


def check_with(engine: str) -> int:
    """Print every cell's verdict document as checked by ``engine``."""
    from repro.modelcheck.checker import ModelChecker
    from repro.modelcheck.engines import resolve_engine

    if resolve_engine(engine) != engine:
        print(f"make_references: engine {engine!r} is not available", file=sys.stderr)
        return 2
    documents = {}
    for task, k, n in _cells():
        result = ModelChecker(task, n, k, engine=engine).run()
        documents[f"{task}:{k}x{n}"] = result.to_jsonable(include_timing=False)
        print(f"{engine} {task} k={k} n={n}: {result.verdict.value}, "
              f"{result.num_states} states, {result.elapsed_s:.2f} s", file=sys.stderr)
    print(json.dumps(documents, sort_keys=True))
    return 0


def main() -> int:
    # One fresh process per engine: no engine can reuse another's
    # process-wide caches, so agreement is evidence, not an echo.
    texts = {}
    for engine in ENGINES:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--engine", engine],
            stdout=subprocess.PIPE, text=True,
        )
        if completed.returncode != 0:
            return completed.returncode
        texts[engine] = completed.stdout
    if len(set(texts.values())) != 1:
        print("make_references: the engines disagree; nothing written", file=sys.stderr)
        return 1
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump({"engines": list(ENGINES), "cells": json.loads(texts["legacy"])},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--engine"]:
        sys.exit(check_with(sys.argv[2]))
    sys.exit(main())
