"""Only the model checker may import NumPy.

The batched simulator and the adversary game solver are pure stdlib: a
fresh interpreter that runs a small batch sweep and a game verdict must
never load ``numpy``, whether or not it is installed.
"""

import os
import subprocess
import sys

import repro

BATCH_SWEEP = """
from repro.batchsim.backends import resolve_backend
from repro.runs import BatchSweepSpec, execute

sweep = execute(BatchSweepSpec(algorithm="align", n=10, k=4, steps=80, seeds=(0, 1, 2)))
assert sweep.payload["num_runs"] == 3
assert resolve_backend() == "stdlib"
"""

GAME_SOLVER = """
from repro.analysis.game import GameVerdict, searching_game_verdict

assert searching_game_verdict(6, 3).verdict in tuple(GameVerdict)
"""

NO_NUMPY = """
import sys

assert "numpy" not in sys.modules, "numpy was imported"
"""


def _run_fresh(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script + NO_NUMPY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_batch_sweep_never_imports_numpy():
    _run_fresh(BATCH_SWEEP)


def test_game_solver_never_imports_numpy():
    _run_fresh(GAME_SOLVER)
