"""The run path stays scipy-free.

scipy costs about half a second of import time and tens of MB of RSS,
and a run needs none of it: the Welch plateau test carries its own
Student-t CDF and ``trend_line`` imports scipy lazily. A fresh
interpreter imports the package and the CLI, runs a small ConScale
spec whose estimator takes the Welch test, and then must hold no
``scipy`` module.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PROGRAM = """
import sys

import repro
import repro.cli
import repro.sct.model as model
from repro.experiments.artifact import RunSpec
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig

calls = 0
welch = model.welch_t_pvalue


def counting(a, b):
    global calls
    calls += 1
    return welch(a, b)


model.welch_t_pvalue = counting
execute_spec(RunSpec("conscale", ScenarioConfig(
    name="cold", trace_name="dual_phase", load_scale=300.0,
    duration=60.0, seed=2,
)))
assert calls > 0, "the spec never ran the Welch test"
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
print("welch calls:", calls)
"""


def test_run_path_imports_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "welch calls:" in proc.stdout
