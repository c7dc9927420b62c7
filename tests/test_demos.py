"""Smoke test: every script in demos/ runs to completion.

Each demo runs in its own interpreter with the in-tree package first on
PYTHONPATH, from a scratch working directory.  The two demos that train
neural nuisances (about 6 s each on one core, against under a second
for the rest) are tagged slow.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
NEURAL = {"instrumented_effect.py", "partially_linear.py"}


def _params():
    for path in sorted(DEMOS.glob("*.py")):
        marks = [pytest.mark.slow] if path.name in NEURAL else []
        yield pytest.param(path, id=path.stem, marks=marks)


def test_every_neural_demo_exists():
    assert NEURAL <= {p.name for p in DEMOS.glob("*.py")}


@pytest.mark.parametrize("path", _params())
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
