"""numpy is the only runtime dependency.

A fresh interpreter imports the package and runs a small orthogonality
check and one cross-fitted estimate.  Every module loaded on the way
must come from the standard library, numpy or the package itself.  A
module is judged by the file it was loaded from, not by its name:
numpy's compiled modules register helper modules such as
``cython_runtime``, and ``multiprocessing``, once a pool runs, registers
``__mp_main__``; those have no file and are part of the interpreter or
numpy.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = r"""
import json, os, sys, sysconfig
before = set(sys.modules)
import numpy
import orthoscore
orthoscore.run_check("plr", n_mc=4096, seed=1)
data, _ = orthoscore.gen_dataset(orthoscore.DgpConfig(n=200, seed=1))
orthoscore.late_crossfit(data, orthoscore.LateConfig(seed=1))

def root(path):
    return os.path.realpath(path) + os.sep

paths = sysconfig.get_paths()
stdlib = {root(paths["stdlib"]), root(paths["platstdlib"])}
installed = {root(paths["purelib"]), root(paths["platlib"])}
allowed = {root(os.path.dirname(numpy.__file__)),
           root(os.path.dirname(orthoscore.__file__))}
new = sorted(set(sys.modules) - before)
foreign = {}
for name in new:
    path = getattr(sys.modules[name], "__file__", None)
    if path is None:
        continue
    path = os.path.realpath(path)
    if any(path.startswith(r) for r in allowed):
        continue
    if (any(path.startswith(r) for r in stdlib)
            and not any(path.startswith(r) for r in installed)):
        continue
    foreign[name] = path
print(json.dumps({"new": new, "foreign": foreign}))
"""


def test_only_stdlib_and_numpy_are_loaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["foreign"] == {}
    # The probe saw the package, numpy and a standard-library module
    # that only the package loads (for its records).
    assert {"orthoscore.core", "numpy", "dataclasses"} <= set(report["new"])
    # The process pool is loaded only by run_replications(jobs > 1).
    assert [name for name in report["new"]
            if name.split(".")[0] in ("multiprocessing", "concurrent")] == []
