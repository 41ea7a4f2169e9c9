"""The benchmark's tracer (perfbench/tracing.py) must find every layer it
wraps, so that deleting or renaming a traced function fails here instead of
breaking ``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import importlib

import tracing

tracing.Tracer().install()
for mod, attr in tracing.FUNCTION_LAYERS.values():
    assert hasattr(getattr(importlib.import_module("folgal." + mod), attr), "__wrapped__")
for mod, cls, methods in tracing.CLASS_LAYERS.values():
    klass = getattr(importlib.import_module("folgal." + mod), cls)
    for method in methods:
        assert hasattr(getattr(klass, method), "__wrapped__")
"""


def test_tracer_installs_every_layer():
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
