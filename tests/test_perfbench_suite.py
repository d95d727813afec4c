"""The benchmark's own suite (`perfbench/tests`), run in a subprocess.

Its tracer patches the builders the benchmark times by their module
names (`ir.units.build_call_graph`, each interprocedural checker's
`build_supergraph`) and reads what they return, so a change to those
names or results breaks the benchmark before it breaks anything here.
One pytest session cannot collect both directories: each has its own
`conftest`, so the suite runs on its own, as it is run by hand:

    PYTHONPATH=src python -m pytest -q -p no:cacheprovider perfbench/tests
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_benchmark_suite_passes():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
