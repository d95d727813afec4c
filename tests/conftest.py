import importlib.util
import os
import sys
import textwrap

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from cbugscan.ir import build_unit_from_text

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                            "perfbench", "workloads.py")


def workload_sources(workload, seed, small=False):
    """(name, text) of the sources the benchmark generates for a workload
    and seed, at its benchmark size or at the small size of its own
    tests; the generator is loaded without writing bytecode next to it."""
    module = sys.modules.get("perfbench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = dont_write
    params = module.SMALL_PARAMS[workload] if small else None
    return [(source.name, source.text)
            for source in module.generate(workload, seed, params)]


@pytest.fixture
def unit_of():
    """Build a TranslationUnit from dedented inline source."""
    def build(source: str, path: str = "test.c"):
        return build_unit_from_text(textwrap.dedent(source), path)
    return build


@pytest.fixture
def corpus_path():
    def lookup(name: str) -> str:
        path = os.path.join(CORPUS_DIR, name)
        assert os.path.isfile(path), f"missing corpus file {name}"
        return path
    return lookup
