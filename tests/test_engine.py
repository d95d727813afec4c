import gc
import glob
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from conftest import CORPUS_DIR, workload_sources

from cbugscan import cli, engine
from cbugscan.checkers import builtin_registry
from cbugscan.checkers.base import (Checker, CheckerDescriptor, CheckerRegistry,
                                    Services)
from cbugscan.checkers.reach import ReachChecker
from cbugscan.cli import build_job
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import JobResult, make_loader, run_job
from cbugscan.errors import ConfigError
from cbugscan.frontend import NodeKind
from cbugscan.ir import UnitManager, units
from cbugscan.report import (ErrorTrace, Importance, TraceStep, export_json,
                             normalize, traces_from_json)

DEAD_CODE = """
void f(void) {
    return;
    cleanup();
}
"""

CLEAN = """
void f(void) {
    step();
}
"""

SEMICOLON = """
void f(int c) {
    if (c);
    step();
}
"""


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return str(path)


def job_for(tmp_path, sources, checkers=(("reach", None),), **kwargs):
    return AnalysisJob(
        sources=[SourceDescriptor(s) for s in sources],
        checkers=list(checkers),
        **kwargs,
    )


@pytest.fixture(autouse=True)
def cpus_kept():
    """No test leaves this process allowed on fewer CPUs than before."""
    allowed = getattr(os, "sched_getaffinity", lambda pid: None)
    before = allowed(0)
    yield
    assert allowed(0) == before


# -- the basic loop -----------------------------------------------------------------

def test_traces_collected_and_normalized(tmp_path):
    b = write(tmp_path, "b.c", DEAD_CODE)
    a = write(tmp_path, "a.c", DEAD_CODE)
    result = run_job(job_for(tmp_path, [b, a]))
    assert len(result.traces) == 2
    # normalize orders by file regardless of the source list order
    assert [t.primary_location.file for t in result.traces] == [a, b]
    assert result.has_errors()
    assert result.diagnostics == []


def test_clean_run_has_no_errors(tmp_path):
    result = run_job(job_for(tmp_path, [write(tmp_path, "a.c", CLEAN)]))
    assert result.traces == []
    assert not result.has_errors()


def test_warnings_do_not_set_has_errors(tmp_path):
    result = run_job(job_for(tmp_path, [write(tmp_path, "a.c", SEMICOLON)]))
    assert len(result.traces) == 1
    assert result.traces[0].importance is Importance.WARNING
    assert not result.has_errors()


def test_min_importance_filters_warnings(tmp_path):
    source = write(tmp_path, "a.c", SEMICOLON + DEAD_CODE.replace("void f", "void g"))
    keep_all = run_job(job_for(tmp_path, [source]))
    errors_only = run_job(job_for(tmp_path, [source],
                                  min_importance=Importance.ERROR))
    assert {t.importance for t in keep_all.traces} == \
        {Importance.WARNING, Importance.ERROR}
    assert [t.importance for t in errors_only.traces] == [Importance.ERROR]


# -- failure isolation ---------------------------------------------------------------

def test_unparseable_file_is_skipped_with_diagnostic(tmp_path):
    good = write(tmp_path, "good.c", DEAD_CODE)
    bad = write(tmp_path, "bad.c", "void broken( {")
    result = run_job(job_for(tmp_path, [bad, good]))
    assert len(result.traces) == 1  # the good file still analyzed
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith(f"skipping {bad}: ")


def test_crash_while_building_a_unit_is_isolated(tmp_path, monkeypatch):
    crash = write(tmp_path, "crash.c", CLEAN)
    good = write(tmp_path, "good.c", DEAD_CODE)
    real_build_cfg = units.build_cfg

    def build_cfg(func, ids):
        if func.location.file == crash:
            raise ZeroDivisionError("boom")
        return real_build_cfg(func, ids)

    monkeypatch.setattr(units, "build_cfg", build_cfg)
    result = run_job(job_for(tmp_path, [crash, good]))
    assert [t.steps[0].location.file for t in result.traces] == [good]
    assert result.diagnostics == [
        f"skipping {crash}: internal error: ZeroDivisionError: boom"]


def test_too_deep_nesting_is_a_located_diagnostic(tmp_path):
    depth = 400
    deep = write(tmp_path, "deep.c", "void f(int c) {\n"
                 + "if (c) {\n" * depth + "step();\n" + "}\n" * depth + "}\n")
    good = write(tmp_path, "good.c", DEAD_CODE)
    result = run_job(job_for(tmp_path, [deep, good]))
    assert [t.steps[0].location.file for t in result.traces] == [good]
    assert len(result.diagnostics) == 1
    assert re.fullmatch(rf"skipping {re.escape(deep)}: {re.escape(deep)}:\d+:\d+: "
                        r"nesting too deep", result.diagnostics[0])


def test_redefined_function_is_a_located_diagnostic(tmp_path):
    twice = write(tmp_path, "twice.c", """\
        int m;
        void f(void) { mutex_lock(&m); }
        void f(void) { }
    """)
    good = write(tmp_path, "good.c", DEAD_CODE)
    result = run_job(job_for(tmp_path, [twice, good],
                             checkers=[("automaton", None), ("reach", None)]))
    assert [t.steps[0].location.file for t in result.traces] == [good]
    assert result.diagnostics == [
        f"skipping {twice}: {twice}:3:1: redefinition of function 'f'"]


def test_octal_condition_is_analyzed(tmp_path):
    # 010 is eight: the unlock always runs, so nothing leaks
    octal = write(tmp_path, "oct.c", """
        void f(int c) {
            mutex_lock(&m);
            if (010) mutex_unlock(&m);
        }
    """)
    result = run_job(job_for(tmp_path, [octal],
                             checkers=[("automaton", None)]))
    assert (result.traces, result.diagnostics) == ([], [])
    zero = write(tmp_path, "zero.c", "void f(void) { mutex_lock(&m); "
                                     "if (00) mutex_unlock(&m); }\n")
    result = run_job(job_for(tmp_path, [zero], checkers=[("automaton", None)]))
    assert [t.message for t in result.traces] == ["lock &m held at exit"]


def test_malformed_int_literal_is_a_located_diagnostic(tmp_path):
    hexa = write(tmp_path, "hex.c", "void f(void) {\n    if (0x) g();\n}\n")
    octal = write(tmp_path, "oct.c", "void f(void) {\n    x = 08;\n}\n")
    result = run_job(job_for(tmp_path, [hexa, octal]))
    assert result.diagnostics == [
        f"skipping {hexa}: {hexa}:2:9: malformed number near '0x'",
        f"skipping {octal}: {octal}:2:9: malformed number near '08'"]


class CrashingChecker(Checker):
    name = "crash"

    def __init__(self, config_path):
        pass

    def check_unit(self, unit, services):
        raise ZeroDivisionError("boom")


class FailingChecker(Checker):
    name = "fail"

    def __init__(self, config_path):
        pass

    def check_unit(self, unit, services):
        raise ConfigError("bad state")


class OneTraceChecker(Checker):
    name = "one"

    def __init__(self, config_path):
        pass

    def check_unit(self, unit, services):
        return [ErrorTrace(
            checker="one", importance=Importance.ERROR, message="found",
            steps=(TraceStep(unit.ast.location, "here"),))]


def registry_with(*descriptors):
    registry = CheckerRegistry()
    for descriptor in descriptors:
        registry.register(descriptor)
    return registry


def test_checker_crash_is_isolated(tmp_path):
    source = write(tmp_path, "a.c", CLEAN)
    registry = registry_with(
        CheckerDescriptor("crash", CrashingChecker),
        CheckerDescriptor("one", OneTraceChecker),
    )
    job = job_for(tmp_path, [source],
                  checkers=[("crash", None), ("one", None)])
    result = run_job(job, registry=registry)
    assert [t.checker for t in result.traces] == ["one"]
    assert result.diagnostics == [
        f"checker crash crashed on {source}: ZeroDivisionError: boom"]


def test_checker_failure_is_reported(tmp_path):
    source = write(tmp_path, "a.c", CLEAN)
    registry = registry_with(CheckerDescriptor("fail", FailingChecker))
    job = job_for(tmp_path, [source], checkers=[("fail", None)])
    result = run_job(job, registry=registry)
    assert result.traces == []
    assert result.diagnostics == [
        f"checker fail failed on {source}: bad state"]


# -- streaming ----------------------------------------------------------------------

def test_each_source_loaded_once_per_run(tmp_path):
    sources = [write(tmp_path, f"s{i}.c", DEAD_CODE) for i in range(4)]
    job = job_for(tmp_path, sources,
                  checkers=[("reach", None), ("automaton", None)])
    manager = UnitManager(make_loader(job))
    run_job(job, unit_manager=manager)
    assert manager.total_loads == 4
    assert all(count == 1 for count in manager.load_counts.values())


def test_memory_budget_does_not_change_the_report(tmp_path):
    sources = [write(tmp_path, f"s{i}.c", DEAD_CODE) for i in range(5)]
    unlimited = run_job(job_for(tmp_path, sources))
    tight_job = job_for(tmp_path, sources, memory_units=1)
    manager = UnitManager(make_loader(tight_job), budget=1)
    tight = run_job(tight_job, unit_manager=manager)
    assert export_json(unlimited.traces) == export_json(tight.traces)
    assert manager.max_resident <= 1


def test_make_loader_passes_flags_and_preprocess_mode(tmp_path):
    source = write(tmp_path, "a.c", CLEAN)
    calls = []

    job = job_for(tmp_path, [source], preprocess_command="cat")
    job.sources = [SourceDescriptor(source, ("-DX",))]
    kinds = frozenset({NodeKind.CALL})

    import cbugscan.engine as engine
    original = engine.load_unit
    engine.load_unit = lambda *args: calls.append(args) or original(source)
    try:
        make_loader(job)(source)
        make_loader(job, kinds)(source)
    finally:
        engine.load_unit = original
    assert calls == [(source, ("-DX",), "cat", None),
                     (source, ("-DX",), "cat", kinds)]


# -- a unit's match table lists the kinds the job's checkers read ----------------

def checked_units(monkeypatch, job):
    """What `run_job` gives for `job`, and the units it builds."""
    built = []
    load_unit = engine.load_unit
    monkeypatch.setattr(engine, "load_unit", lambda *args: built.append(
        load_unit(*args)) or built[-1])
    return run_job(job), built


def test_bundled_checkers_ask_for_calls_assignments_and_bodies(
        tmp_path, monkeypatch):
    job = job_for(tmp_path, [write(tmp_path, "a.c", SEMICOLON)],
                  checkers=ALL_CHECKERS)
    result, built = checked_units(monkeypatch, job)
    assert result.traces
    assert [set(unit.match_table) for unit in built] == [{
        NodeKind.CALL, NodeKind.ASSIGN, NodeKind.IF, NodeKind.WHILE,
        NodeKind.FOR}]


def test_an_access_pattern_with_a_metavariable_root_asks_for_every_kind(
        tmp_path, monkeypatch):
    config = tmp_path / "meta.conf"
    config.write_text('access "%V"\nlock "mutex_lock(%X)" '
                      'unlock "mutex_unlock(%X)"\n')
    source = write(tmp_path, "a.c", "".join(
        f"void f{i}(void) {{ mutex_lock(&m); x = {i}; mutex_unlock(&m); }}\n"
        for i in range(9)) + "void g(void) { x = 9; }\n")
    job = job_for(tmp_path, [source], checkers=[("lockstat", str(config))])
    result, built = checked_units(monkeypatch, job)
    assert [set(unit.match_table) for unit in built] == [set(NodeKind)]
    # what the checker finds on a unit built with every kind, as before
    checker = builtin_registry().create("lockstat", str(config))
    with open(source) as handle:
        unit = units.build_unit_from_text(handle.read(), source)
    assert result.traces == normalize(checker.check_unit(unit, Services()))
    assert result.traces


def test_job_result_defaults():
    result = JobResult()
    assert result.traces == [] and result.diagnostics == []
    assert not result.has_errors()


# -- wiring through build_job ---------------------------------------------------------

def test_build_job_then_run(tmp_path):
    source = write(tmp_path, "a.c", DEAD_CODE)
    job = build_job(["check", source, "--checker", "reach",
                     "--memory-units", "1"])
    result = run_job(job)
    assert len(result.traces) == 1
    assert result.traces[0].message == "unreachable code"


# -- the cyclic garbage collector ---------------------------------------------------
# run_job turns the collector off, which is safe only while no job object
# is in a reference cycle: these tests keep that an invariant.

ALL_CHECKERS = [(name, None)
                for name in ("automaton", "lockstat", "thread", "reach")]


def corpus_job(**kwargs):
    return AnalysisJob(
        sources=[SourceDescriptor(path) for path in
                 sorted(glob.glob(os.path.join(CORPUS_DIR, "*.c")))],
        checkers=list(ALL_CHECKERS), **kwargs)


def cyclic_garbage(job, registry=None):
    """The job's trace count and diagnostics, and the number of objects a
    collection frees once the job, run with the collector off, is done."""
    gc.collect()
    gc.disable()
    try:
        result = run_job(job, registry=registry)
        found, diagnostics = len(result.traces), result.diagnostics
        del result
        return found, diagnostics, gc.collect()
    finally:
        gc.enable()


def test_finished_job_leaves_no_cyclic_garbage():
    """Units, match tables and supergraphs are freed by reference
    counting once a job is done: nothing is left for the collector."""
    found, diagnostics, garbage = cyclic_garbage(corpus_job())
    assert found and diagnostics == []
    assert garbage == 0


def _deep_if(depth):
    return ("void f(int c) {\n" + "if (c) {\n" * depth + "step();\n"
            + "}\n" * depth + "}\n").encode()


def _deep_parens(depth):
    return ("void f(int x) {\n    x = " + "(" * depth + "x" + ")" * depth
            + ";\n}\n").encode()


# name: (source bytes or None for a missing file, job options, a piece of
# the one diagnostic the job gives, or None for none)
_GARBAGE_PATHS = {
    "parse_error": (b"void broken( {", {}, "expected"),
    "prototype": (b"void f(void);\n", {}, "prototypes are not supported"),
    "if_400": (_deep_if(400), {}, "nesting too deep"),
    "parens_600": (_deep_parens(600), {}, "nesting too deep"),
    "missing_file": (None, {}, "cannot read source file"),
    "bom": (b"\xef\xbb\xbf" + DEAD_CODE.encode(), {}, None),
    "not_utf8": (b"/* \xe9 */" + DEAD_CODE.encode(), {}, None),
    "preprocess_cat": (DEAD_CODE.encode(), {"preprocess_command": "cat"}, None),
}


@pytest.mark.parametrize("name", sorted(_GARBAGE_PATHS))
def test_job_path_leaves_no_cyclic_garbage(tmp_path, name):
    source, options, diagnostic = _GARBAGE_PATHS[name]
    path = tmp_path / "a.c"
    if source is not None:
        path.write_bytes(source)
    job = job_for(tmp_path, [str(path)], checkers=ALL_CHECKERS, **options)
    found, diagnostics, garbage = cyclic_garbage(job)
    if diagnostic is None:
        assert found and diagnostics == []
    else:
        assert len(diagnostics) == 1 and diagnostic in diagnostics[0]
    assert garbage == 0


def test_crashing_checker_leaves_no_cyclic_garbage(tmp_path):
    source = write(tmp_path, "a.c", DEAD_CODE)
    registry = registry_with(CheckerDescriptor("crash", CrashingChecker),
                             CheckerDescriptor("fail", FailingChecker))
    job = job_for(tmp_path, [source],
                  checkers=[("crash", None), ("fail", None)])
    _, diagnostics, garbage = cyclic_garbage(job, registry)
    assert len(diagnostics) == 2
    assert garbage == 0


def test_one_resident_unit_leaves_no_cyclic_garbage():
    found, diagnostics, garbage = cyclic_garbage(corpus_job(memory_units=1))
    assert found and diagnostics == []
    assert garbage == 0


def test_no_collection_starts_inside_a_job():
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    job = corpus_job()
    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        result = run_job(job)
    finally:
        gc.callbacks.remove(count)
    assert result.traces
    assert starts == []


@pytest.mark.parametrize("enabled", [True, False])
def test_run_job_restores_the_collector_state(tmp_path, enabled):
    during = []

    class Probe(Checker):
        name = "probe"

        def __init__(self, config_path):
            pass

        def check_unit(self, unit, services):
            during.append(gc.isenabled())
            return []

    source = write(tmp_path, "a.c", CLEAN)
    registry = registry_with(CheckerDescriptor("probe", Probe))
    was_enabled = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        run_job(job_for(tmp_path, [source], checkers=[("probe", None)]),
                registry=registry)
        after_run = gc.isenabled()
        with pytest.raises(ConfigError):
            run_job(job_for(tmp_path, [source], checkers=[("nope", None)]),
                    registry=registry)
        after_raise = gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
    assert during == [False]
    assert after_run is after_raise is enabled


def test_nesting_too_deep_location_does_not_depend_on_the_callers_stack(tmp_path):
    deep = tmp_path / "deep.c"
    deep.write_bytes(b"int m;\n" + _deep_if(400))
    job = job_for(tmp_path, [str(deep)])

    def diagnostics_under(frames):
        if frames:
            return diagnostics_under(frames - 1)
        return run_job(job).diagnostics

    assert diagnostics_under(0) == diagnostics_under(50) == [
        f"skipping {deep}: {deep}:2:1: nesting too deep"]


# -- forked workers -----------------------------------------------------------------
# These tests set the engine's list of usable CPUs, so they force two or
# three workers on any host; placing a worker on a CPU the host lacks
# fails quietly.

needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="workers are forked only where the CPU set can be read")


def with_cpus(monkeypatch, count):
    monkeypatch.setattr(engine, "usable_cpus", lambda: list(range(count)))


def count_forks(monkeypatch):
    """The list that grows by one at each `os.fork` from now on."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_shards_are_contiguous_nonempty_and_about_equal():
    assert engine.shard_bounds([10, 10, 10, 10], 2) == [0, 2, 4]
    assert engine.shard_bounds([10, 10, 10, 10], 3) == [0, 1, 3, 4]
    # the cut nearest the half, not the first past it
    assert engine.shard_bounds([9, 10, 10, 10, 11, 10], 2) == [0, 3, 6]
    assert engine.shard_bounds([10, 10, 10, 11, 10], 2) == [0, 3, 5]
    assert engine.shard_bounds([100, 1, 1, 1], 2) == [0, 1, 4]
    assert engine.shard_bounds([1, 1, 1, 100], 2) == [0, 3, 4]
    assert engine.shard_bounds([1, 1, 100], 3) == [0, 1, 2, 3]
    assert engine.shard_bounds([0, 0, 0], 3) == [0, 1, 2, 3]
    assert engine.shard_bounds([5, 6, 7], 1) == [0, 3]
    assert engine.shard_bounds([], 1) == [0, 0]


def workload_paths(tmp_path, workload, seed):
    directory = tmp_path / f"{workload}{seed}"
    directory.mkdir()
    for name, text in workload_sources(workload, seed, small=True):
        (directory / name).write_text(text, encoding="utf-8")
    return sorted(str(path) for path in directory.iterdir())


@needs_fork
@pytest.mark.parametrize("workload,seed", [("corpus", None)] + [
    (workload, seed) for workload in ("wide", "deep", "nest")
    for seed in (1, 2, 3)])
def test_workers_report_what_one_process_reports(tmp_path, monkeypatch,
                                                 workload, seed):
    job = (corpus_job() if workload == "corpus" else
           job_for(tmp_path, workload_paths(tmp_path, workload, seed),
                   checkers=ALL_CHECKERS))
    mask = os.sched_getaffinity(0)
    reports = {}
    for cpus in (1, 2, 3):
        with_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        result = run_job(job)
        assert len(forks) == min(cpus, len(job.sources)) - 1
        assert_nothing_left(mask)
        reports[cpus] = export_json(result.traces), result.diagnostics
    assert reports[1][0]
    assert reports[2] == reports[1]
    assert reports[3] == reports[1]


@needs_fork
@pytest.mark.parametrize("case", ["one source", "one CPU", "caller's manager",
                                  "live thread", "one memory unit"])
def test_in_process_jobs_fork_nothing(tmp_path, monkeypatch, case):
    sources = [write(tmp_path, f"s{i}.c", DEAD_CODE) for i in range(4)]
    with_cpus(monkeypatch, 1 if case == "one CPU" else 2)
    forks = count_forks(monkeypatch)
    job = job_for(tmp_path, sources[:1] if case == "one source" else sources,
                  memory_units=1 if case == "one memory unit" else None)
    manager = UnitManager(make_loader(job)) if case == "caller's manager" \
        else None
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "live thread":
        thread.start()
    try:
        result = run_job(job, unit_manager=manager)
    finally:
        release.set()
        if case == "live thread":
            thread.join()
    assert forks == []
    assert len(result.traces) == len(job.sources)


@needs_fork
def test_config_error_is_raised_before_any_fork(tmp_path, monkeypatch):
    sources = [write(tmp_path, f"s{i}.c", DEAD_CODE) for i in range(4)]
    with_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    with pytest.raises(ConfigError):
        run_job(job_for(tmp_path, sources, checkers=[("nope", None)]))
    assert forks == []


@needs_fork
@pytest.mark.parametrize("command", ['cat "', " ", ""])
def test_bad_preprocessor_command_is_raised_before_any_read_or_fork(
        tmp_path, monkeypatch, command):
    sources = [write(tmp_path, f"s{i}.c", DEAD_CODE) for i in range(4)]
    with_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    loads = []
    monkeypatch.setattr(engine, "load_unit", lambda *args: loads.append(args))
    with pytest.raises(ConfigError, match="bad preprocessor command"):
        run_job(job_for(tmp_path, sources, preprocess_command=command))
    assert forks == [] and loads == []


@needs_fork
@pytest.mark.parametrize("memory_units", [0, -1])
def test_memory_units_below_one_is_raised_before_any_read_or_fork(
        tmp_path, monkeypatch, memory_units):
    # refused before any worker count or unit budget is derived from it
    sources = [write(tmp_path, f"s{i}.c", DEAD_CODE) for i in range(4)]
    with_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    loads = []
    monkeypatch.setattr(engine, "load_unit", lambda *args: loads.append(args))
    with pytest.raises(ConfigError, match="^memory_units must be at least 1$"):
        run_job(job_for(tmp_path, sources, memory_units=memory_units))
    assert forks == [] and loads == []


@needs_fork
def test_memory_budget_is_shared_out_between_workers(tmp_path, monkeypatch):
    sources = [write(tmp_path, f"s{i}.c", DEAD_CODE) for i in range(6)]
    managers, budgets = [], []

    def unit_manager(loader, budget):
        budgets.append(budget)
        managers.append(UnitManager(loader, budget))
        return managers[-1]

    monkeypatch.setattr(engine, "UnitManager", unit_manager)
    with_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    result = run_job(job_for(tmp_path, sources, memory_units=4))
    assert len(forks) == 2 and len(result.traces) == 6
    manager, = managers
    assert budgets == [1]
    # the workers' loads are counted here too, and their peaks add up
    assert manager.total_loads == 6
    assert sorted(manager.load_counts) == sorted(sources)
    assert manager.max_resident == 3


# -- worker failures: each costs its own shard, and nothing is left behind ----------

def found(unit):
    return [ErrorTrace(checker="probe", importance=Importance.ERROR,
                       message="found",
                       steps=(TraceStep(unit.ast.location, "here"),))]


def probe_registry(on_unit):
    """A registry whose one checker, `probe`, calls `on_unit(path,
    in_worker)` for each unit and reports one finding unless that
    returns traces of its own."""
    parent = os.getpid()

    class Probe(Checker):
        name = "probe"

        def __init__(self, config_path):
            pass

        def check_unit(self, unit, services):
            return on_unit(unit.path, os.getpid() != parent) or found(unit)

    return registry_with(CheckerDescriptor("probe", Probe))


def two_shards(tmp_path, monkeypatch):
    """Four files of one size and two workers: this process checks a.c
    and b.c, the worker c.c and d.c."""
    with_cpus(monkeypatch, 2)
    return [write(tmp_path, f"{name}.c", CLEAN) for name in "abcd"]


def assert_nothing_left(mask):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == mask
    assert gc.isenabled()


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
def test_killed_worker_costs_only_its_shard(tmp_path, monkeypatch, capfd):
    mask = os.sched_getaffinity(0)
    a, b, c, d = two_shards(tmp_path, monkeypatch)

    def on_unit(path, in_worker):
        if in_worker and path == d:
            kill_self()

    result = run_job(job_for(tmp_path, [a, b, c, d],
                             checkers=[("probe", None)]),
                     registry=probe_registry(on_unit))
    assert [t.primary_location.file for t in result.traces] == [a, b]
    assert result.diagnostics == [
        f"skipping {path}: internal error: worker killed by signal "
        f"{int(signal.SIGKILL)}" for path in (c, d)]
    assert capfd.readouterr().err == ""
    assert_nothing_left(mask)


@needs_fork
def test_unpicklable_worker_result_costs_only_its_shard(tmp_path, monkeypatch,
                                                        capfd):
    mask = os.sched_getaffinity(0)
    a, b, c, d = two_shards(tmp_path, monkeypatch)

    def on_unit(path, in_worker):
        if in_worker and path == d:
            return [ErrorTrace(checker="probe", importance=Importance.ERROR,
                               message=lambda: "found", steps=())]
        return None

    result = run_job(job_for(tmp_path, [a, b, c, d],
                             checkers=[("probe", None)]),
                     registry=probe_registry(on_unit))
    assert [t.primary_location.file for t in result.traces] == [a, b]
    assert len(result.diagnostics) == 2
    for path, diagnostic in zip((c, d), result.diagnostics):
        assert diagnostic.startswith(f"skipping {path}: internal error: ")
        assert "pickle" in diagnostic
    assert capfd.readouterr().err == ""
    assert_nothing_left(mask)


class Stop(BaseException):
    """Escapes the engine's isolation of checker crashes."""


@needs_fork
def test_worker_is_reaped_when_this_process_raises(tmp_path, monkeypatch):
    mask = os.sched_getaffinity(0)
    a, b, c, d = two_shards(tmp_path, monkeypatch)

    def on_unit(path, in_worker):
        if not in_worker:  # raise once the worker is blocked writing
            time.sleep(0.3)
            raise Stop
        # a result larger than a pipe holds
        return [ErrorTrace(checker="probe", importance=Importance.ERROR,
                           message="x" * 2 ** 20, steps=())]

    with pytest.raises(Stop):
        run_job(job_for(tmp_path, [a, b, c, d], checkers=[("probe", None)]),
                registry=probe_registry(on_unit))
    assert_nothing_left(mask)


@needs_fork
def test_killed_worker_keeps_the_exit_code(tmp_path, monkeypatch, capsys):
    mask = os.sched_getaffinity(0)
    with_cpus(monkeypatch, 2)
    a, b, c, d = [write(tmp_path, f"{name}.c", DEAD_CODE) for name in "abcd"]
    check_unit = ReachChecker.check_unit
    parent = os.getpid()

    def killing_check_unit(self, unit, services):
        if os.getpid() != parent and unit.path == d:
            kill_self()
        return check_unit(self, unit, services)

    monkeypatch.setattr(ReachChecker, "check_unit", killing_check_unit)
    code = cli.main(["check", a, b, c, d, "--checker", "reach",
                     "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert [t.primary_location.file for t in traces_from_json(out)] == [a, b]
    assert err.splitlines() == [
        f"cbugscan: skipping {path}: internal error: worker killed by "
        f"signal {int(signal.SIGKILL)}" for path in (c, d)]
    assert_nothing_left(mask)


# -- what a check imports -------------------------------------------------------------

CHECK_IN_A_FRESH_INTERPRETER = """
import glob, json, sys
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import run_job
from cbugscan.report import export_console
job = AnalysisJob(
    sources=[SourceDescriptor(p) for p in sorted(glob.glob(sys.argv[1]))],
    checkers=[(name, None)
              for name in ("automaton", "lockstat", "thread", "reach")])
text = export_console(run_job(job).traces)
print(json.dumps([text.count("ERROR ["), sorted(sys.modules)]))
"""


def test_a_console_check_loads_no_export_triage_or_cli_module():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        # -S: no site, so no installed .pth file imports anything first
        [sys.executable, "-S", "-c", CHECK_IN_A_FRESH_INTERPRETER,
         os.path.join(CORPUS_DIR, "*.c")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    errors, modules = json.loads(proc.stdout)
    assert errors > 0
    assert "cbugscan.engine" in modules
    assert not {"hashlib", "_hashlib", "xml.etree.ElementTree", "datetime",
                "fcntl", "subprocess", "argparse"} & set(modules)
