import importlib.resources
import os
import runpy
import textwrap
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbugscan.checkers import builtin_registry
from cbugscan.checkers.base import Services
from cbugscan.checkers.threads import (
    DEFAULT_SPAWN,
    ThreadChecker,
    elementary_cycles,
    find_thread_entries,
    lock_key,
    lock_order_graph,
    lock_summaries,
    parse_thread_config,
    spawned_entry_name,
)
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import run_job
from cbugscan.errors import ConfigError
from cbugscan.frontend import iter_tree
from cbugscan.ir import build_unit_from_text
from cbugscan.patterns import compile_pattern, match_node
from cbugscan.report import Importance
from cbugscan.traverse import build_supergraph

from oracles import (
    all_cycles,
    build_dependency_graph,
    combine_graphs,
    unpruned_cycles,
)

PAIR_CONFIG = 'lock "mtx_lock(%X)" unlock "mtx_unlock(%X)"\n'
PROBES = runpy.run_path(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts", "compare_reports.py"))


def unit(source):
    return build_unit_from_text(textwrap.dedent(source), "t.c")


def services(diagnostics=None):
    sink = diagnostics.append if diagnostics is not None else lambda _m: None
    return Services(report_diagnostic=sink)


def run(source, tmp_path, config_text=PAIR_CONFIG, diagnostics=None):
    config = tmp_path / "thread.conf"
    config.write_text(config_text)
    checker = ThreadChecker(str(config))
    return checker.check_unit(unit(source), services(diagnostics))


# -- config parsing ---------------------------------------------------------------

def test_parse_full_config():
    config = parse_thread_config(
        'spawn "start_task(%F)"\n'
        'entry main\n'
        '# comment\n'
        'lock "mtx_lock(%X)" unlock "mtx_unlock(%X)"\n'
        'lock "spin_lock(%X)"\n'
        'unlock "spin_unlock(%X)"\n'
        'max-cycles 9\n'
    )
    assert len(config.spawns) == 1
    assert config.entries == ["main"]
    assert len(config.locks) == 2
    assert len(config.unlocks) == 2
    assert config.max_cycles == 9


def test_default_spawn_pattern_when_unset():
    config = parse_thread_config(PAIR_CONFIG)
    assert len(config.spawns) == 1
    assert config.spawns[0].template == DEFAULT_SPAWN


def test_spawn_template_must_bind_function_metavar():
    with pytest.raises(ConfigError) as info:
        parse_thread_config('spawn "start_task(%A, %B)"')
    assert "%F" in str(info.value)


@pytest.mark.parametrize("text", [
    "spawn",
    'lock "a(%X)" with "b(%X)"',
    "max-cycles soon",
    'entry "unterminated',
    "mystery directive",
])
def test_bad_configs(text):
    with pytest.raises(ConfigError):
        parse_thread_config(text)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_cycles_below_one_rejected(value):
    # a cap below one would silently turn the checker off
    with pytest.raises(ConfigError) as info:
        parse_thread_config(f"{PAIR_CONFIG}max-cycles {value}\n", "t.conf")
    assert str(info.value) == "t.conf:2: max-cycles must be at least 1"


def test_checker_requires_config_file(tmp_path):
    with pytest.raises(ConfigError):
        ThreadChecker(None)
    with pytest.raises(ConfigError):
        ThreadChecker(str(tmp_path / "missing.conf"))


# -- lock identity ----------------------------------------------------------------

def find_call(source_unit, pattern):
    for node in iter_tree(source_unit.ast):
        bindings = match_node(pattern, node)
        if bindings is not None:
            return node, bindings
    raise AssertionError("pattern not found")


@pytest.mark.parametrize("call, key", [
    ("mtx_lock(&m)", "m"),
    ("mtx_lock(m)", "m"),
    ("mtx_lock(&ctx->mux)", "ctx->mux"),
    ("mtx_lock(table[2])", "table[2]"),
])
def test_lock_key_strips_one_address_of(call, key):
    pattern = compile_pattern("mtx_lock(%X)")
    u = unit(f"void f(void) {{ {call}; }}")
    node, bindings = find_call(u, pattern)
    assert lock_key(pattern, bindings, node) == key


def test_lock_key_without_metavar_is_node_text():
    pattern = compile_pattern("grab_global()")
    u = unit("void f(void) { grab_global(); }")
    node, bindings = find_call(u, pattern)
    assert lock_key(pattern, bindings, node) == "grab_global()"


@pytest.mark.parametrize("source, name", [
    ("void w(void) {} void f(void) { pthread_create(&t, 0, w, 0); }", "w"),
    ("void w(void) {} void f(void) { pthread_create(&t, 0, &w, 0); }", "w"),
])
def test_spawned_entry_name_accepts_plain_and_address(source, name):
    pattern = compile_pattern(DEFAULT_SPAWN)
    u = unit(source)
    _node, bindings = find_call(u, pattern)
    assert spawned_entry_name(bindings["F"]) == name


def test_spawned_entry_name_rejects_computed_target():
    pattern = compile_pattern(DEFAULT_SPAWN)
    u = unit("void f(void) { pthread_create(&t, 0, table[1], 0); }")
    _node, bindings = find_call(u, pattern)
    assert spawned_entry_name(bindings["F"]) is None


# -- entry discovery --------------------------------------------------------------

def test_entries_from_spawn_matches():
    u = unit("""
        void worker(void) { }
        void f(void) {
            pthread_create(&t, 0, worker, 0);
        }
    """)
    config = parse_thread_config("")
    assert find_thread_entries(u, config, services()) == ["worker"]


def test_spawn_at_file_scope_starts_an_entry():
    u = unit("""
        void worker(void) { }
        int t = pthread_create(0, 0, worker, 0);
        void f(void) { }
    """)
    config = parse_thread_config("")
    assert find_thread_entries(u, config, services()) == ["worker"]


def test_spawn_of_undefined_function_is_ignored():
    u = unit("void f(void) { pthread_create(&t, 0, external_fn, 0); }")
    config = parse_thread_config("")
    assert find_thread_entries(u, config, services()) == ["f"]


def test_configured_entries_and_dedup():
    u = unit("""
        void worker(void) { }
        void f(void) { pthread_create(&t, 0, worker, 0); }
    """)
    config = parse_thread_config("entry worker\nentry f\n")
    assert find_thread_entries(u, config, services()) == ["worker", "f"]


def test_unknown_configured_entry_reports_diagnostic_and_skips():
    u = unit("void f(void) { }")
    config = parse_thread_config("entry ghost\n")
    diagnostics = []
    entries = find_thread_entries(u, config, services(diagnostics))
    assert entries == ["f"]  # nothing left, falls back to every function
    assert diagnostics == ["t.c: thread entry 'ghost' is not defined here; skipped"]


def test_no_spawns_no_entries_means_every_function():
    u = unit("void a(void) { } void b(void) { }")
    config = parse_thread_config("")
    assert find_thread_entries(u, config, services()) == ["a", "b"]


# -- the lock-order graph ----------------------------------------------------------

def summaries_for(u, config):
    """The unit's lock summaries and the solver's record of applied calls."""
    return lock_summaries(build_supergraph(u),
                          config.node_events(u, match_node, lock_key))


def graph_for(source, entry="f", config_text=PAIR_CONFIG):
    config = parse_thread_config(config_text)
    return lock_order_graph([entry], *summaries_for(unit(source), config))


def test_nested_acquisition_records_edge():
    edges = graph_for("""
        void f(void) {
            mtx_lock(&a);
            mtx_lock(&b);
            mtx_unlock(&b);
            mtx_unlock(&a);
        }
    """)
    assert set(edges) == {("a", "b")}
    witness = edges[("a", "b")]
    assert witness.entry == "f"
    assert witness.first_location.line == 3
    assert witness.second_location.line == 4


def test_unlock_releases_before_next_acquisition():
    edges = graph_for("""
        void f(void) {
            mtx_lock(&a);
            mtx_unlock(&a);
            mtx_lock(&b);
            mtx_unlock(&b);
        }
    """)
    assert edges == {}


def test_reacquiring_same_lock_is_not_an_edge():
    edges = graph_for("""
        void f(void) {
            mtx_lock(&a);
            mtx_lock(&a);
            mtx_unlock(&a);
        }
    """)
    assert edges == {}


def test_branch_held_lock_still_orders():
    # may-hold: the edge exists even though only one path holds a.
    edges = graph_for("""
        void f(int c) {
            if (c) {
                mtx_lock(&a);
            }
            mtx_lock(&b);
            mtx_unlock(&b);
            mtx_unlock(&a);
        }
    """)
    assert set(edges) == {("a", "b")}


def test_interprocedural_ordering_through_call():
    edges = graph_for("""
        void helper(void) {
            mtx_lock(&inner);
            mtx_unlock(&inner);
        }
        void f(void) {
            mtx_lock(&outer);
            helper();
            mtx_unlock(&outer);
        }
    """)
    assert set(edges) == {("outer", "inner")}
    witness = edges[("outer", "inner")]
    assert witness.entry == "f"
    assert witness.first_location.line == 7
    assert witness.second_location.line == 3


def test_loop_converges_with_single_witness():
    edges = graph_for("""
        void f(int c) {
            while (c) {
                mtx_lock(&a);
                mtx_lock(&b);
                mtx_unlock(&b);
                mtx_unlock(&a);
            }
        }
    """)
    assert set(edges) == {("a", "b")}
    witness = edges[("a", "b")]
    assert (witness.first_location.line, witness.second_location.line) == (4, 5)


def test_distinct_sites_keep_the_least_witness():
    edges = graph_for("""
        void f(void) {
            mtx_lock(&a);
            mtx_lock(&b);
            mtx_unlock(&b);
            mtx_lock(&b);
            mtx_unlock(&b);
            mtx_unlock(&a);
        }
    """)
    assert set(edges) == {("a", "b")}
    assert edges[("a", "b")].second_location.line == 4


def test_lock_order_graph_keeps_the_least_entry():
    u = unit("""
        void h(void) {
            mtx_lock(&c);
            mtx_lock(&d);
        }
        void f(void) {
            mtx_lock(&a);
            mtx_lock(&b);
            mtx_unlock(&b);
            mtx_unlock(&a);
            h();
        }
        void g(void) {
            mtx_lock(&b);
            mtx_lock(&a);
            mtx_unlock(&a);
            mtx_unlock(&b);
            h();
        }
    """)
    graph = lock_order_graph(
        ["g", "f"], *summaries_for(u, parse_thread_config(PAIR_CONFIG)))
    assert {edge: witness.entry for edge, witness in graph.items()} == {
        ("a", "b"): "f", ("b", "a"): "g", ("c", "d"): "f"}


# programs whose thread entries, spawned or configured, are a strict subset
# of their functions; calls may go anywhere, recursion included
@st.composite
def spawning_programs(draw):
    functions = draw(st.integers(min_value=2, max_value=6))
    names = [f"f{i}" for i in range(functions)]
    entries = draw(st.lists(st.sampled_from(names), min_size=1,
                            max_size=functions - 1, unique=True))
    spawned = draw(st.lists(st.sampled_from(entries), unique=True))
    bodies = {name: [] for name in names}
    for name in spawned:
        bodies[draw(st.sampled_from(names))].append(
            f"pthread_create(&t, 0, {name}, 0);")
    lock = st.builds("mtx_lock(&{});".format, st.sampled_from("abcd"))
    statement = st.one_of(
        lock, lock,
        st.builds("mtx_unlock(&{});".format, st.sampled_from("abcd")),
        st.builds("{}();".format, st.sampled_from(names)),
        st.builds("if (c) {}();".format, st.sampled_from(names)))
    for name in names:
        bodies[name] += draw(st.lists(statement, min_size=1, max_size=8))
        bodies[name] = draw(st.permutations(bodies[name]))
    source = "\n".join(f"void {name}(void) {{ {' '.join(body)} }}"
                       for name, body in bodies.items()) + "\n"
    configured = [name for name in entries if name not in spawned]
    return source, PAIR_CONFIG + "".join(f"entry {name}\n"
                                         for name in configured)


@settings(max_examples=200, deadline=None)
@given(spawning_programs())
def test_lock_order_graph_is_the_per_entry_union_first_witness(program):
    source, config_text = program
    u = unit(source)
    config = parse_thread_config(config_text)
    entries = find_thread_entries(u, config, services())
    assert 0 < len(entries) < len(u.functions)
    summaries, applied = summaries_for(u, config)
    combined = combine_graphs([
        build_dependency_graph(entry, summaries, applied)
        for entry in entries])
    assert lock_order_graph(entries, summaries, applied) == {
        edge: witnesses[0] for edge, witnesses in combined.items()}


def chain_150():
    """f_i locks &m_i and calls f_{i+1} twice, once on p and once on &q;
    f_150 locks &m_150 and p. Every function is an entry."""
    return "\n".join(
        [f"void f{i}(int *p) {{ mutex_lock(&m{i}); f{i + 1}(p); "
         f"f{i + 1}(&q); mutex_unlock(&m{i}); }}" for i in range(150)]
        + ["void f150(int *p) { mutex_lock(&m150); mutex_lock(p); }"]) + "\n"


def test_chain_150_graph_is_fast():
    # every function is an entry, so one walk per entry would be quadratic
    u = unit(chain_150())
    config = builtin_registry().create("thread").config
    entries = find_thread_entries(u, config, services())
    assert len(entries) == 151
    summaries, applied = summaries_for(u, config)
    started = time.perf_counter()
    graph = lock_order_graph(entries, summaries, applied)
    assert time.perf_counter() - started < 0.5
    assert len(graph) == 11775


# -- cycle enumeration ------------------------------------------------------------

def as_graph(edge_set):
    return {edge: [] for edge in sorted(edge_set)}


def test_two_and_three_cycles():
    edges = {("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")}
    assert elementary_cycles(as_graph(edges)) == [("a", "b"), ("b", "c")]

    ring = {("m1", "m2"), ("m2", "m3"), ("m3", "m1")}
    assert elementary_cycles(as_graph(ring)) == [("m1", "m2", "m3")]


def test_acyclic_graph_has_no_cycles():
    edges = {("a", "b"), ("a", "c"), ("b", "c")}
    assert elementary_cycles(as_graph(edges)) == []


def test_cycle_cap_truncates():
    nodes = "abcd"
    complete = {(x, y) for x in nodes for y in nodes if x != y}
    assert len(elementary_cycles(as_graph(complete), cap=5)) == 5
    assert len(elementary_cycles(as_graph(complete), cap=10**6)) == 20


@given(st.sets(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")),
    max_size=14,
))
def test_cycles_match_permutation_oracle(edge_set):
    got = set(elementary_cycles(as_graph(edge_set), cap=10**6))
    assert got == all_cycles(edge_set)


# up to 8 locks, self-loops included
@given(st.sets(
    st.tuples(st.sampled_from("abcdefgh"), st.sampled_from("abcdefgh")),
    max_size=32,
), st.sampled_from([1, 2, 3, 1000]))
def test_cycle_order_and_cap_match_unpruned_search(edge_set, cap):
    graph = as_graph(edge_set)
    assert elementary_cycles(graph, cap) == unpruned_cycles(graph, cap)


def test_acyclic_ladder_is_fast():
    # lock i, then lock i+1 or i+2: no cycle, but Fibonacci-many paths
    names = [f"m{i:02d}" for i in range(61)]
    edges = {(a, b) for i, a in enumerate(names) for b in names[i + 1:i + 3]}
    started = time.perf_counter()
    assert elementary_cycles(as_graph(edges)) == []
    assert time.perf_counter() - started < 1.0


def test_disjoint_inverted_pairs_are_fast():
    # each start's search stays within the locks that lead back to it,
    # rather than finding its component of the whole graph anew
    names = [(f"p{i:03d}a", f"p{i:03d}b") for i in range(1000)]
    edges = {edge for a, b in names for edge in ((a, b), (b, a))}
    started = time.perf_counter()
    assert elementary_cycles(as_graph(edges), cap=10**6) == names
    assert time.perf_counter() - started < 0.5


def test_ladder_of_30_layers_is_fast(tmp_path):
    # the search from `a` leaves 2^29 ladder paths that close no cycle
    # before the ladder's own cycles start; Johnson's blocked sets leave
    # each lock once there
    source = tmp_path / "ladder.c"
    source.write_text(PROBES["ladder"](30))
    started = time.perf_counter()
    result = run_job(AnalysisJob(sources=[SourceDescriptor(str(source))],
                                 checkers=[("thread", None)]))
    assert time.perf_counter() - started < 1.0
    assert len(result.traces) == 1000
    assert result.traces[0].message == (
        "circular lock dependency: a <- l01x <- a")
    assert result.diagnostics == [
        f"{source}: thread checker stopped at max-cycles 1000; "
        f"further lock-order cycles are not reported"]


def test_two_spellings_of_one_lock_close_the_cycle():
    # `&s->mux` in f and `&(*s).mux` in g are one lock, s->mux, as where
    # both spell it `&s->mux`
    probe = PROBES["THREAD_PROBES"]["spellings.c"]
    for source in (probe, probe.replace("&(*s).mux", "&s->mux")):
        traces = builtin_registry().create("thread").check_unit(
            unit(source), services())
        assert [t.message for t in traces] == [
            "circular lock dependency: big <- s->mux <- big"]


def test_1501_lock_ring_is_one_finding(tmp_path):
    size = 1501
    functions = [
        f"void f{i}(void) {{ mutex_lock(&m{i}); mutex_lock(&m{(i + 1) % size}); "
        f"mutex_unlock(&m{(i + 1) % size}); mutex_unlock(&m{i}); }}\n"
        for i in range(size)]
    source = tmp_path / "ring.c"
    source.write_text("".join(functions))
    result = run_job(AnalysisJob(sources=[SourceDescriptor(str(source))],
                                 checkers=[("thread", None)]))
    assert result.diagnostics == []
    [trace] = result.traces
    ring = " <- ".join(f"m{i}" for i in [*range(size), 0])
    assert trace.message == f"circular lock dependency: {ring}"
    assert len(trace.steps) == 2 * size


# -- end-to-end detection ---------------------------------------------------------

def test_opposite_orders_report_a_cycle(tmp_path):
    traces = run("""
        void t1(void) {
            mtx_lock(&a);
            mtx_lock(&b);
            mtx_unlock(&b);
            mtx_unlock(&a);
        }
        void t2(void) {
            mtx_lock(&b);
            mtx_lock(&a);
            mtx_unlock(&a);
            mtx_unlock(&b);
        }
    """, tmp_path)
    assert len(traces) == 1
    trace = traces[0]
    assert trace.checker == "thread"
    assert trace.importance is Importance.ERROR
    assert trace.message == "circular lock dependency: a <- b <- a"
    assert [step.description for step in trace.steps] == [
        "a acquired (t1)",
        "b acquired while a held (t1)",
        "b acquired (t2)",
        "a acquired while b held (t2)",
    ]
    assert [step.location.line for step in trace.steps] == [3, 4, 9, 10]


def test_statement_lock_pattern_reports_the_cycle(tmp_path):
    source = tmp_path / "t.c"
    source.write_text(textwrap.dedent("""\
        void g(void) {
            big_lock();
            mutex_lock(&m);
            mutex_unlock(&m);
            big_unlock();
        }
        void h(void) {
            mutex_lock(&m);
            big_lock();
            big_unlock();
            mutex_unlock(&m);
        }
    """))
    config = tmp_path / "thread.conf"
    config.write_text('lock "mutex_lock(%X)" unlock "mutex_unlock(%X)"\n'
                      'lock "big_lock();" unlock "big_unlock();"\n')
    result = run_job(AnalysisJob(sources=[SourceDescriptor(str(source))],
                                 checkers=[("thread", str(config))]))
    assert result.diagnostics == []
    assert [t.message for t in result.traces] == [
        "circular lock dependency: big_lock(); <- m <- big_lock();"]
    assert [step.location.line for step in result.traces[0].steps] == [
        2, 3, 8, 9]


def test_metavariable_free_unlock_releases_its_lines_lock(tmp_path):
    source = tmp_path / "t.c"
    source.write_text(textwrap.dedent("""\
        void g(void) {
            big_lock();
            big_unlock();
            mutex_lock(&m);
            mutex_unlock(&m);
        }
        void h(void) {
            mutex_lock(&m);
            big_lock();
            big_unlock();
            mutex_unlock(&m);
        }
    """))
    bundled = importlib.resources.files("cbugscan.configs") / "thread.conf"
    config = tmp_path / "thread.conf"
    config.write_text(bundled.read_text()
                      + 'lock "big_lock();" unlock "big_unlock();"\n')
    result = run_job(AnalysisJob(sources=[SourceDescriptor(str(source))],
                                 checkers=[("thread", str(config))]))
    assert result.diagnostics == []
    assert result.traces == []


SPIN_ALL_CONFIG = 'lock "spin_lock(%X)" unlock "unlock_all()"\n'


@pytest.mark.parametrize("drop", ["unlock_all();", "drop();"])
def test_metavariable_free_unlock_releases_every_key_its_lock_took(
        tmp_path, drop):
    # unlock_all() names no lock; it releases whatever spin_lock took,
    # also when a callee calls it
    source = tmp_path / "t.c"
    source.write_text(textwrap.dedent(f"""\
        void drop(void) {{ unlock_all(); }}
        void g(void) {{ spin_lock(&a); {drop} mutex_lock(&m); mutex_unlock(&m); }}
        void h(void) {{ mutex_lock(&m); spin_lock(&a); {drop} mutex_unlock(&m); }}
    """))
    bundled = importlib.resources.files("cbugscan.configs") / "thread.conf"
    config = tmp_path / "thread.conf"
    config.write_text(bundled.read_text() + SPIN_ALL_CONFIG)
    result = run_job(AnalysisJob(sources=[SourceDescriptor(str(source))],
                                 checkers=[("thread", str(config))]))
    assert result.diagnostics == []
    assert result.traces == []


def test_metavariable_free_unlock_keeps_other_lines_locks(tmp_path):
    # unlock_all() releases a, which spin_lock took, but not m
    traces = run("""
        void g(void) { mutex_lock(&m); unlock_all(); spin_lock(&a); }
        void h(void) { spin_lock(&a); mutex_lock(&m); }
    """, tmp_path, config_text=PAIR_CONFIG.replace("mtx", "mutex")
        + SPIN_ALL_CONFIG)
    assert [t.message for t in traces] == [
        "circular lock dependency: a <- m <- a"]


def test_three_lock_ring_reports_one_cycle(tmp_path):
    traces = run("""
        void t1(void) {
            mtx_lock(&m1);
            mtx_lock(&m2);
            mtx_unlock(&m2);
            mtx_unlock(&m1);
        }
        void t2(void) {
            mtx_lock(&m2);
            mtx_lock(&m3);
            mtx_unlock(&m3);
            mtx_unlock(&m2);
        }
        void t3(void) {
            mtx_lock(&m3);
            mtx_lock(&m1);
            mtx_unlock(&m1);
            mtx_unlock(&m3);
        }
    """, tmp_path)
    assert len(traces) == 1
    assert traces[0].message == "circular lock dependency: m1 <- m2 <- m3 <- m1"
    assert len(traces[0].steps) == 6


def test_consistent_order_is_quiet(tmp_path):
    traces = run("""
        void t1(void) {
            mtx_lock(&a);
            mtx_lock(&b);
            mtx_unlock(&b);
            mtx_unlock(&a);
        }
        void t2(void) {
            mtx_lock(&a);
            mtx_lock(&b);
            mtx_unlock(&b);
            mtx_unlock(&a);
        }
    """, tmp_path)
    assert traces == []


def test_spawned_entries_limit_the_walk(tmp_path):
    # Only worker is an entry; f's opposite ordering is setup code that
    # never runs on a second thread, so without it there is no cycle.
    source = """
        void worker(void) {
            mtx_lock(&a);
            mtx_lock(&b);
            mtx_unlock(&b);
            mtx_unlock(&a);
        }
        void f(void) {
            pthread_create(&t, 0, worker, 0);
            mtx_lock(&b);
            mtx_lock(&a);
            mtx_unlock(&a);
            mtx_unlock(&b);
        }
    """
    assert run(source, tmp_path) == []
    with_main = PAIR_CONFIG + "entry f\n"
    traces = run(source, tmp_path, config_text=with_main)
    assert len(traces) == 1
    assert traces[0].message == "circular lock dependency: a <- b <- a"


def test_member_expression_lock_keys(tmp_path):
    traces = run("""
        void t1(void) {
            mtx_lock(&ctx->mux);
            mtx_lock(&hash_mux);
            mtx_unlock(&hash_mux);
            mtx_unlock(&ctx->mux);
        }
        void t2(void) {
            mtx_lock(&hash_mux);
            mtx_lock(&ctx->mux);
            mtx_unlock(&ctx->mux);
            mtx_unlock(&hash_mux);
        }
    """, tmp_path)
    assert len(traces) == 1
    assert traces[0].message == \
        "circular lock dependency: ctx->mux <- hash_mux <- ctx->mux"


def test_reruns_are_identical(tmp_path):
    source = """
        void t1(void) {
            mtx_lock(&a);
            mtx_lock(&b);
        }
        void t2(void) {
            mtx_lock(&b);
            mtx_lock(&a);
        }
    """
    first = run(source, tmp_path)
    second = run(source, tmp_path)
    assert [(t.message, t.steps) for t in first] == \
        [(t.message, t.steps) for t in second]


TWO_INVERSIONS = """
    void t1(void) {
        mtx_lock(&a);
        mtx_lock(&b);
        mtx_unlock(&b);
        mtx_unlock(&a);
        mtx_lock(&c);
        mtx_lock(&d);
        mtx_unlock(&d);
        mtx_unlock(&c);
    }
    void t2(void) {
        mtx_lock(&b);
        mtx_lock(&a);
        mtx_unlock(&a);
        mtx_unlock(&b);
        mtx_lock(&d);
        mtx_lock(&c);
        mtx_unlock(&c);
        mtx_unlock(&d);
    }
"""


def test_cycle_cap_reported_when_cycles_are_dropped(tmp_path):
    diagnostics = []
    traces = run(TWO_INVERSIONS, tmp_path,
                 config_text=PAIR_CONFIG + "max-cycles 1\n",
                 diagnostics=diagnostics)
    assert [t.message for t in traces] == [
        "circular lock dependency: a <- b <- a"]
    assert diagnostics == [
        "t.c: thread checker stopped at max-cycles 1; "
        "further lock-order cycles are not reported"]


def test_cycle_cap_silent_when_nothing_is_dropped(tmp_path):
    diagnostics = []
    traces = run(TWO_INVERSIONS, tmp_path,
                 config_text=PAIR_CONFIG + "max-cycles 2\n",
                 diagnostics=diagnostics)
    assert [t.message for t in traces] == [
        "circular lock dependency: a <- b <- a",
        "circular lock dependency: c <- d <- c"]
    assert diagnostics == []
