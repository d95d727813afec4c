import textwrap

import pytest

from cbugscan.checkers.automaton import (
    AutomatonChecker,
    parse_automaton_file,
    render_message,
)
from cbugscan.checkers.base import Services
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import run_job
from cbugscan.errors import ConfigError
from cbugscan.frontend import iter_tree, to_text
from cbugscan.ir import build_unit_from_text
from cbugscan.patterns import match_node

from oracles import run_automaton_on_paths

LOCK_CONFIG = """
automaton locks
states U L
start U
pattern lock "mutex_lock(%X)"
pattern unlock "mutex_unlock(%X)"
transition U lock -> L
transition L unlock -> U
error L lock "double lock of %X"
error U unlock "double unlock of %X"
error-at-exit L "lock %X held at exit"
"""


def services():
    return Services()


def run(source, config_text=LOCK_CONFIG, tmp_path=None):
    config = tmp_path / "auto.conf"
    config.write_text(config_text)
    checker = AutomatonChecker(str(config))
    unit = build_unit_from_text(textwrap.dedent(source), "t.c")
    return checker.check_unit(unit, services())


# -- config parsing ---------------------------------------------------------------

def test_parse_full_automaton():
    auto, = parse_automaton_file(LOCK_CONFIG)
    assert auto.name == "locks"
    assert auto.states == ["U", "L"]
    assert auto.start == "U"
    assert auto.pattern_names() == {"lock", "unlock"}
    assert auto.transitions[("U", "lock")] == "L"
    assert auto.errors[("L", "lock")] == "double lock of %X"
    assert auto.exit_errors["L"] == "lock %X held at exit"


def test_multiple_automata_in_one_file():
    text = LOCK_CONFIG + """
automaton irq
states on off
start on
pattern dis "irq_disable()"
transition on dis -> off
"""
    autos = parse_automaton_file(text)
    assert [a.name for a in autos] == ["locks", "irq"]


@pytest.mark.parametrize("mutation,fragment", [
    ("no_automaton", "states U L"),
    ("bad_start", "automaton a\nstates U\nstart X\npattern p \"f()\""),
    ("unknown_state", "automaton a\nstates U\nstart U\npattern p \"f()\"\n"
                      "transition U p -> Z"),
    ("unknown_pattern", "automaton a\nstates U\nstart U\n"
                        "transition U nope -> U"),
    ("dup_rule", "automaton a\nstates U\nstart U\npattern p \"f()\"\n"
                 "transition U p -> U\nerror U p \"m\""),
    ("empty", ""),
    ("garbage", "automaton a\nfrobnicate"),
])
def test_config_errors(mutation, fragment):
    with pytest.raises(ConfigError):
        parse_automaton_file(fragment)


def test_duplicate_error_at_exit_rejected():
    text = LOCK_CONFIG + 'error-at-exit L "second message %X"\n'
    with pytest.raises(ConfigError) as info:
        parse_automaton_file(text, "auto.conf")
    assert str(info.value) == (
        "auto.conf:12: duplicate rule for error-at-exit 'L'")


def test_render_message_substitutes_bindings():
    assert render_message("double lock of %X at %WHERE", {
        "X": "&m", "WHERE": "here"}) == "double lock of &m at here"
    assert render_message("no vars", {}) == "no vars"
    assert render_message("%MISSING stays", {}) == "%MISSING stays"


# -- basic detection ---------------------------------------------------------------

def test_double_lock_detected(tmp_path):
    traces = run("""
        void f() {
            mutex_lock(&m);
            mutex_lock(&m);
        }
    """, tmp_path=tmp_path)
    held_exit = [t for t in traces if "held at exit" in t.message]
    double = [t for t in traces if "double lock" in t.message]
    assert len(double) == 1
    assert double[0].message == "double lock of &m"
    assert double[0].steps[-1].location.line == 4
    assert len(held_exit) == 1  # never released afterwards


def test_double_unlock_detected(tmp_path):
    traces = run("""
        void f() {
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    assert [t.message for t in traces] == ["double unlock of &m"]


def test_balanced_usage_is_clean(tmp_path):
    traces = run("""
        void f() {
            mutex_lock(&m);
            work();
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    assert traces == []


def test_lock_held_at_exit(tmp_path):
    traces = run("""
        void f(int c) {
            mutex_lock(&m);
            if (c) return;
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    assert [t.message for t in traces] == ["lock &m held at exit"]
    # witness walks through the acquisition
    assert "mutex_lock(&m)" in traces[0].steps[0].description


def test_statement_patterns_render_as_statements(tmp_path):
    config = """
    automaton rets
    states U L
    start U
    pattern lock "mutex_lock(%X);"
    pattern unlock "mutex_unlock(%X);"
    pattern ret "return %R;"
    transition U lock -> L
    transition L unlock -> U
    error U ret "returns %R"
    error-at-exit L "lock %X held at exit"
    """
    traces = run("""
        int f(int a) {
            mutex_lock(&m);
            return a;
        }
    """, config_text=config, tmp_path=tmp_path)
    assert [t.message for t in traces] == [
        "returns a", "lock &m held at exit"]
    assert traces[1].steps[0].description == "mutex_lock(&m);"


def test_distinct_locks_tracked_independently(tmp_path):
    traces = run("""
        void f() {
            mutex_lock(&a);
            mutex_lock(&b);
            mutex_unlock(&b);
            mutex_unlock(&a);
        }
    """, tmp_path=tmp_path)
    assert traces == []


def test_instance_keyed_by_full_binding(tmp_path):
    traces = run("""
        void f() {
            mutex_lock(&dev->lock);
            mutex_lock(&dev->lock);
            mutex_unlock(&dev->lock);
        }
    """, tmp_path=tmp_path)
    assert [t.message for t in traces] == ["double lock of &dev->lock"]


def test_trace_steps_record_transitions(tmp_path):
    traces = run("""
        void f() {
            mutex_lock(&m);
            mutex_unlock(&m);
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    trace, = traces
    descriptions = [s.description for s in trace.steps]
    assert descriptions == [
        "mutex_lock(&m)",
        "mutex_unlock(&m)",
        "double unlock of &m",
    ]


def test_error_does_not_change_state(tmp_path):
    # the double lock leaves the instance locked, so the first unlock
    # balances it and each further unlock is its own error
    traces = run("""
        void f() {
            mutex_lock(&m);
            mutex_lock(&m);
            mutex_unlock(&m);
            mutex_unlock(&m);
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    messages = sorted(t.message for t in traces)
    assert messages == ["double lock of &m", "double unlock of &m",
                        "double unlock of &m"]


def test_duplicate_reports_deduplicated(tmp_path):
    # both branches reconverge; the same error location reports once
    traces = run("""
        void f(int c) {
            mutex_lock(&m);
            if (c) noop(); else noop2();
            mutex_lock(&m);
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    double = [t for t in traces if "double lock" in t.message]
    assert len(double) == 1


# -- path sensitivity (may analysis) -------------------------------------------------

def test_error_on_one_branch_reported(tmp_path):
    traces = run("""
        void f(int c) {
            if (c) mutex_lock(&m);
            mutex_lock(&m);
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    # on the c-true path this is a double lock
    assert any("double lock" in t.message for t in traces)


def test_exit_error_on_partial_release(tmp_path):
    traces = run("""
        void f(int c) {
            mutex_lock(&m);
            if (c) mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    assert [t.message for t in traces] == ["lock &m held at exit"]


# -- interprocedural ------------------------------------------------------------------

def test_lock_through_helper_mapped_to_caller_key(tmp_path):
    traces = run("""
        void grab(int *lk) {
            mutex_lock(lk);
        }
        void f() {
            grab(&m);
            grab(&m);
        }
    """, tmp_path=tmp_path)
    double = [t for t in traces if "double lock" in t.message]
    assert len(double) == 1
    assert double[0].message == "double lock of &m"


def test_balanced_across_calls_is_clean(tmp_path):
    traces = run("""
        void cycle(int *lk) {
            mutex_lock(lk);
            mutex_unlock(lk);
        }
        void f() {
            cycle(&m);
        }
    """, tmp_path=tmp_path)
    assert traces == []


def test_state_carried_out_of_callee(tmp_path):
    # the callee leaves the lock held and the caller releases it
    traces = run("""
        void g() { mutex_lock(&m); }
        void f() {
            g();
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    assert traces == []


def test_unlock_wrapper_flagged_as_standalone_entry(tmp_path):
    # every defined function is an analysis entry, so a bare unlock
    # wrapper trips the U+unlock error in its own context even though
    # f's combined sequence is balanced; exit errors stay quiet because
    # only root functions are judged at exit
    traces = run("""
        void grab(int *lk) { mutex_lock(lk); }
        void drop(int *lk) { mutex_unlock(lk); }
        void f() {
            grab(&m);
            drop(&m);
        }
    """, tmp_path=tmp_path)
    assert [t.message for t in traces] == ["double unlock of lk"]


def test_exit_errors_only_for_call_graph_roots(tmp_path):
    # grab leaves the lock held, but its callers complete the protocol;
    # only a root function (f) is judged at its exit
    traces = run("""
        void grab(int *lk) { mutex_lock(lk); }
        void f() {
            grab(&m);
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    assert traces == []


def test_root_exit_error_reported_through_call(tmp_path):
    traces = run("""
        void grab(int *lk) { mutex_lock(lk); }
        void f() {
            grab(&m);
        }
    """, tmp_path=tmp_path)
    assert [t.message for t in traces] == ["lock &m held at exit"]


def test_call_from_dead_code_does_not_make_a_caller(tmp_path):
    # f returns, or calls die, which never returns, before it calls g,
    # so nothing completes g's protocol: g is judged at its exit, as when
    # nothing calls it at all, and f reports nothing
    for f_body in ("return; g();", "return;", "die(); g();",
                   "use(die(), g());"):
        traces = run(f"""
            int m;
            void die(void) {{ for (;;) {{}} }}
            void g(void) {{ mutex_lock(&m); }}
            void f(void) {{ {f_body} }}
        """, tmp_path=tmp_path)
        assert [(t.message, t.primary_location.line) for t in traces] == [
            ("lock &m held at exit", 4)]


def test_callee_local_key_does_not_collide(tmp_path):
    # each helper locks its own local; keys are function-qualified so
    # the two instances stay distinct and no cross-talk error appears
    traces = run("""
        void one() {
            int local;
            mutex_lock(local);
            mutex_unlock(local);
        }
        void two() {
            int local;
            mutex_lock(local);
            mutex_unlock(local);
        }
        void f() {
            one();
            two();
        }
    """, tmp_path=tmp_path)
    assert traces == []


def test_callee_local_key_is_function_qualified(tmp_path):
    # the lock is helper's own local: no caller can name it, so the key
    # keeps helper's terms, qualified by its name
    traces = run("""
        void helper() { int mine; mutex_lock(mine); }
        void f() { helper(); }
    """, tmp_path=tmp_path)
    assert [t.message for t in traces] == ["lock helper::mine held at exit"]


def test_leak_in_a_file_declaring_two_mutexes_at_once(tmp_path):
    path = tmp_path / "t.c"
    path.write_text("struct mutex m, n;\n"
                    "void f(void) {\n"
                    "    mutex_lock(&m);\n"
                    "    mutex_lock(&n);\n"
                    "    mutex_unlock(&n);\n"
                    "}\n")
    result = run_job(AnalysisJob(sources=[SourceDescriptor(str(path))],
                                 checkers=[("automaton", None)]))
    assert result.diagnostics == []
    assert [(t.message, t.primary_location.line) for t in result.traces] == [
        ("lock &m held at exit", 6)]


def test_recursive_function_terminates(tmp_path):
    traces = run("""
        void f(int n) {
            mutex_lock(&m);
            if (n) f(n - 1);
            mutex_unlock(&m);
        }
    """, tmp_path=tmp_path)
    # recursion re-locks &m before the outer unlock: a real double lock
    assert any("double lock" in t.message for t in traces)


# a and b call each other, and only a locks
CYCLE = ("void a(int c) { mutex_lock(&m); if (c) b(c - 1); }\n"
         "void b(int c) { if (c) a(c); }\n")
SELF = "void f(int n) { mutex_lock(&m); if (n) f(n - 1); }\n"


@pytest.mark.parametrize("source, exits", [
    # no caller outside the cycle completes its protocol
    (CYCLE, [(1, 50), (2, 30)]),
    (CYCLE + "void f(void) { a(1); }\n", [(3, 22)]),
    # f3 returns before its call to f1, so that call closes no cycle
    # with f1's call to f3: nothing calls f1, which is judged at its exit
    ("void f1(void) { mutex_lock(&m); f3(); }\n"
     "void f3(void) { for (;;) { return; } f1(); }\n"
     "void f0(void) { f3(); }\n", [(1, 39)]),
    (SELF, [(1, 50)]),
    (SELF + "void g(void) { f(1); }\n", [(2, 22)]),
], ids=["closed cycle", "entered cycle", "dead call", "self-call",
        "entered self-call"])
def test_exits_judged_where_no_call_enters_the_component(tmp_path, source,
                                                         exits):
    traces = run(source, tmp_path=tmp_path)
    assert [(t.primary_location.line, t.primary_location.column)
            for t in traces if t.message == "lock &m held at exit"] == exits


PAIR_CONFIG = """
automaton pairs
states U L
start U
pattern acquire "acquire(%A, %B)"
pattern release "release(%A, %B)"
transition U acquire -> L
transition L release -> U
error L acquire "double acquire of pair %A %B"
error U release "double release of pair %A %B"
error-at-exit L "pair %A %B held at exit"
"""


def test_two_metavariables_under_one_object(tmp_path):
    # a key of two texts: a call that passes one object under two names
    # merges them, whichever order the formals bind it in, beside a
    # callee local and across a recursive call r(p, p)
    traces = run("""
        void take(struct s *p, struct s *q) {
            acquire(p, q);
        }
        void swapped(struct s *p, struct s *q) {
            acquire(q, p);
            release(p, q);
            release(q, p);
        }
        void mixed(struct s *p, struct s *q) {
            struct s mine;
            acquire(p, &mine);
            acquire(q, &mine);
        }
        void r(struct s *p, struct s *q, int c) {
            acquire(p, q);
            if (c) r(p, p, c - 1);
            release(q, p);
        }
        void root(void) {
            take(&a, &a);
            swapped(&b, &b);
            swapped(&g, &h);
            mixed(&c, &c);
            r(&d, &e, 1);
        }
    """, PAIR_CONFIG, tmp_path)
    assert [(t.message, [str(s.location) for s in t.steps])
            for t in traces] == [
        ("double release of pair q p", ["t.c:6:5", "t.c:7:5", "t.c:8:5"]),
        ("double acquire of pair p p", ["t.c:16:5", "t.c:16:5"]),
        ("double release of pair p p", ["t.c:16:5", "t.c:18:5", "t.c:18:5"]),
        ("double release of pair &b &b", ["t.c:6:5", "t.c:7:5", "t.c:8:5"]),
        ("double release of pair &h &g", ["t.c:6:5", "t.c:7:5", "t.c:8:5"]),
        ("double acquire of pair &c mixed::&mine", ["t.c:12:5", "t.c:13:5"]),
        ("double acquire of pair &d &d", ["t.c:16:5", "t.c:16:5"]),
        ("double release of pair &d &d", ["t.c:16:5", "t.c:18:5", "t.c:18:5"]),
        ("pair &a &a held at exit", ["t.c:3:5", "t.c:26:1"]),
        ("pair &c mixed::&mine held at exit", ["t.c:12:5", "t.c:26:1"]),
    ]


# -- fixpoint equals all-paths oracle (loop-free, call-free) -------------------------

ORACLE_FIXTURES = [
    """
    void f() {
        mutex_lock(&m);
        mutex_lock(&m);
    }
    """,
    """
    void f(int c) {
        if (c) mutex_lock(&m);
        mutex_lock(&m);
    }
    """,
    """
    void f(int c) {
        mutex_lock(&m);
        if (c) mutex_unlock(&m);
        mutex_unlock(&m);
    }
    """,
    """
    void f(int a, int b) {
        if (a) mutex_lock(&m); else mutex_lock(&n);
        if (b) mutex_unlock(&m); else mutex_unlock(&n);
    }
    """,
    """
    void f(int c) {
        mutex_lock(&m);
        if (c) { mutex_unlock(&m); return; }
        mutex_unlock(&m);
    }
    """,
    """
    void f(int a) {
        mutex_unlock(&m);
        if (a) mutex_lock(&m);
    }
    """,
]


@pytest.mark.parametrize("source", ORACLE_FIXTURES)
def test_fixpoint_matches_all_paths_oracle(source, tmp_path):
    config = tmp_path / "auto.conf"
    config.write_text(LOCK_CONFIG)
    checker = AutomatonChecker(str(config))
    automaton, = checker.automata
    unit = build_unit_from_text(textwrap.dedent(source), "t.c")
    cfg = unit.cfgs["f"]
    assert len(cfg.nodes) <= 12

    def node_events(node):
        events = []
        for subnode in iter_tree(node.ast_ref):
            for pattern in automaton.patterns:
                bindings = match_node(pattern, subnode)
                if bindings is not None:
                    texts = {n: to_text(e) for n, e in bindings.items()}
                    events.append((pattern.name,
                                   tuple(sorted(texts.values())), texts))
        return events

    expected = run_automaton_on_paths(automaton, cfg, node_events)
    traces = checker.check_unit(unit, services())
    actual = {(str(t.steps[-1].location), t.message) for t in traces}
    assert actual == expected
