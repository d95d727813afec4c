"""Function summaries against call-string cloning, and what summaries
reach that the old depth-bounded cloning did not."""

import textwrap
import time
from collections import Counter

from hypothesis import given, settings, strategies as st

from cbugscan.checkers import builtin_registry
from cbugscan.checkers.base import Services
from cbugscan.cli import main
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import run_job
from cbugscan.ir import build_unit_from_text
from cbugscan.report import export_json, normalize

from oracles import cloned_automaton_traces, cloned_thread_traces

REGISTRY = builtin_registry()
AUTOMATON = REGISTRY.create("automaton")
THREAD = REGISTRY.create("thread")


def services(diagnostics=None):
    return Services(report_diagnostic=(diagnostics if diagnostics is not None
                                       else []).append)


# -- random acyclic programs -------------------------------------------------------

# lock arguments: the formals, two globals and the function's own local
ARGS = ["p", "q", "&g0", "&g1", "&x"]
LOCKS = ["mutex_lock", "mutex_unlock"]


@st.composite
def statements(draw, fn, functions, depth):
    """One statement of function number `fn`; calls go to later
    functions only, so the call graph is acyclic."""
    callees = list(range(fn + 1, functions))
    kinds = ["lock", "lock", "lock"]
    if callees:
        kinds += ["call", "call", "calls"]
    if depth < 2:
        kinds += ["if", "while", "forever"]
    kind = draw(st.sampled_from(kinds + ["return"]))
    if kind == "lock":
        return f"{draw(st.sampled_from(LOCKS))}({draw(st.sampled_from(ARGS))});"
    if kind in ("call", "calls"):
        calls = [
            f"f{draw(st.sampled_from(callees))}({draw(st.sampled_from(ARGS))}, "
            f"{draw(st.sampled_from(ARGS))})"
            for _ in range(1 if kind == "call" else 2)]
        return f"{calls[0]};" if kind == "call" else f"use({', '.join(calls)});"
    if kind == "return":
        return "return;"
    body = draw(blocks(fn, functions, depth + 1))
    if kind == "forever":  # returns only through a `return` in the body
        return f"for (;;) {{ {body} }}"
    condition = "c"
    if callees and draw(st.booleans()):
        condition = (f"f{draw(st.sampled_from(callees))}("
                     f"{draw(st.sampled_from(ARGS))}, {draw(st.sampled_from(ARGS))})")
    if kind == "while":
        return f"while ({condition}) {{ {body} }}"
    orelse = draw(blocks(fn, functions, depth + 1))
    return f"if ({condition}) {{ {body} }} else {{ {orelse} }}"


@st.composite
def blocks(draw, fn, functions, depth=0):
    return " ".join(draw(st.lists(statements(fn, functions, depth),
                                  max_size=4)))


@st.composite
def programs(draw):
    functions = draw(st.integers(min_value=2, max_value=5))
    return "\n".join(
        f"void f{fn}(int *p, int *q) {{ int x; {draw(blocks(fn, functions))} }}"
        for fn in range(functions)) + "\n"


def finding(trace):
    return (trace.checker, trace.importance, trace.message,
            str(trace.primary_location))


@settings(max_examples=200, deadline=None)
@given(programs())
def test_summaries_match_call_string_cloning(source):
    unit = build_unit_from_text(source, "t.c")
    found = AUTOMATON.check_unit(unit, services())
    expected = [trace for automaton in AUTOMATON.automata
                for trace in cloned_automaton_traces(automaton, unit)]
    assert Counter(map(finding, found)) == Counter(map(finding, expected))

    diagnostics, oracle_diagnostics = [], []
    threads = normalize(THREAD.check_unit(unit, services(diagnostics)))
    oracle = normalize(cloned_thread_traces(unit, THREAD.config,
                                            services(oracle_diagnostics)))
    assert export_json(threads) == export_json(oracle)
    assert diagnostics == oracle_diagnostics


# -- what the call-depth cut and the recursion cut used to hide --------------------

def check(checker, source, diagnostics=None):
    unit = build_unit_from_text(textwrap.dedent(source), "t.c")
    return normalize(checker.check_unit(unit, services(diagnostics)))


def leak_chain(depth):
    """lk0 -> lk1 -> ... -> lk{depth}, which locks &mx and returns."""
    return "\n".join(
        [f"void lk{i}(int v) {{ log(v); lk{i + 1}(v); }}" for i in range(depth)]
        + [f"void lk{depth}(int v) {{ mutex_lock(&mx); log(v); }}"])


def test_leak_nine_and_ten_calls_below_the_root_is_reported():
    for depth in (9, 10):
        trace, = check(AUTOMATON, leak_chain(depth))
        assert trace.message == "lock &mx held at exit"
        lock_step, exit_step = trace.steps
        assert (lock_step.location.line, lock_step.description) == (
            depth + 1, "mutex_lock(&mx)")
        assert exit_step.location.line == 1  # lk0's closing brace


def test_leak_through_mutual_recursion_is_reported():
    diagnostics = []
    traces = check(AUTOMATON, """
        void f(int n) {
            if (n) g(n - 1);
        }
        void g(int n) {
            mutex_lock(&m);
            f(n);
        }
        void root(void) {
            f(3);
        }
    """, diagnostics)
    assert ("lock &m held at exit", 11) in {
        (t.message, t.primary_location.line) for t in traces}
    # g -> f -> g takes &m again
    assert "double lock of &m" in {t.message for t in traces}
    assert diagnostics == []


def test_lock_order_through_mutual_recursion_is_a_cycle():
    trace, = check(THREAD, """
        void f(int n) {
            mutex_lock(&a);
            if (n) g(n);
            mutex_unlock(&a);
        }
        void g(int n) {
            mutex_lock(&b);
            f(n - 1);
            mutex_unlock(&b);
        }
    """)
    assert trace.message == "circular lock dependency: a <- b <- a"


def test_leak_beside_a_recursion_that_never_returns(tmp_path):
    # g's component has no errors and no exit; its summary still has a
    # table for every entry state, so the checker does not crash on it
    path = tmp_path / "t.c"
    path.write_text("struct mutex m; void g(void) { g(); } "
                    "void leak(void) { mutex_lock(&m); }\n")
    result = run_job(AnalysisJob(sources=[SourceDescriptor(str(path))],
                                 checkers=[("automaton", None)]))
    assert result.diagnostics == []
    assert [t.message for t in result.traces] == ["lock &m held at exit"]
    assert main(["check", str(path), "--checker", "automaton"]) == 1


def test_mutual_recursion_that_never_returns_is_quiet():
    diagnostics = []
    assert check(AUTOMATON, """
        void a(void) {
            b();
        }
        void b(void) {
            a();
        }
    """, diagnostics) == []
    assert diagnostics == []


def test_recursion_that_returns_only_at_its_bottom_completes_the_caller():
    # f returns only where c holds, so while its component is iterated
    # it does not return yet; g's lock is released by f(1) all the same
    source = ("void f(int c) { if (c) { mutex_unlock(&m); return; } f(c); }\n"
              "void g(void) { mutex_lock(&m); f(1); }\n")
    trace, = check(AUTOMATON, source)
    assert trace.message == "double unlock of &m"
    # found with f as its own entry, which starts with &m unlocked
    assert [str(step.location) for step in trace.steps] == ["t.c:1:26"]
    assert check(THREAD, source) == []


def test_recursion_through_a_growing_argument_ends():
    # each level locks the next node's lock: keys that would grow without
    # end across the recursive call keep the callee's terms instead
    traces = check(AUTOMATON, """
        void walk(struct node *p) {
            mutex_lock(&p->m);
            if (p->next) walk(p->next);
        }
        void root(struct node *head) {
            walk(head);
        }
    """)
    assert {t.message for t in traces} >= {
        "lock &head->m held at exit", "lock walk::&p->m held at exit"}


def test_one_callee_two_sites_gives_two_instances_in_root_terms():
    traces = check(AUTOMATON, """
        void take(int *p) {
            mutex_lock(p);
        }
        void root(void) {
            take(&a);
            take(&b);
        }
    """)
    assert [(t.message, [s.location.line for s in t.steps]) for t in traces] \
        == [("lock &a held at exit", [3, 8]), ("lock &b held at exit", [3, 8])]


def test_one_object_under_two_names_is_one_instance():
    # p and the global are one lock at this call: a double lock in root's
    # terms, though take alone locks two different things
    traces = check(AUTOMATON, """
        void take(int *p) {
            mutex_lock(p);
            mutex_lock(&g);
        }
        void root(void) {
            take(&g);
            mutex_unlock(&g);
        }
    """)
    assert [(t.message, t.primary_location.line) for t in traces] == [
        ("double lock of &g", 4)]


def fan_out_chain(depth=12, fan_out=3):
    """f_i calls f_{i+1} `fan_out` times; f_depth locks and returns."""
    return "\n".join(
        [f"void f{i}(int *p) {{ {f'f{i + 1}(p); ' * fan_out}}}"
         for i in range(depth)]
        + [f"void f{depth}(int *p) {{ mutex_lock(&m); }}"]) + "\n"


def test_chain_twelve_fan_out_three_is_fast(tmp_path):
    path = tmp_path / "chain.c"
    path.write_text(fan_out_chain())
    for checker in ("automaton", "thread"):
        job = AnalysisJob(sources=[SourceDescriptor(str(path))],
                          checkers=[(checker, None)])
        start = time.perf_counter()
        result = run_job(job)
        assert time.perf_counter() - start < 1.0
        assert result.diagnostics == []
    assert {t.message for t in run_job(AnalysisJob(
        sources=[SourceDescriptor(str(path))],
        checkers=[("automaton", None)])).traces} == {
            "lock &m held at exit", "double lock of &m"}


def test_one_object_under_two_names_down_a_long_chain():
    # every level passes the pair on, so each callee is summarized again
    # with p and q merged, 300 calls deep
    depth = 300
    traces = check(AUTOMATON, "\n".join(
        ["void root(void) { f0(&a, &a); }"]
        + [f"void f{i}(int *p, int *q) {{ f{i + 1}(p, q); }}"
           for i in range(depth)]
        + [f"void f{depth}(int *p, int *q) {{ mutex_lock(p); mutex_lock(q); }}"]))
    assert [t.message for t in traces] == [
        "lock &a held at exit", "double lock of &a"]


def test_one_object_under_two_names_through_recursion():
    traces = check(AUTOMATON, """
        void f(int *p, int *q) {
            mutex_lock(p);
            mutex_lock(q);
            if (c) f(q, q);
            mutex_unlock(q);
            mutex_unlock(p);
        }
        void root(void) {
            f(&a, &b);
        }
    """)
    messages = {t.message for t in traces}
    # f(q, q) locks q twice; the outer call then unlocks q a second time
    assert {"double lock of q", "double lock of &b",
            "double unlock of &b"} <= messages
    assert not any("&a" in message for message in messages)
