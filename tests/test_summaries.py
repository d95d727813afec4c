"""Function summaries against call-string cloning, and what summaries
reach that the old depth-bounded cloning did not."""

import glob
import os
import pathlib
import runpy
import textwrap
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cbugscan.checkers import automaton, builtin_registry
from cbugscan.checkers.base import Services
from cbugscan.cli import main
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import run_job
from cbugscan.frontend import AstNode, parse_fragment
from cbugscan.frontend.ast_nodes import to_path
from cbugscan.ir import build_unit_from_text
from cbugscan.report import export_json, normalize

from oracles import (
    cloned_automaton_traces,
    cloned_thread_traces,
    frame_storage,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


# -- what a summary holds ---------------------------------------------------------

def holds_a_tree(value) -> bool:
    """Whether an `AstNode` is reachable from `value` through containers,
    named tuples, dataclasses and slotted objects."""
    pending, seen = [value], set()
    while pending:
        item = pending.pop()
        if isinstance(item, (str, int, type(None))) or id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, AstNode):
            return True
        if isinstance(item, dict):
            pending += [*item.keys(), *item.values()]
        elif isinstance(item, (tuple, list, set, frozenset)):
            pending += item
        elif hasattr(item, "__dict__"):
            pending += vars(item).values()
        else:
            pending += [getattr(item, slot) for slot in type(item).__slots__]
    return False


def test_no_automaton_summary_holds_a_syntax_tree(monkeypatch):
    # summaries are plain data: keys, texts, states, witnesses and error
    # templates, over the corpus and over programs that merge keys; so are
    # the binding texts' access paths and the call sites' records
    solved, tables, paths = [], [], 0

    def solve(graph, summarize, *args):
        tables.append(summarize.__self__)
        summaries, applied = real(graph, summarize, *args)
        solved.append(summaries)
        return summaries, applied

    real = automaton.solve_summaries
    monkeypatch.setattr(automaton, "solve_summaries", solve)
    corpus = sorted(glob.glob(os.path.join(ROOT, "tests", "corpus", "*.c")))
    probes = runpy.run_path(
        os.path.join(ROOT, "scripts", "compare_reports.py"))["ALIAS_PROBES"]
    sources = [(path, pathlib.Path(path).read_text()) for path in corpus]
    for name, text in sources + list(probes.items()):
        solved.clear()
        AUTOMATON.check_unit(build_unit_from_text(text, name), services())
        assert solved, name
        for summaries in solved:
            for key, summary in summaries.items():
                assert not holds_a_tree(summary), (name, key)
        for table in tables:
            assert not holds_a_tree(table.paths), name
            assert not holds_a_tree(table.graph.calls), name
            paths += len(table.paths)
        tables.clear()
        # each passes one object under two names; the pointer-valued
        # local's probe passes it to a local, not to two formals, and the
        # `deref_` and `fold_` probes pass an address to one formal
        if (name in probes and name != "pointer_local.c"
                and not name.startswith(("deref_", "fold_"))):
            assert any(variant for summaries in solved
                       for _, variant in summaries), name
    assert paths  # not vacuous


# -- a callee's own storage dies at its return ------------------------------------

PROBES = runpy.run_path(os.path.join(ROOT, "scripts", "compare_reports.py"))


@pytest.mark.parametrize("probes, name, findings", [
    # each call of g locks its own x: no double lock, and g's leak
    ("CALL_PROBES", "own_local.c", [("lock &x held at exit", "1:48")]),
    # reported once, in g's terms
    ("CALL_PROBES", "own_twice.c", [("double unlock of &x", "1:23")]),
    # h's p is g's x, which dies at g's return
    ("CALL_PROBES", "own_through.c", [("lock &x held at exit", "2:39")]),
    # the address of a formal is g's own storage, not &&m
    ("CALL_PROBES", "own_formal.c", [("lock &p held at exit", "1:43")]),
    # a pointer-valued local keeps the callee's terms
    ("ALIAS_PROBES", "pointer_local.c", [("double unlock of &m", "2:23"),
                                          ("lock g::q held at exit", "2:41")]),
])
def test_a_callees_own_storage_dies_at_its_return(probes, name, findings):
    traces = check(AUTOMATON, PROBES[probes][name])
    assert [(t.message, f"{t.primary_location.line}:"
             f"{t.primary_location.column}") for t in traces] == findings


@pytest.mark.parametrize("name, findings", [
    # h's *p is g's x, not g::*&x, and x is g's own storage
    ("deref_local.c", [("lock x held at exit", "2:30")]),
    # h's *p is g's q, which is f's &m, not *&&m
    ("deref_balanced.c", []),
    ("deref_twice.c", [("double lock of &m", "1:28"),
                       ("lock &m held at exit", "3:30")]),
])
def test_a_dereferenced_address_is_the_object_itself(name, findings):
    traces = check(AUTOMATON, PROBES["ALIAS_PROBES"][name])
    assert [(t.message, f"{t.primary_location.line}:"
             f"{t.primary_location.column}") for t in traces] == findings


@pytest.mark.parametrize("name, findings", [
    # `*&m` written in the source is m
    ("fold_deref.c", []),
    # `(&x)->m` is x.m, written so or made by filling h's hole with &a
    ("fold_arrow.c", []),
    ("fold_call.c", []),
    # h's `&p->m` is g's `&x.m`, its own storage, which dies at its return
    ("fold_local.c", [("lock &x.m held at exit", "2:35")]),
    # `(&x)[0]` is x, written so or made by filling h's hole with &m
    ("fold_index.c", []),
    ("fold_index_call.c", []),
    # `&*p` is p, `(*p).m` is p->m and `&a[0]` is a, written so or made
    # by filling h's hole
    ("fold_addr_deref.c", []),
    ("fold_addr_deref_call.c", []),
    ("fold_deref_field.c", []),
    ("fold_deref_field_call.c", []),
    ("fold_addr_index.c", []),
    ("fold_addr_index_call.c", []),
])
def test_an_address_dereferenced_is_folded_wherever_a_key_is_made(
        name, findings):
    traces = check(AUTOMATON, PROBES["ALIAS_PROBES"][name])
    assert [(t.message, f"{t.primary_location.line}:"
             f"{t.primary_location.column}") for t in traces] == findings


@pytest.mark.parametrize("text, dies", [
    ("&x", True), ("&q", True), ("x", True), ("x.f", True), ("x.f.g", True),
    ("&x.f", True), ("a[i]", True), ("a[i].f", True), ("&a[i + 1]", True),
    # `*&x` is x; an element of the local array a, whatever its index
    ("*&x", True), ("a[b[0]]", True),
    # through a pointer, or not a local
    ("q", False), ("*q", False), ("q->f", False), ("q[i]", False),
    ("&q[i]", False), ("x[i]", False), ("x.f[i]", False),
    ("g", False), ("&g", False), ("x + 1", False),
    # a `callee::text` has no path
    ("h::x", False),
])
def test_own_storage_of_a_frame(text, dies):
    declared = {"x": "struct mutex", "q": "struct mutex *", "a": "int[4]",
                "b": "int[2]", "i": "int"}
    tree = None if "::" in text else parse_fragment(text, file="t.c")
    assert automaton._own_storage(tree and to_path(tree), declared) is dies
    if tree is not None:
        assert frame_storage(tree, declared) is dies


# -- a call applies its callee's own summary --------------------------------------

def test_a_call_applies_the_summary_its_callee_was_solved_to(monkeypatch):
    # no summary is copied per call: each one `_apply` applies is a value
    # of its run's `solved`, also where a formal maps a key to other texts;
    # recursive programs are left out, since a component's iteration
    # applies summaries that it then replaces
    runs, applied = [], []
    real_init, real_apply = automaton._Summaries.__init__, automaton._apply

    def init(self, *args):
        runs.append(self)
        real_init(self, *args)

    def apply(call, *args):
        applied.append((runs[-1], call))
        return real_apply(call, *args)

    monkeypatch.setattr(automaton._Summaries, "__init__", init)
    monkeypatch.setattr(automaton, "_apply", apply)
    checked = []
    for probes in ("CALL_PROBES", "ALIAS_PROBES"):
        for name, text in PROBES[probes].items():
            unit = build_unit_from_text(text, name)
            if not unit.call_graph.recursive:
                AUTOMATON.check_unit(unit, services())
                checked.append(name)
    assert len(checked) > 20 and applied
    for run, call in applied:
        assert any(call.summary is summary
                   for summary in run.solved.values()), call
    # not vacuous: some calls read a callee key as another caller key
    assert any(key != outer for _, call in applied
               for key, outer in call.keys.items())
