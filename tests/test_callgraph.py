import textwrap

from cbugscan.frontend import parse_fragment
from cbugscan.ir import build_unit_from_text
from cbugscan.ir.callgraph import INDIRECT, collect_calls


def unit_of(source):
    return build_unit_from_text(textwrap.dedent(source), "t.c")


def callees(unit, caller):
    return [e.callee for e in unit.call_graph.by_caller.get(caller, [])]


def test_direct_call_edges():
    unit = unit_of("""
        void callee() {}
        void caller() { callee(); callee(); }
    """)
    assert callees(unit, "caller") == ["callee", "callee"]
    edges = unit.call_graph.by_caller["caller"]
    assert all(not e.external for e in edges)


def test_external_call_marked():
    unit = unit_of("void f() { printf(); }")
    assert callees(unit, "f") == ["printf"]
    edge, = unit.call_graph.by_caller["f"]
    assert edge.external


def test_indirect_call_sentinel():
    unit = unit_of("void f(int *fp) { (*fp)(); }")
    edge, = unit.call_graph.by_caller["f"]
    assert edge.callee == INDIRECT
    assert edge.external


def test_callers_of_inverse_index():
    unit = unit_of("""
        void shared() {}
        void a() { shared(); }
        void b() { shared(); }
    """)
    edges = unit.call_graph.by_callee["shared"]
    assert [e.caller for e in edges] == ["a", "b"]


def test_calls_collected_inner_first():
    # nested call arguments are discovered before the enclosing call
    calls = collect_calls(parse_fragment("outer(inner(x), mid(y))", file="t.c"))
    texts = [c.children[0].text for c in calls]
    assert texts == ["inner", "mid", "outer"]


def test_call_in_condition_and_initializer():
    unit = unit_of("""
        void f() {
            int x = make();
            if (check(x)) use(x);
            while (more()) step();
        }
    """)
    assert callees(unit, "f") == [
        "make", "check", "use", "more", "step"]


def test_no_calls_no_edges():
    unit = unit_of("void f(int a) { a = a + 1; }")
    assert callees(unit, "f") == []


def test_recursive_call():
    unit = unit_of("void f(int n) { if (n) f(n - 1); }")
    edge, = unit.call_graph.by_caller["f"]
    assert edge.caller == "f" and edge.callee == "f"
    assert not edge.external


def test_call_nodes_carry_ast_reference():
    unit = unit_of("void f() { g(1); }")
    edge, = unit.call_graph.by_caller["f"]
    assert edge.call_node.children[0].text == "g"
    assert edge.call_node.location.line == 1
