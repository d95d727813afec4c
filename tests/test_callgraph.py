import textwrap

from hypothesis import given, strategies as st

from cbugscan.frontend import parse_fragment
from cbugscan.ir import build_unit_from_text
from cbugscan.ir.callgraph import (
    INDIRECT,
    collect_calls,
    strongly_connected_components,
)


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


def reachable(calls, start):
    seen, todo = {start}, [start]
    while todo:
        for callee in calls[todo.pop()]:
            if callee not in seen:
                seen.add(callee)
                todo.append(callee)
    return seen


@given(st.integers(min_value=1, max_value=7).flatmap(lambda n: st.lists(
    st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3),
    min_size=n, max_size=n)))
def test_components_are_mutual_reachability_callees_first(targets):
    calls = {f"f{i}": [f"f{t}" for t in ts] for i, ts in enumerate(targets)}
    unit = unit_of("\n".join(
        f"void {name}() {{ {' '.join(f'{c}();' for c in callees)} ext(); }}"
        for name, callees in calls.items()))
    components = strongly_connected_components(unit.call_graph, list(calls))
    assert sorted(name for scc in components for name in scc) == sorted(calls)
    reach = {name: reachable(calls, name) for name in calls}
    position = {name: i for i, scc in enumerate(components) for name in scc}
    for a in calls:
        for b in calls:
            mutual = b in reach[a] and a in reach[b]
            assert (position[a] == position[b]) == (a == b or mutual)
            if b in reach[a] and not mutual:
                assert position[b] < position[a]  # callees come first
    for scc in components:
        assert scc == sorted(scc, key=list(calls).index)


def test_long_call_chain_needs_no_recursion():
    n = 3000
    unit = unit_of("\n".join(f"void f{i}() {{ f{i + 1}(); }}" for i in range(n))
                   + f"\nvoid f{n}() {{ }}")
    components = strongly_connected_components(unit.call_graph,
                                               list(unit.functions))
    assert components == [[f"f{i}"] for i in range(n, -1, -1)]
