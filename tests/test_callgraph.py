import itertools
import re
import textwrap

from hypothesis import given, settings, strategies as st

from cbugscan.frontend import NodeKind, parse_fragment
from cbugscan.ir import build_unit_from_text
from cbugscan.ir.callgraph import INDIRECT, strongly_connected_components

from oracles import collect_calls


def unit_of(source):
    return build_unit_from_text(textwrap.dedent(source), "t.c")


def edges_of(unit, caller):
    return [e for e in unit.call_graph.edges if e.caller == caller]


def callees(unit, caller):
    return [e.callee for e in edges_of(unit, caller)]


def test_direct_call_edges():
    unit = unit_of("""
        void callee() {}
        void caller() { callee(); callee(); }
    """)
    assert callees(unit, "caller") == ["callee", "callee"]
    edges = edges_of(unit, "caller")
    assert all(not e.external for e in edges)


def test_external_call_marked():
    unit = unit_of("void f() { printf(); }")
    assert callees(unit, "f") == ["printf"]
    edge, = edges_of(unit, "f")
    assert edge.external


def test_indirect_call_sentinel():
    unit = unit_of("void f(int *fp) { (*fp)(); }")
    edge, = edges_of(unit, "f")
    assert edge.callee == INDIRECT
    assert edge.external


def test_callers_of_inverse_index():
    unit = unit_of("""
        void shared() {}
        void a() { shared(); }
        void b() { shared(); }
    """)
    edges = [e for e in unit.call_graph.edges if e.callee == "shared"]
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


def test_for_step_calls_follow_the_body():
    # edges follow the CFG, where a `for` step comes after the body
    unit = unit_of("void f(int i) { for (i = a(); b(); c()) d(); }")
    assert callees(unit, "f") == ["a", "b", "d", "c"]


CALLEES = ["f0", "f1", "g", "h", "(*fp)"]

expressions = st.recursive(
    st.sampled_from(["x", "1"]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(CALLEES), st.lists(inner, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"),
        st.tuples(inner, inner).map(" + ".join)),
    max_leaves=8)

# "@" marks a label; each gets a name of its own before parsing
statements = st.recursive(
    st.one_of(expressions.map("x = {};".format),
              expressions.map("g({});".format),
              expressions.map("int y = {};".format),
              expressions.map("return {};".format)),
    lambda inner: st.one_of(
        st.tuples(expressions, inner).map(lambda t: "if ({}) {}".format(*t)),
        st.tuples(expressions, inner, inner).map(
            lambda t: "if ({}) {} else {}".format(*t)),
        st.tuples(expressions, inner).map(lambda t: "while ({}) {}".format(*t)),
        st.tuples(expressions, expressions, expressions, inner).map(
            lambda t: "for (x = {}; {}; x = {}) {}".format(*t)),
        st.lists(inner, max_size=3).map(lambda body: f"{{ {' '.join(body)} }}"),
        inner.map("@: {}".format)),
    max_leaves=6)


@settings(deadline=None)
@given(st.lists(st.lists(statements, max_size=4), min_size=1, max_size=2))
def test_call_sites_agree_with_a_walk_of_the_trees(bodies):
    labels = itertools.count()
    unit = unit_of(re.sub("@", lambda _: f"L{next(labels)}", "\n".join(
        f"int f{i}(int x, int *fp) {{ {' '.join(body)} }}"
        for i, body in enumerate(bodies))))
    for name, cfg in unit.cfgs.items():
        edges = edges_of(unit, name)
        for node_id, node in cfg.nodes.items():
            tree = node.ast_ref
            expected = [] if tree is None else collect_calls(tree)
            assert [e.call_node for e in edges if e.node_id == node_id] \
                == expected  # evaluation order included
        assert [e.node_id for e in edges] == sorted(e.node_id for e in edges)
        assert sorted(id(e.call_node) for e in edges) == sorted(
            id(call) for call in collect_calls(unit.functions[name]))
        for edge in edges:
            target = edge.call_node.children[0]
            callee = target.text if target.kind is NodeKind.IDENTIFIER \
                else INDIRECT
            assert (edge.callee, edge.external) == (
                callee, callee not in unit.cfgs)


def test_no_calls_no_edges():
    unit = unit_of("void f(int a) { a = a + 1; }")
    assert callees(unit, "f") == []


def test_recursive_call():
    unit = unit_of("void f(int n) { if (n) f(n - 1); }")
    edge, = edges_of(unit, "f")
    assert edge.caller == "f" and edge.callee == "f"
    assert not edge.external


def test_call_nodes_carry_ast_reference():
    unit = unit_of("void f() { g(1); }")
    edge, = edges_of(unit, "f")
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
    components = strongly_connected_components(calls)
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
    components = strongly_connected_components(
        {name: callees(unit, name) for name in unit.functions})
    assert components == [[f"f{i}"] for i in range(n, -1, -1)]
