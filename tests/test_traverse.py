import textwrap
from collections import deque

from hypothesis import given, settings, strategies as st

from cbugscan.frontend import parse_fragment, statement_text, to_text
from cbugscan.ir import build_unit_from_text
from cbugscan.traverse import (
    build_supergraph,
    map_expression_to_caller,
)


def unit_of(source):
    return build_unit_from_text(textwrap.dedent(source), "t.c")


def function_of(graph, key):
    return graph.node_function[key[1]]


def bfs(graph):
    """Supergraph keys reachable from the entry, breadth-first."""
    order, seen, work = [], {graph.entry}, deque([graph.entry])
    while work:
        key = work.popleft()
        order.append(key)
        for succ in graph.succs[key]:
            if succ not in seen:
                seen.add(succ)
                work.append(succ)
    return order


# -- supergraph --------------------------------------------------------------------

CALLER_CALLEE = """
    void g() {
        s();
    }
    void f() {
        g();
    }
"""


def test_interprocedural_visit_order_inlines_callee():
    unit = unit_of(CALLER_CALLEE)
    graph = build_supergraph(unit, "f")
    labels = []
    for key in bfs(graph):
        fn = function_of(graph, key)
        node = graph.cfg_node(key)
        if node.id == unit.cfgs[fn].entry:
            labels.append(f"{fn}.entry")
        elif node.id == unit.cfgs[fn].exit:
            labels.append(f"{fn}.exit")
        else:
            labels.append(f"{fn}:{statement_text(node.ast_ref)}")
    assert labels == [
        "f.entry", "f:g();", "g.entry", "g:s();", "g.exit", "f.exit",
    ]


def test_callee_instance_carries_call_frame():
    unit = unit_of(CALLER_CALLEE)
    graph = build_supergraph(unit, "f")
    callee_keys = [k for k in graph.succs
                   if function_of(graph, k) == "g" and k[0]]
    assert callee_keys
    for key in callee_keys:
        frame, = key[0]
        assert frame.caller == "f"
        assert frame.callee == "g"
        assert to_text(frame.call) == "g()"


def test_two_call_sites_two_instances():
    unit = unit_of("""
        void g() { s(); }
        void f() {
            g();
            g();
        }
    """)
    graph = build_supergraph(unit, "f")
    g_entry = unit.cfgs["g"].entry
    instances = {k[0] for k in graph.succs if k[1] == g_entry}
    assert len(instances) == 2


def test_two_calls_same_statement_chain_in_order():
    unit = unit_of("""
        void a() { s1(); }
        void b() { s2(); }
        void f() { use(a(), b()); }
    """)
    graph = build_supergraph(unit, "f")
    order = bfs(graph)
    fns = [function_of(graph, k) for k in order]
    # a's instance is fully walked before b's
    assert fns.index("a") < fns.index("b")
    a_exit = (order[fns.index("a")][0], unit.cfgs["a"].exit)
    assert graph.succs[a_exit] == [(order[fns.index("b")][0],
                                    unit.cfgs["b"].entry)]


def test_recursion_descends_once_then_cuts():
    unit = unit_of("void f() { f(); }")
    graph = build_supergraph(unit, "f")
    f_entry = unit.cfgs["f"].entry
    instances = {k[0] for k in graph.succs if k[1] == f_entry}
    # the root instance plus exactly one nested expansion
    assert len(instances) == 2


def test_mutual_recursion_terminates():
    unit = unit_of("""
        void a() { b(); }
        void b() { a(); }
    """)
    graph = build_supergraph(unit, "a")
    depths = {len(k[0]) for k in graph.succs}
    assert max(depths) == 2  # a -> b -> a(cut)


def test_max_call_depth_limits_expansion():
    unit = unit_of("""
        void d() { s(); }
        void c() { d(); }
        void b() { c(); }
        void a() { b(); }
    """)
    graph = build_supergraph(unit, "a", max_call_depth=2)
    assert max(len(k[0]) for k in graph.succs) == 2
    deep = build_supergraph(unit, "a")
    assert max(len(k[0]) for k in deep.succs) == 3


def test_external_calls_not_expanded():
    unit = unit_of("void f() { printf(); }")
    graph = build_supergraph(unit, "f")
    assert all(function_of(graph, k) == "f" for k in graph.succs)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8))
def test_supergraph_always_finite(n_funcs, depth):
    lines = []
    for i in range(n_funcs):
        callee = (i + 1) % n_funcs
        lines.append(f"void fn{i}() {{ fn{callee}(); fn{i}(); }}")
    unit = unit_of("\n".join(lines))
    graph = build_supergraph(unit, "fn0", max_call_depth=depth)
    assert all(len(k[0]) <= depth for k in graph.succs)


# -- expression mapping ----------------------------------------------------------

def frame_for(unit, caller, callee):
    graph = build_supergraph(unit, caller)
    for key in graph.succs:
        if key[0] and key[0][-1].callee == callee:
            return key[0][-1]
    raise AssertionError("no frame found")


MAPPING_UNIT = """
    int shared;
    void callee(int *p, int n) {
        int tmp;
        tmp = n;
    }
    void caller() {
        callee(&dev->lock, 5);
    }
"""


def test_map_formal_to_actual():
    unit = unit_of(MAPPING_UNIT)
    frame = frame_for(unit, "caller", "callee")
    mapped = map_expression_to_caller(
        parse_fragment("p", file="t.c"), frame, unit)
    assert to_text(mapped) == "&dev->lock"


def test_map_compound_expression():
    unit = unit_of(MAPPING_UNIT)
    frame = frame_for(unit, "caller", "callee")
    mapped = map_expression_to_caller(
        parse_fragment("*p + n", file="t.c"), frame, unit)
    assert to_text(mapped) == "*&dev->lock + 5"


def test_callee_local_does_not_map():
    unit = unit_of(MAPPING_UNIT)
    frame = frame_for(unit, "caller", "callee")
    assert map_expression_to_caller(
        parse_fragment("tmp", file="t.c"), frame, unit) is None


def test_global_passes_through():
    unit = unit_of(MAPPING_UNIT)
    frame = frame_for(unit, "caller", "callee")
    mapped = map_expression_to_caller(
        parse_fragment("shared + n", file="t.c"), frame, unit)
    assert to_text(mapped) == "shared + 5"


def test_member_field_name_never_rewritten():
    unit = unit_of("""
        void callee(struct box *n) { use(n->n); }
        void caller(struct box *b) { callee(b); }
    """)
    frame = frame_for(unit, "caller", "callee")
    mapped = map_expression_to_caller(
        parse_fragment("n->n", file="t.c"), frame, unit)
    assert to_text(mapped) == "b->n"


def test_arity_mismatch_maps_to_none():
    unit = unit_of("""
        void callee(int a, int b) { use(a); }
        void caller() { callee(1); }
    """)
    frame = frame_for(unit, "caller", "callee")
    assert map_expression_to_caller(
        parse_fragment("a", file="t.c"), frame, unit) is None
