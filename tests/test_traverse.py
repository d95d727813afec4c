import textwrap

from hypothesis import given, settings, strategies as st

from cbugscan.frontend import parse_fragment, to_text
from cbugscan.ir import build_unit_from_text
from cbugscan.traverse import (
    SuperGraph,
    build_supergraph,
    callee_name,
    map_expression_to_caller,
    solve_summaries,
)

from oracles import bfs_reachable, collect_calls


def unit_of(source):
    return build_unit_from_text(textwrap.dedent(source), "t.c")


def called(graph, fn):
    """The callee names of each of `fn`'s nodes that calls some."""
    return [[callee_name(call) for call in graph.calls[node_id]]
            for node_id in sorted(graph.cfgs[fn].nodes)
            if node_id in graph.calls]


# -- supergraph --------------------------------------------------------------------

def test_two_call_sites_two_instances():
    unit = unit_of("""
        void g() { s(); }
        void f() {
            g();
            g();
        }
    """)
    graph = build_supergraph(unit)
    # one graph for the unit: g's nodes once, two call sites in f
    assert sorted(graph.succs) == sorted(
        node_id for cfg in unit.cfgs.values() for node_id in cfg.nodes)
    assert called(graph, "f") == [["g"], ["g"]]
    assert called(graph, "g") == []


def test_two_calls_same_statement_chain_in_order():
    unit = unit_of("""
        void a() { s1(); }
        void b() { s2(); }
        void f() { use(a(), b()); }
    """)
    graph = build_supergraph(unit)
    # evaluation order: a's call before b's
    assert called(graph, "f") == [["a", "b"]]
    assert graph.sccs == [["a"], ["b"], ["f"]]


def test_mutual_recursion_terminates():
    unit = unit_of("""
        void a() { b(); }
        void b() { a(); }
        void c() { a(); }
    """)
    graph = build_supergraph(unit)
    assert graph.sccs == [["a", "b"], ["c"]]
    assert graph.recursive == {"a", "b"}
    assert graph.scc_of["a"] == graph.scc_of["b"] != graph.scc_of["c"]


def test_self_call_is_recursive():
    graph = build_supergraph(unit_of("void f() { f(); } void g() { f(); }"))
    assert graph.sccs == [["f"], ["g"]]
    assert graph.recursive == {"f"}


def test_external_calls_not_expanded():
    unit = unit_of("void f() { printf(); }")
    graph = build_supergraph(unit)
    assert graph.calls == {}
    assert sorted(graph.succs) == sorted(unit.cfgs["f"].nodes)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8))
def test_supergraph_always_finite(n_funcs, calls):
    lines = []
    for i in range(n_funcs):
        callee = (i + 1) % n_funcs
        lines.append(f"void fn{i}() {{ {f'fn{callee}(); ' * calls}fn{i}(); }}")
    unit = unit_of("\n".join(lines))
    graph = build_supergraph(unit)
    # one key per CFG node, however the functions call each other
    assert len(graph.succs) == sum(len(cfg.nodes) for cfg in unit.cfgs.values())
    assert graph.sccs == [[f"fn{i}" for i in range(n_funcs)]]


# -- summaries ---------------------------------------------------------------------

def callees_of(graph, fn):
    return {callee_name(call) for node_id in graph.cfgs[fn].nodes
            for call in graph.calls.get(node_id, ())}


@st.composite
def _call_graphs(draw):
    """Up to 8 functions, each calling any of them, itself included."""
    n = draw(st.integers(min_value=1, max_value=8))
    return {f"fn{i}": draw(st.lists(st.sampled_from(
        [f"fn{j}" for j in range(n)]), max_size=3)) for i in range(n)}


@settings(max_examples=60, deadline=None)
@given(_call_graphs())
def test_solved_summaries_equal_the_closure_oracle(calls):
    # toy summary: the functions each one reaches through one call or more
    unit = unit_of("\n".join(
        f"void {fn}(void) {{ {''.join(f'{callee}(); ' for callee in callees)}}}"
        for fn, callees in calls.items()))
    graph = build_supergraph(unit)

    def summarize(fn, variant, summary_of):
        assert variant == ()
        return frozenset().union(*(summary_of(callee) | {callee}
                                   for callee in callees_of(graph, fn)))

    solved = solve_summaries(graph, summarize, frozenset.union, frozenset())
    assert solved == {
        (fn, ()): frozenset().union(*(bfs_reachable(calls, callee)
                                      for callee in callees))
        for fn, callees in calls.items()}


def chain_graph(n):
    """f0 calls f1, ..., f(n-2) calls f(n-1); no recursion."""
    names = [f"f{i}" for i in range(n)]
    return SuperGraph(cfgs={}, succs={}, calls={},
                      sccs=[[fn] for fn in reversed(names)],
                      scc_of={fn: n - 1 - i for i, fn in enumerate(names)},
                      recursive=frozenset())


def test_a_lower_variant_is_solved_once_before_its_asker():
    graph = chain_graph(2)
    attempts = []

    def summarize(fn, variant, summary_of):
        attempts.append((fn, variant))
        if fn == "f0":
            return ("f0", summary_of("f1", "merged"))
        return (fn, variant)

    solved = solve_summaries(graph, summarize, None, None)
    # the attempt that asked is made again once the variant is solved
    assert attempts == [("f1", ()), ("f0", ()), ("f1", "merged"), ("f0", ())]
    assert solved == {("f1", ()): ("f1", ()),
                      ("f1", "merged"): ("f1", "merged"),
                      ("f0", ()): ("f0", ("f1", "merged"))}


def test_a_long_chain_of_variant_requests_takes_no_recursion():
    # only f0's base asks for a variant, and each variant asks for the
    # next function's: solving f0 waits on 1,999 requests at once
    n = 2000
    graph = chain_graph(n)

    def summarize(fn, variant, summary_of):
        i = int(fn[1:])
        if i == n - 1:
            return 0
        if fn == "f0" or variant:
            return summary_of(f"f{i + 1}", "v") + 1
        return summary_of(f"f{i + 1}")

    solved = solve_summaries(graph, summarize, None, None)
    assert solved["f0", ()] == n - 1
    assert len(solved) == 2 * n - 1


# -- expression mapping ----------------------------------------------------------

def call_for(unit, caller, callee):
    return next(call for call in collect_calls(unit.functions[caller])
                if callee_name(call) == callee)


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
    call = call_for(unit, "caller", "callee")
    mapped = map_expression_to_caller(
        parse_fragment("p", file="t.c"), call, unit)
    assert to_text(mapped) == "&dev->lock"


def test_map_compound_expression():
    unit = unit_of(MAPPING_UNIT)
    call = call_for(unit, "caller", "callee")
    mapped = map_expression_to_caller(
        parse_fragment("*p + n", file="t.c"), call, unit)
    assert to_text(mapped) == "*&dev->lock + 5"


def test_callee_local_does_not_map():
    unit = unit_of(MAPPING_UNIT)
    call = call_for(unit, "caller", "callee")
    assert map_expression_to_caller(
        parse_fragment("tmp", file="t.c"), call, unit) is None


def test_global_passes_through():
    unit = unit_of(MAPPING_UNIT)
    call = call_for(unit, "caller", "callee")
    mapped = map_expression_to_caller(
        parse_fragment("shared + n", file="t.c"), call, unit)
    assert to_text(mapped) == "shared + 5"


def test_member_field_name_never_rewritten():
    unit = unit_of("""
        void callee(struct box *n) { use(n->n); }
        void caller(struct box *b) { callee(b); }
    """)
    call = call_for(unit, "caller", "callee")
    mapped = map_expression_to_caller(
        parse_fragment("n->n", file="t.c"), call, unit)
    assert to_text(mapped) == "b->n"


def test_arity_mismatch_maps_to_none():
    unit = unit_of("""
        void callee(int a, int b) { use(a); }
        void caller() { callee(1); }
    """)
    call = call_for(unit, "caller", "callee")
    assert map_expression_to_caller(
        parse_fragment("a", file="t.c"), call, unit) is None


def test_deep_expression_maps_without_recursion():
    unit = unit_of(MAPPING_UNIT)
    call = call_for(unit, "caller", "callee")
    # the sum's left spine is deeper than Python's recursion limit
    mapped = map_expression_to_caller(
        parse_fragment(" + ".join(["p"] + ["n"] * 3000), file="t.c"),
        call, unit)
    assert to_text(mapped) == " + ".join(["&dev->lock"] + ["5"] * 3000)
