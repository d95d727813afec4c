import textwrap

from hypothesis import example, given, settings, strategies as st

from cbugscan.checkers.automaton import _substituted
from cbugscan.frontend import NodeKind, iter_tree, parse_fragment, to_text
from cbugscan.frontend.ast_nodes import to_path
from cbugscan.ir import build_unit_from_text
from cbugscan.ir.callgraph import SuperGraph
from cbugscan.traverse import build_supergraph, solve_summaries

from oracles import bfs_reachable, folded, map_expression_to_caller


def unit_of(source):
    return build_unit_from_text(textwrap.dedent(source), "t.c")


def called(graph, fn):
    """The callee names of each of `fn`'s nodes that calls some."""
    return [[callee for callee, _ in graph.calls[node_id]]
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
    return {callee for node_id in graph.cfgs[fn].nodes
            for callee, _ in graph.calls.get(node_id, ())}


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

    solved, _ = solve_summaries(graph, summarize, frozenset.union, frozenset())
    assert solved == {
        (fn, ()): frozenset().union(*(bfs_reachable(calls, callee)
                                      for callee in callees))
        for fn, callees in calls.items()}


def reached_calls(graph, fn):
    """The callees of the nodes of `fn` that its entry reaches, by node."""
    reached = bfs_reachable(graph.succs, graph.cfgs[fn].entry)
    return [callee for node_id in sorted(reached)
            for callee, _ in graph.calls.get(node_id, ())]


def applied_calls(source):
    """The solver's record for `source`, as callee lists, where each
    function asks for the summary of every call its entry reaches."""
    graph = build_supergraph(unit_of(source))

    def summarize(fn, variant, summary_of):
        for callee in reached_calls(graph, fn):
            summary_of(callee)
        return frozenset()

    _, applied = solve_summaries(graph, summarize, frozenset.union,
                                 frozenset())
    return {fn: list(callees) for fn, callees in applied.items()}


def test_the_record_leaves_out_a_dead_call():
    # f3 returns before its call to f1, so f1 and f3 are one component of
    # the call graph, but f3 applies no call
    assert applied_calls("""
        void f1(void) { f3(); }
        void f3(void) { for (;;) { return; } f1(); }
        void f0(void) { f3(); f3(); }
    """) == {"f1": ["f3"], "f3": [], "f0": ["f3"]}


def test_the_record_holds_both_functions_of_a_mutual_recursion():
    # first asked first; a function asks for itself too
    assert applied_calls("""
        void a(int c) { if (c) b(c - 1); }
        void b(int c) { if (c) a(c); b(0); }
        void f(void) { b(2); a(1); }
    """) == {"a": ["b"], "b": ["a", "b"], "f": ["b", "a"]}


def chain_graph(n):
    """f0 calls f1, ..., f(n-2) calls f(n-1); no recursion."""
    names = [f"f{i}" for i in range(n)]
    return SuperGraph(edges=[], cfgs={}, succs={}, calls={},
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

    solved, applied = solve_summaries(graph, summarize, None, None)
    # the attempt that asked is made again once the variant is solved,
    # and the record holds its callee once
    assert attempts == [("f1", ()), ("f0", ()), ("f1", "merged"), ("f0", ())]
    assert applied == {"f0": {"f1": None}, "f1": {}}
    assert solved == {("f1", ()): ("f1", ()),
                      ("f1", "merged"): ("f1", "merged"),
                      ("f0", ()): ("f0", ("f1", "merged"))}


def test_a_lower_variant_asked_in_a_round_restarts_its_component():
    # f0 and f1 call each other above f2; f0's first attempt asks for a
    # variant of f1, which no later attempt asks for, and then for f2's
    # variant "v", not solved yet
    graph = SuperGraph(edges=[], cfgs={}, succs={}, calls={},
                       sccs=[["f2"], ["f0", "f1"]],
                       scc_of={"f2": 0, "f0": 1, "f1": 1},
                       recursive=frozenset({"f0", "f1"}))
    attempts = []

    def summarize(fn, variant, summary_of):
        attempts.append((fn, variant))
        if fn == "f0":
            if attempts.count(("f0", ())) == 1:
                summary_of("f1", "first")
            return max(summary_of("f1"), summary_of("f2", "v"))
        if fn == "f1":
            return summary_of("f0")
        return 10 if variant else 1

    solved, applied = solve_summaries(graph, summarize, max, 0)
    # the aborted round is dropped, and the component is iterated from
    # bottom again once the variant is solved
    assert attempts == [("f2", ()), ("f0", ()), ("f2", "v"),
                        ("f0", ()), ("f1", ()), ("f0", ()), ("f1", ())]
    assert solved == {("f2", ()): 1, ("f2", "v"): 10,
                      ("f0", ()): 10, ("f1", ()): 10}
    assert applied == {"f2": {}, "f0": {"f1": None, "f2": None},
                       "f1": {"f0": None}}


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

    solved, _ = solve_summaries(graph, summarize, None, None)
    assert solved["f0", ()] == n - 1
    assert len(solved) == 2 * n - 1


# -- a callee path in a caller's terms ----------------------------------------------

def call_for(unit, caller, callee):
    """The tree of `caller`'s call to `callee`, and the supergraph's
    record of it: the callee and its actuals' access paths."""
    edge = next(edge for edge in unit.call_graph.edges
                if (edge.caller, edge.callee) == (caller, callee))
    site, = build_supergraph(unit).calls[edge.node_id]
    return edge.call_node, site


def mapped_path(unit, site, path, recursive=False):
    """`path`, of the function the call `site` calls, in the caller's
    terms, as the automaton maps a key; None where it has none."""
    callee, actuals = site
    formals = unit.func_params[callee]
    if path is None or len(actuals) != len(formals):
        return None
    return _substituted(path, dict(zip(formals, actuals)),
                        unit.func_locals[callee], recursive)


def mapped_text(unit, site, expression, recursive=False):
    mapped = mapped_path(unit, site, to_path(
        parse_fragment(expression, file="t.c")), recursive)
    return None if mapped is None else mapped.text()


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
    _, site = call_for(unit, "caller", "callee")
    assert mapped_text(unit, site, "p") == "&dev->lock"


def test_map_compound_expression():
    unit = unit_of(MAPPING_UNIT)
    _, site = call_for(unit, "caller", "callee")
    # the dereferenced address is the object itself
    assert mapped_text(unit, site, "*p + n") == "dev->lock + 5"
    assert mapped_text(unit, site, "(*p).f") == "dev->lock.f"


def test_callee_local_does_not_map():
    unit = unit_of(MAPPING_UNIT)
    _, site = call_for(unit, "caller", "callee")
    assert mapped_text(unit, site, "tmp") is None


def test_global_passes_through():
    unit = unit_of(MAPPING_UNIT)
    _, site = call_for(unit, "caller", "callee")
    assert mapped_text(unit, site, "shared + n") == "shared + 5"


def test_member_field_name_never_rewritten():
    unit = unit_of("""
        void callee(struct box *n) { use(n->n); }
        void caller(struct box *b) { callee(b); }
    """)
    _, site = call_for(unit, "caller", "callee")
    assert mapped_text(unit, site, "n->n") == "b->n"


def test_arity_mismatch_maps_to_none():
    unit = unit_of("""
        void callee(int a, int b) { use(a); }
        void caller() { callee(1); }
    """)
    _, site = call_for(unit, "caller", "callee")
    assert mapped_text(unit, site, "a") is None


def test_deep_expression_maps_without_recursion():
    unit = unit_of(MAPPING_UNIT)
    _, site = call_for(unit, "caller", "callee")
    # the sum's left spine is deeper than Python's recursion limit
    assert (mapped_text(unit, site, " + ".join(["p"] + ["n"] * 3000))
            == " + ".join(["&dev->lock"] + ["5"] * 3000))


# a callee with pointer, int and struct formals and locals, and operands
# around them: formals, locals, globals and literals
FORMALS = ["p", "n", "s"]
OPERANDS = FORMALS + ["tmp", "q", "shared", "g", "5"]


def expressions(leaves):
    """Expressions over `leaves` with every operator the printer knows."""
    def grow(children):
        pair = st.tuples(children, children)
        return st.one_of(
            st.builds(lambda op, e: f"{op}({e})", st.sampled_from("*&!-"),
                      children),
            st.builds(lambda e: f"({e})->f", children),
            st.builds(lambda e: f"({e}).f", children),
            st.builds(lambda ab: f"({ab[0]})[{ab[1]}]", pair),
            st.builds(lambda ab: f"({ab[0]}) = ({ab[1]})", pair),
            st.builds(lambda op, ab: f"({ab[0]}) {op} ({ab[1]})",
                      st.sampled_from(["||", "&&", "==", "<", "+", "-", "*",
                                       "%"]), pair),
            st.builds(lambda ab: f"h({ab[0]}, {ab[1]})", pair))
    return st.recursive(st.sampled_from(leaves), grow, max_leaves=6)


def reference_tree(unit, call, tree, recursive):
    """What `map_expression_to_caller` makes of `tree` (None for None),
    or None where it would grow across a `recursive` call: where a formal
    it names has an actual of more than one node, `folded`."""
    mapped = tree and map_expression_to_caller(tree, call, unit)
    actuals = dict(zip(unit.func_params[call.children[0].text],
                       call.children[1:]))
    if mapped is not None and recursive and any(
            len(list(iter_tree(folded(actuals[name])))) > 1
            for name in variable_names(tree) if name in actuals):
        mapped = None
    return mapped


def variable_names(tree):
    """The names of the identifiers in `tree`, but a member's field."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if node.kind is NodeKind.IDENTIFIER:
            yield node.text
        pending.extend(node.children[:1] if node.kind is NodeKind.MEMBER
                       else node.children)


@settings(max_examples=300, deadline=None)
@given(expressions(OPERANDS),
       # lone names often, so that a name's hole is filled again
       st.lists(st.one_of(st.sampled_from(["a", "b"]),
                          expressions(["a", "b", "shared", "7"])),
                min_size=2, max_size=4),
       st.lists(expressions(["c", "shared", "9"]), min_size=1, max_size=3),
       st.booleans())
# a lone name's hole takes the context of the hole it fills
@example("n->f", ["b", "a", "7"], ["c + 9", "shared"], False)
# a dereferenced address is the object, at the first call or the second
@example("(*(p)).f + *(p)", ["&(a)", "b", "7"], ["c", "shared"], False)
@example("*(p)", ["b", "a", "7"], ["c", "&(c)"], False)
# filling a formal makes `&*E`, `&E[0]` or `(*E).f`: E, E and E->f
@example("&(n)", ["a", "*(b)", "7"], ["c", "shared"], False)
@example("&(n)", ["a", "(b)[0]", "7"], ["c", "shared"], False)
@example("(n).f", ["a", "*(b)", "7"], ["c", "shared"], False)
def test_template_substitution_gives_the_mapped_trees_text(
        expression, actuals, outer_actuals, recursive):
    # as many actuals as formals, or a call of the wrong arity; the path
    # is taken out of two calls, so the roots a substitution leaves are
    # mapped again
    unit = unit_of(f"""
        int shared;
        void callee(int *p, int n, struct box s) {{
            int *q; int tmp; use(p, n, s, q, tmp);
        }}
        void caller(int a, int *b) {{ callee({", ".join(actuals)}); }}
        void top(int c) {{ caller({", ".join(outer_actuals)}); }}
    """)
    tree = parse_fragment(expression, file="t.c")
    path = to_path(tree)
    assert path.text() == to_text(folded(tree))
    for caller, callee in (("caller", "callee"), ("top", "caller")):
        call, site = call_for(unit, caller, callee)
        tree = reference_tree(unit, call, tree, recursive)
        path = mapped_path(unit, site, path, recursive)
        assert (None if path is None else path.text()) == (
            None if tree is None else to_text(tree))
