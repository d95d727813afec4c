import glob
import os

import pytest

from conftest import CORPUS_DIR, workload_sources
from oracles import all_pattern_hits, subnodes_outside, walked_matches

from cbugscan.checkers import base, builtin_registry
from cbugscan.errors import CbugscanError, PatternError
from cbugscan.frontend import (
    NodeKind,
    iter_tree,
    parse_fragment,
    statement_text,
    to_text,
)
from cbugscan.ir import build_unit_from_text
from cbugscan.patterns import (
    compile_pattern,
    first_binding,
    match_node,
    pattern_hits,
    pattern_kinds,
    subnodes_of,
)


def expr(source):
    return parse_fragment(source, file="t.c")


def matches(pattern, root):
    """Bindings of every subtree of root (preorder) the pattern matches."""
    found = (match_node(pattern, node) for node in iter_tree(root))
    return [bindings for bindings in found if bindings is not None]


# -- compilation ---------------------------------------------------------------

def test_compile_collects_metavars_in_order():
    pat = compile_pattern("f(%A, %B, %A)")
    assert pat.metavar_names() == ["A", "B"]


def test_compile_rejects_garbage():
    with pytest.raises(PatternError):
        compile_pattern("f(%A")
    with pytest.raises(PatternError):
        compile_pattern("")


# -- matching -------------------------------------------------------------------

def test_literal_match():
    pat = compile_pattern("mutex_lock(x)")
    assert match_node(pat, expr("mutex_lock(x)")) == {}
    assert match_node(pat, expr("mutex_lock(y)")) is None


def test_metavar_binds_whole_subtree():
    pat = compile_pattern("mutex_lock(%X)")
    bindings = match_node(pat, expr("mutex_lock(&dev->lock)"))
    assert bindings is not None
    assert to_text(bindings["X"]) == "&dev->lock"


def test_repeated_metavar_requires_equal_subtrees():
    pat = compile_pattern("%A = %A + 1")
    assert match_node(pat, expr("i = i + 1")) is not None
    assert match_node(pat, expr("i = j + 1")) is None
    # structurally equal compound expressions count
    assert match_node(pat, expr("p->n = p->n + 1")) is not None


def test_repeated_metavar_over_huge_sums_needs_no_recursion():
    # each side's left spine is deeper than Python's recursion limit
    total = " + ".join(["s"] * 3000)
    bindings = match_node(compile_pattern("%X == %X"),
                          expr(f"{total} == {total}"))
    assert bindings is not None and to_text(bindings["X"]) == total
    assert match_node(compile_pattern("%X == %X"),
                      expr(f"{total} == {total} + s")) is None


def test_bindings_follow_preorder():
    bindings = match_node(compile_pattern("%A(%B, %C) + %D"),
                          expr("f(x, y + 1) + z"))
    assert list(bindings) == ["A", "B", "C", "D"]
    assert [to_text(e) for e in bindings.values()] == ["f", "x", "y + 1", "z"]


def test_match_is_at_node_only():
    pat = compile_pattern("g(%X)")
    tree = expr("f(g(1))")
    assert match_node(pat, tree) is None      # root is f(...), not g(...)
    assert match_node(pat, tree.children[1]) is not None


def test_find_matches_preorder():
    pat = compile_pattern("g(%X)")
    tree = expr("g(g(g(x)))")
    hits = matches(pat, tree)
    assert [to_text(b["X"]) for b in hits] == ["g(g(x))", "g(x)", "x"]


def test_find_matches_in_statement_context():
    from cbugscan.frontend import parse
    unit = parse("void f() { a = 1; b = 2; }", "t.c")
    pat = compile_pattern("%V = %E")
    hits = matches(pat, unit)
    assert [to_text(b["V"]) for b in hits] == ["a", "b"]


def test_metavar_matches_any_expression_kind():
    pat = compile_pattern("%X")
    for source in ["x", "x + y", "f(a)", "p->q[i]", "\"str\"", "3"]:
        assert match_node(pat, expr(source)) is not None


def test_first_binding_follows_first_occurrence_else_node():
    pat = compile_pattern("f(%B, %A)")
    node = expr("f(x, y)")
    assert to_text(first_binding(pat, match_node(pat, node), node)) == "x"
    plain = compile_pattern("g()")
    node = expr("g()")
    assert first_binding(plain, match_node(plain, node), node) is node


# -- trying patterns by root shape ------------------------------------------------

def bundled_patterns():
    registry = builtin_registry()
    automaton = registry.create("automaton")
    lockstat = registry.create("lockstat").config
    thread = registry.create("thread").config
    return ([p for a in automaton.automata for p in a.patterns]
            + lockstat.accesses + lockstat.locks + lockstat.unlocks
            + thread.spawns + thread.locks + thread.unlocks)


SHAPE_RULE_SOURCE = """\
void f(int m, struct dev *d) {
    mutex_lock(&m);
    mutex_lock(&m, 1);
    m = mutex_unlock(&m);
    m = d->lock + 1;
    m = d.lock - 1;
}
"""


def tried(unit, template):
    """The subnodes `pattern_hits` tries a template's pattern on, and
    the texts of its hits."""
    seen = []

    def match(pattern, node):
        seen.append(node)
        return match_node(pattern, node)

    hits = pattern_hits(unit.match_table, compile_pattern(template), match)
    return seen, [statement_text(subnode) for _, _, subnode, _ in hits]


def test_pattern_hits_tries_only_subnodes_of_the_root_shape():
    unit = build_unit_from_text(SHAPE_RULE_SOURCE, "t.c")

    def texts(template):
        seen, hits = tried(unit, template)
        return sorted(statement_text(node) for node in seen), sorted(hits)

    # any other root: its kind, arity, text and head
    assert texts("mutex_lock(%X)") == (["mutex_lock(&m)"], ["mutex_lock(&m)"])
    assert texts("mutex_lock(&m);") == (
        ["mutex_lock(&m);", "mutex_lock(&m, 1);"], ["mutex_lock(&m);"])
    assert texts("m") == (["m"] * 6, ["m"] * 6)
    # a metavariable head: its kind, arity and text
    assert texts("%F(%A)") == (["mutex_lock(&m)", "mutex_unlock(&m)"],
                               ["mutex_lock(&m)", "mutex_unlock(&m)"])
    assert texts("%P->lock") == (["d->lock"], ["d->lock"])
    assert texts("%A + 2") == (["d->lock + 1"], [])
    assert texts("%V = %E") == (
        ["m = d->lock + 1", "m = d.lock - 1", "m = mutex_unlock(&m)"],
        ["m = d->lock + 1", "m = d.lock - 1", "m = mutex_unlock(&m)"])
    # a metavariable root: every subnode
    seen, hits = tried(unit, "%X")
    assert sorted(map(id, seen)) == sorted(map(id, iter_tree(unit.ast)))
    assert len(hits) == len(seen)


# -- the match table -----------------------------------------------------------------

# file-scope declarations, labels, loops with and without parts, dead
# branches and nested calls, which neither the corpus nor the workloads have
SHAPES_SOURCE = """\
struct lock m;
int t = pthread_create(0, 0, worker, 0);
int *p = &m;
void worker(int a) {
    int i = a;
    int j;
    for (j = 0; j < 3; j = j + 1) { *p = j; }
    for (;;) { if (i) break; }
  out: ;
  empty: {}
    mutex_lock(&m);
    while (0) mutex_unlock(&m);
    if (1) ; else f(g(1), 2);
    if (i) goto out;
}
"""


def corpus_sources():
    sources = [("shapes.c", SHAPES_SOURCE)]
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.c"))):
        with open(path, encoding="utf-8") as handle:
            sources.append((path, handle.read()))
    return sources


@pytest.mark.parametrize("workload, seed", [("corpus", 0)] + [
    (workload, seed) for workload in ("wide", "deep", "nest")
    for seed in (1, 2, 3)])
def test_table_matches_equal_the_walk_of_every_cfg_node(workload, seed):
    patterns = bundled_patterns() + [
        compile_pattern(t) for t in ("%X", "%F(%A)", "*%P = %E")]
    sources = (corpus_sources() if workload == "corpus"
               else workload_sources(workload, seed))
    built = nodes = matched = outside = 0
    for name, text in sources:
        try:
            unit = build_unit_from_text(text, name)
        except CbugscanError:
            continue
        built += 1
        found = base.matches(patterns, unit, match_node)
        cfg_nodes = [node for cfg in unit.cfgs.values()
                     for node in cfg.nodes.values()]
        for node in cfg_nodes:
            expected = ([] if node.ast_ref is None else
                        list(walked_matches(patterns, iter_tree(node.ast_ref))))
            assert found.get(node.id, []) == expected, (name, node.id)
            nodes += 1
            matched += len(expected)
        assert set(found) <= {node.id for node in cfg_nodes} | {None}
        trees = [node.ast_ref for node in cfg_nodes if node.ast_ref is not None]
        expected = list(walked_matches(
            patterns, subnodes_outside(unit.ast, trees)))
        assert found.get(None, []) == expected, name
        outside += len(expected)
    assert built and nodes and matched and outside  # not vacuous


def hit_set(hits):
    """Hits by identity: (CFG node id or None, position, subnode id,
    bound subnode ids by name)."""
    return {(owner, position, id(subnode),
             tuple((name, id(bound)) for name, bound in bindings.items()))
            for owner, position, subnode, bindings in hits}


@pytest.mark.parametrize("template", ["mutex_lock(%X)", "%V = %E", "%X"])
def test_pattern_hits_equal_a_walk_of_every_subnode(template):
    # a plain root, a metavariable head and a bare metavariable root
    pattern = compile_pattern(template)
    found = 0
    for name, text in corpus_sources():
        unit = build_unit_from_text(text, name)
        hits = pattern_hits(unit.match_table, pattern)
        assert len(hit_set(hits)) == len(hits)
        assert hit_set(hits) == hit_set(all_pattern_hits(unit, pattern)), name
        found += len(hits)
    assert found  # not vacuous


def test_file_scope_spawn_is_in_the_table():
    unit = build_unit_from_text(
        "void worker(void) { }\n"
        "int t = pthread_create(0, 0, worker, 0);\n", "t.c")
    spawn = compile_pattern("pthread_create(%A, %B, %F, %D)")
    (_, subnode, bindings), = base.matches([spawn], unit, match_node)[None]
    assert subnode.location.line == 2
    assert to_text(bindings["F"]) == "worker"


# -- a table lists only the kinds asked for ----------------------------------------

def test_a_table_asked_for_a_kind_it_did_not_list_raises():
    source = "void f(int c) { if (c) g(c); x = h(c); }\nvoid h(int c) { }\n"
    full = build_unit_from_text(source, "t.c")
    unit = build_unit_from_text(source, "t.c", {NodeKind.CALL})
    assert set(full.match_table) == set(NodeKind)
    assert set(unit.match_table) == {NodeKind.CALL}
    call = compile_pattern("g(%X)")

    def found(table):
        return [(owner, position, to_text(node)) for owner, position, node, _
                in pattern_hits(table, call)]

    assert found(unit.match_table) == found(full.match_table) != []
    # the walk still lists every CFG node's calls for the call graph
    assert ([(e.caller, e.callee, e.node_id) for e in unit.call_graph.edges]
            == [(e.caller, e.callee, e.node_id)
                for e in full.call_graph.edges])
    for template in ("%X = %Y", "%X"):
        with pytest.raises(KeyError):
            pattern_hits(unit.match_table, compile_pattern(template))
    with pytest.raises(KeyError):
        list(subnodes_of(unit.match_table, NodeKind.IF))


@pytest.mark.parametrize("templates, kinds", [
    (["f(%X)", "%X = %Y", "f(%X)"], {NodeKind.CALL, NodeKind.ASSIGN}),
    (["!%X"], {NodeKind.UNARY_OP}),
    (["f(%X)", "%X"], None),  # a metavariable root: every kind
    ([], set()),
])
def test_pattern_kinds_are_the_root_kinds(templates, kinds):
    assert pattern_kinds(map(compile_pattern, templates)) == kinds
