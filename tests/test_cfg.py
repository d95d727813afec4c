import sys
import textwrap

import pytest

from cbugscan.errors import FrontendError
from cbugscan.frontend import statement_text
from cbugscan.ir import build_unit_from_text
from cbugscan.ir.cfg import CfgNodeKind, cfg_to_dot, reachable_nodes

from oracles import bfs_reachable


def cfg_of(source, name="f"):
    unit = build_unit_from_text(textwrap.dedent(source), "t.c")
    return unit.cfgs[name]


def shape(cfg):
    """(node descriptions, labeled edges) in id order, for golden checks."""
    nodes = []
    for node in cfg.nodes.values():
        if node.kind is CfgNodeKind.ENTRY:
            text = "<entry>"
        elif node.kind is CfgNodeKind.EXIT:
            text = "<exit>"
        else:
            text = statement_text(node.ast_ref)
        nodes.append((node.id, node.kind.name.lower(), text))
    edges = []
    for node in cfg.nodes.values():
        labels = (("true", "false") if node.kind is CfgNodeKind.CONDITION
                  else (None,) * len(cfg.succs[node.id]))
        edges.extend((node.id, target, label)
                     for target, label in zip(cfg.succs[node.id], labels))
    return nodes, edges


# -- golden structures ---------------------------------------------------------

def test_if_else_shape_is_five_nodes_no_join():
    nodes, edges = shape(cfg_of("void f(int c) { if (c) a(); else b(); }"))
    assert nodes == [
        (0, "entry", "<entry>"),
        (1, "exit", "<exit>"),
        (2, "condition", "c"),
        (3, "statement", "a();"),
        (4, "statement", "b();"),
    ]
    assert edges == [
        (0, 2, None),
        (2, 3, "true"),
        (2, 4, "false"),
        (3, 1, None),
        (4, 1, None),
    ]


def test_branches_merge_directly_on_next_statement():
    nodes, edges = shape(cfg_of("void f(int c) { if (c) a(); else b(); x(); }"))
    assert (3, 5, None) in edges and (4, 5, None) in edges
    assert nodes[5] == (5, "statement", "x();")


def test_while_one_becomes_self_loop():
    nodes, edges = shape(cfg_of("void f() { while (1) work(); }"))
    assert nodes == [
        (0, "entry", "<entry>"),
        (1, "exit", "<exit>"),
        (2, "statement", "1"),
        (3, "statement", "work();"),
    ]
    assert edges == [(0, 2, None), (2, 3, None), (3, 2, None)]
    # the exit stays in the graph but is unreachable
    assert cfg_of("void f() { while (1) work(); }").preds[1] == ()


def test_if_zero_branch_never_taken():
    cfg = cfg_of("void f(int c) { if (0) dead(); live(); }")
    nodes, edges = shape(cfg)
    assert nodes[2] == (2, "statement", "0")
    assert (2, 4, None) in edges          # condition falls through to live()
    assert (2, 3, None) not in edges      # dead() not entered from the test
    assert cfg.preds[3] == ()             # dead() has no predecessors
    assert (3, 4, None) in edges          # but still falls through if reached


def test_ids_follow_source_order_in_a_dead_then_branch():
    cfg = cfg_of("void f() { if (0) a(); else b(); c(); }")
    nodes, edges = shape(cfg)
    assert nodes == [
        (0, "entry", "<entry>"),
        (1, "exit", "<exit>"),
        (2, "statement", "0"),
        (3, "statement", "a();"),
        (4, "statement", "b();"),
        (5, "statement", "c();"),
    ]
    assert edges == [(0, 2, None), (2, 4, None), (3, 5, None), (4, 5, None),
                     (5, 1, None)]
    assert cfg.preds[3] == ()


def test_for_loop_continue_goes_to_step():
    src = """
        void f(int n) {
            int i;
            for (i = 0; i < n; i = i + 1) {
                if (i) continue;
                g();
            }
        }
    """
    nodes, edges = shape(cfg_of(src))
    assert nodes == [
        (0, "entry", "<entry>"),
        (1, "exit", "<exit>"),
        (2, "statement", "int i;"),
        (3, "statement", "i = 0;"),
        (4, "condition", "i < n"),
        (5, "condition", "i"),
        (6, "statement", "continue;"),
        (7, "statement", "g();"),
        (8, "statement", "i = i + 1;"),
    ]
    assert (6, 8, None) in edges   # continue -> step
    assert (8, 4, None) in edges   # step -> loop test


def test_forever_for_loop_head_is_placeholder():
    nodes, edges = shape(cfg_of("void f() { for (;;) { if (done()) break; } }"))
    assert nodes == [
        (0, "entry", "<entry>"),
        (1, "exit", "<exit>"),
        (2, "statement", ";"),
        (3, "condition", "done()"),
        (4, "statement", "break;"),
    ]
    assert (3, 2, "false") in edges  # loop back to head
    assert (4, 1, None) in edges     # break -> exit


def test_return_connects_to_exit_and_cuts_fallthrough():
    nodes, edges = shape(cfg_of("void f() { return; x(); }"))
    assert (2, 1, None) in edges
    # x() keeps its exit edge but is not reachable from return
    assert (2, 3, None) not in edges


def test_while_zero_skips_body():
    cfg = cfg_of("void f() { while (0) work(); done(); }")
    nodes, edges = shape(cfg)
    assert nodes[2] == (2, "statement", "0")
    assert (2, 4, None) in edges       # straight to done()
    assert cfg.preds[3] == ()          # body unreachable


# -- node kinds and invariants ---------------------------------------------------

def test_condition_nodes_have_exactly_two_successors_true_first():
    cfg = cfg_of("""
        void f(int a, int b, int c) {
            if (a) { while (b) { b = b - 1; } } else { g(); }
            if (c) {} else { g(); }
            h();
        }
    """)

    def at(line, text):
        node_id, = [node.id for node in cfg.nodes.values()
                    if node.location.line == line and node.ast_ref is not None
                    and statement_text(node.ast_ref) == text]
        return node_id

    conditions = [node.id for node in cfg.nodes.values()
                  if node.kind is CfgNodeKind.CONDITION]
    assert conditions == [at(3, "a"), at(3, "b"), at(4, "c")]
    assert cfg.succs[at(3, "a")] == [at(3, "b"), at(3, "g();")]
    assert cfg.succs[at(3, "b")] == [at(3, "b = b - 1;"), at(4, "c")]
    # the empty then-block's true exit is connected after the else
    # branch's false exit, and still comes first
    assert cfg.succs[at(4, "c")] == [at(5, "h();"), at(4, "g();")]


def test_every_statement_gets_a_node():
    cfg = cfg_of("""
        void f() {
            int a;
            ;
            a = 1;
            g(a);
        }
    """)
    stmts = [n for n in cfg.nodes.values()
             if n.kind is CfgNodeKind.STATEMENT]
    assert [statement_text(n.ast_ref) for n in stmts] == [
        "int a;", ";", "a = 1;", "g(a);",
    ]


def test_entry_and_exit_locations():
    unit = build_unit_from_text(
        "void f()\n{\n    x();\n}\n", "t.c")
    cfg = unit.cfgs["f"]
    assert cfg.nodes[cfg.entry].location.line == 1   # FunctionDef
    assert cfg.nodes[cfg.exit].location.line == 4    # closing brace


def test_preds_are_inverse_of_succs():
    cfg = cfg_of("""
        void f(int c) {
            if (c) a(); else b();
            while (c) c = c - 1;
        }
    """)
    for node_id, targets in cfg.succs.items():
        for target in targets:
            assert node_id in cfg.preds[target]
    for node_id, preds in cfg.preds.items():
        for p in preds:
            assert node_id in cfg.succs[p]


def test_shared_id_counter_across_functions():
    unit = build_unit_from_text(
        "void f() { a(); }\nvoid g() { b(); }\n", "t.c")
    f_ids = set(unit.cfgs["f"].nodes)
    g_ids = set(unit.cfgs["g"].nodes)
    assert not (f_ids & g_ids)


# -- labels and gotos ------------------------------------------------------------

def test_goto_edges_resolve_forward_and_backward():
    cfg = cfg_of("""
        void f(int c) {
        again:
            c = c - 1;
            if (c) goto again;
            goto out;
            c = 99;
        out:
            return;
        }
    """)
    nodes, edges = shape(cfg)
    texts = {n[0]: n[2] for n in nodes}
    goto_again = next(i for i, t in texts.items() if t == "goto again;")
    target = next(i for i, t in texts.items() if t == "c = c - 1;")
    assert (goto_again, target, None) in edges


def test_label_is_transparent():
    # labeled statement produces only the statement's own node
    cfg = cfg_of("""
        void f() {
            g();
        out:
            h();
        }
    """)
    nodes, _ = shape(cfg)
    assert [n[2] for n in nodes[2:]] == ["g();", "h();"]


def test_empty_labeled_block_gets_synthetic_node():
    cfg = cfg_of("""
        void f(int c) {
            if (c) goto out;
            g();
        out: ;
        }
    """)
    # the label's empty statement is a real node so the goto has a target
    nodes, edges = shape(cfg)
    texts = {n[0]: n[2] for n in nodes}
    assert ";" in texts.values()


def test_duplicate_label_rejected():
    with pytest.raises(FrontendError):
        cfg_of("void f() { x: g(); x: h(); }")


def test_nested_duplicate_label_rejected():
    with pytest.raises(FrontendError):
        cfg_of("void f() { x: { y(); x: h(); } }")


def test_undefined_goto_rejected():
    with pytest.raises(FrontendError):
        cfg_of("void f() { goto nowhere; }")


def test_break_outside_loop_rejected():
    with pytest.raises(FrontendError):
        cfg_of("void f() { break; }")


def test_continue_outside_loop_rejected():
    with pytest.raises(FrontendError):
        cfg_of("void f(int c) { if (c) continue; }")


# -- reachability vs oracle -------------------------------------------------------

@pytest.mark.parametrize("source", [
    "void f(int c) { if (c) a(); else b(); x(); }",
    "void f() { return; x(); y(); }",
    "void f(int n) { while (n) { n = n - 1; } done(); }",
    "void f() { while (1) spin(); after(); }",
    "void f(int c) { if (0) dead(); live(); }",
    """
    void f(int c) {
        goto skip;
        never();
    skip:
        fine();
    }
    """,
])
def test_reachability_matches_bfs_oracle(source):
    cfg = cfg_of(source)
    assert reachable_nodes(cfg) == bfs_reachable(cfg.succs, cfg.entry)


# -- nesting near the parser's limit ------------------------------------------------

NESTS = {
    "if": lambda d: "if (c) " * d + "x();",
    "if/else": lambda d: "if (c) x(); else " * d + "x();",
    "while": lambda d: "while (c) " * d + "x();",
    "for": lambda d: "for (i = 0; c; i = 1) " * d + "x();",
    "block": lambda d: "{ " * d + "x();" + " }" * d,
    "label": lambda d: "".join(f"l{i}: " for i in range(d)) + "x();",
}


def build_nest(nest, depth):
    """The unit, or None when the parser rejects it as too deep."""
    source = f"void f(int c) {{ int i; {NESTS[nest](depth)} }}"
    try:
        return build_unit_from_text(source, "t.c")
    except FrontendError as exc:
        assert exc.message == "nesting too deep"
        return None


@pytest.mark.parametrize("nest", sorted(NESTS))
def test_nesting_near_the_parser_limit_builds_or_is_too_deep(nest):
    # CFG lowering recurses too, but never deeper than the parser did.
    # Each nesting level costs the parser at least one frame.
    builds, fails = 1, sys.getrecursionlimit()
    assert build_nest(nest, builds) is not None
    assert build_nest(nest, fails) is None
    while fails - builds > 1:
        middle = (builds + fails) // 2
        if build_nest(nest, middle) is None:
            fails = middle
        else:
            builds = middle
    for depth in range(builds - 3, fails + 3):
        assert (build_nest(nest, depth) is not None) == (depth <= builds)


# -- dot rendering -----------------------------------------------------------------

def test_dot_output_golden():
    dot = cfg_to_dot(cfg_of("void f(int c) { if (c) a(); else b(); }"))
    assert dot == textwrap.dedent("""\
        digraph "f" {
          n0 [label="0: <entry>"];
          n1 [label="1: <exit>"];
          n2 [label="2: c"];
          n3 [label="3: a();"];
          n4 [label="4: b();"];
          n0 -> n2;
          n2 -> n3 [label="true"];
          n2 -> n4 [label="false"];
          n3 -> n1;
          n4 -> n1;
        }""")


def test_dot_escapes_quotes():
    dot = cfg_to_dot(cfg_of('void f() { g("hi"); }'))
    assert '\\"hi\\"' in dot
