import glob
import os
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_DIR
from oracles import map_expression_to_caller, recursive_parse

from cbugscan.errors import FrontendError
from cbugscan.frontend import (
    AstNode,
    NodeKind,
    SourceLocation,
    dump_sexpr,
    iter_tree,
    parse,
    parse_fragment,
    structurally_equal,
    to_text,
)
from cbugscan.frontend.ast_nodes import BINARY_PRECEDENCE, EXPRESSION_KINDS
from cbugscan.ir import build_unit_from_text, units


def parse_src(source):
    return parse(textwrap.dedent(source), "t.c")


def expr(source):
    return parse_fragment(source, file="t.c")


def first(node, kind):
    for sub in iter_tree(node):
        if sub.kind is kind:
            return sub
    raise AssertionError(f"no {kind} in tree")


# -- expressions --------------------------------------------------------------

def test_precedence_mul_over_add():
    assert to_text(expr("a + b * c")) == "a + b * c"
    tree = expr("a + b * c")
    assert tree.kind is NodeKind.BINARY_OP and tree.text == "+"
    assert tree.children[1].text == "*"


def test_precedence_parens_override():
    tree = expr("(a + b) * c")
    assert tree.text == "*"
    assert to_text(tree) == "(a + b) * c"


def test_logical_operators_are_plain_binary_ops():
    tree = expr("a && b || c")
    assert tree.kind is NodeKind.BINARY_OP and tree.text == "||"
    assert tree.children[0].text == "&&"


def test_relational_binds_tighter_than_equality():
    tree = expr("a < b == c")
    assert tree.text == "=="
    assert tree.children[0].text == "<"


# C's binary operator levels, loosest first.
_LEVELS = [("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"),
           ("*", "/", "%")]
_LEVEL = {op: i for i, ops in enumerate(_LEVELS) for op in ops}


@pytest.mark.parametrize("left", list(_LEVEL))
def test_binary_precedence_and_left_associativity(left):
    for right in _LEVEL:
        source = f"a {left} b {right} c"
        tree = expr(source)
        if _LEVEL[left] >= _LEVEL[right]:
            assert (tree.text, tree.children[0].text) == (right, left)
        else:
            assert (tree.text, tree.children[1].text) == (left, right)
        assert to_text(tree) == source


def test_assignment_right_associative():
    tree = expr("a = b = c")
    assert tree.kind is NodeKind.ASSIGN
    assert tree.children[1].kind is NodeKind.ASSIGN


def test_unary_operators():
    tree = expr("!*p")
    assert tree.kind is NodeKind.UNARY_OP and tree.text == "not"
    assert tree.children[0].text == "deref"
    assert to_text(expr("-a + b")) == "-a + b"
    assert to_text(expr("&x")) == "&x"


def test_member_and_index_chains():
    assert to_text(expr("a.b->c[0]")) == "a.b->c[0]"
    tree = expr("p->q")
    assert tree.kind is NodeKind.MEMBER and tree.text == "arrow"
    assert tree.children[1].kind is NodeKind.IDENTIFIER


def test_call_with_arguments():
    tree = expr("f(a, b + 1)")
    assert tree.kind is NodeKind.CALL
    assert to_text(tree) == "f(a, b + 1)"
    assert len(tree.children) == 3  # callee + 2 args


def test_call_through_pointer():
    tree = expr("(*fp)(x)")
    assert tree.kind is NodeKind.CALL
    assert tree.children[0].kind is NodeKind.UNARY_OP


# -- statements and declarations ----------------------------------------------

def test_function_and_locals():
    unit = parse_src("""
        int add(int a, int b) {
            int sum;
            sum = a + b;
            return sum;
        }
    """)
    func = unit.children[0]
    assert func.kind is NodeKind.FUNCTION_DEF
    assert func.text == "add"
    params = [c for c in func.children if c.kind is NodeKind.PARAM_DECL]
    assert [p.text for p in params] == ["a", "b"]
    body = func.children[-1]
    assert body.kind is NodeKind.BLOCK
    assert body.children[0].kind is NodeKind.VAR_DECL


def test_struct_pointer_declarations():
    unit = parse_src("""
        void f(struct ctx *c) {
            struct ctx *local;
            local = c;
        }
    """)
    func = unit.children[0]
    assert func.children[0].kind is NodeKind.PARAM_DECL


def test_control_flow_statements():
    unit = parse_src("""
        void f(int n) {
            int i;
            for (i = 0; i < n; i = i + 1) {
                if (i % 2)
                    continue;
                else
                    g(i);
            }
            while (n > 0) {
                n = n - 1;
                if (n == 3)
                    break;
            }
        }
    """)
    kinds = {n.kind for n in iter_tree(unit)}
    assert NodeKind.FOR in kinds
    assert NodeKind.WHILE in kinds
    assert NodeKind.BREAK in kinds
    assert NodeKind.CONTINUE in kinds


def test_goto_and_label():
    unit = parse_src("""
        void f() {
            goto out;
            x = 1;
        out:
            return;
        }
    """)
    goto = first(unit, NodeKind.GOTO)
    label = first(unit, NodeKind.LABEL)
    assert goto.text == "out"
    assert label.text == "out"


def test_var_decl_with_initializer():
    unit = parse_src("void f() { int x = g(); }")
    decl = first(unit, NodeKind.VAR_DECL)
    assert decl.text == "x"
    assert any(c.kind is NodeKind.CALL for c in decl.children)


def test_empty_statement():
    unit = parse_src("void f() { ; }")
    assert first(unit, NodeKind.EMPTY_STATEMENT) is not None


def test_global_variables():
    unit = parse_src("int shared;\nvoid f() {}\n")
    assert unit.children[0].kind is NodeKind.VAR_DECL


@pytest.mark.parametrize("source, decls", [
    ("int *a, b = 1;\n", [("a", "int *", "t.c:1:1", 0), ("b", "int", "t.c:1:9", 1)]),
    ("struct mutex m, n;\n", [("m", "struct mutex", "t.c:1:1", 0),
                              ("n", "struct mutex", "t.c:1:17", 0)]),
    ("void f() {\n  char c[4], **d, e = 2;\n  d = 0;\n}\n",
     [("c", "char[4]", "t.c:2:3", 0), ("d", "char **", "t.c:2:16", 0),
      ("e", "char", "t.c:2:19", 1)]),
])
def test_each_declarator_is_a_var_decl_of_its_own(source, decls):
    # in order, each with the shared type, its own `*`s, `[N]` and
    # initializer; the first at the type, each later one at its name
    unit = parse(source, "t.c")
    assert [(node.text, node.ctype, str(node.location), len(node.children))
            for node in iter_tree(unit)
            if node.kind is NodeKind.VAR_DECL] == decls


def test_each_declarator_is_a_local():
    unit = build_unit_from_text("void f() { int a, *b; b = &a; }\n", "t.c")
    assert unit.func_locals["f"] == {"a": "int", "b": "int *"}


@pytest.mark.parametrize("body", [
    "if (x) int a, b;", "while (x) int a, b;", "for (;;) int a, b;"])
def test_two_declarators_as_a_lone_body_fail_at_the_comma(body):
    source = f"void f(int x) {{ {body} }}"
    with pytest.raises(FrontendError) as caught:
        parse(source, "t.c")
    assert str(caught.value) == (
        f"t.c:1:{source.index(',') + 1}: "
        "multiple declarators per declaration are not supported")


@pytest.mark.parametrize("body, expression", [
    ("1;", "1"),
    ("1 + x;", "1 + x"),
    ("if (x) x = 2; else 1;", "1"),
])
def test_literal_starts_an_expression_statement(body, expression):
    unit = parse_src(f"void f(int x) {{ {body} }}")
    stmt = unit.children[0].children[-1].children[0]
    last = stmt.children[-1] if stmt.kind is NodeKind.IF else stmt
    assert last.kind is NodeKind.EXPR_STATEMENT
    assert to_text(last.children[0]) == expression


@pytest.mark.parametrize("source, location, message", [
    ("void f(int x) {\n  1 x;\n}", "t.c:2:5", "expected ';', found 'x'"),
    ("int a[int];", "t.c:1:7", "expected 'number', found 'int'"),
])
def test_literal_and_keyword_are_not_confused(source, location, message):
    with pytest.raises(FrontendError) as caught:
        parse(source, "t.c")
    assert str(caught.value) == f"{location}: {message}"


# -- rejected constructs ------------------------------------------------------

@pytest.mark.parametrize("source,hint", [
    ("struct point { int x; };", "struct"),
    ("int f(void);", "prototype"),
    ("void f() { switch (x) { } }", "switch"),
    ("void f() { x = (int)y; }", ""),
    ("void f() { x += 1; }", ""),
])
def test_unsupported_constructs_fail_loudly(source, hint):
    with pytest.raises(FrontendError):
        parse(source, "t.c")


def test_unbalanced_braces():
    with pytest.raises(FrontendError):
        parse("void f() { if (x) {", "t.c")


def test_error_carries_location():
    try:
        parse("void f() {\n  x +=\n}", "t.c")
    except FrontendError as err:
        assert "2" in str(err)
    else:
        raise AssertionError("expected FrontendError")


# -- locations and structural identity -----------------------------------------

def test_every_node_has_a_location():
    unit = parse_src("""
        int g;
        void f(int a) {
            while (a) { a = a - 1; }
            return;
        }
    """)
    for node in iter_tree(unit):
        assert node.location.file == "t.c"
        assert node.location.line >= 1
        assert node.location.column >= 1


def test_locations_point_at_construct_start():
    unit = parse("void f() {\n    x = y;\n}\n", "t.c")
    assign = first(unit, NodeKind.ASSIGN)
    assert (assign.location.line, assign.location.column) == (2, 5)


def test_dump_sexpr_is_deterministic():
    src = "void f(int a) { if (a) g(); }"
    assert dump_sexpr(parse(src, "t.c")) == dump_sexpr(parse(src, "t.c"))


def test_structural_equality_ignores_locations():
    a = parse("void f() { x = 1; }", "t.c")
    b = parse("void f() {\n\n   x  =  1;\n}", "other.c")
    assert structurally_equal(a, b)
    c = parse("void f() { x = 2; }", "t.c")
    assert not structurally_equal(a, c)


_names = st.sampled_from(["a", "b", "c", "x", "y"])


@st.composite
def _exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_names)
    op = draw(st.sampled_from(["+", "-", "*", "==", "&&", "||", "<"]))
    left = draw(_exprs(depth + 1))
    right = draw(_exprs(depth + 1))
    return f"({left} {op} {right})"


@given(_exprs())
def test_parse_to_text_reparse_is_stable(source):
    tree = expr(source)
    rendered = to_text(tree)
    assert structurally_equal(tree, parse_fragment(rendered, file="t.c"))


# -- the operator loop against recursive precedence climbing -------------------

_leaves = st.sampled_from(["a", "b", "x1", "ptr", "0", "7", "0x1f", '"s"'])


def _wrap(tokens, level, most):
    """The tokens of an expression as an operand that allows at most
    `most` (0 postfix, 1 unary, 2 binary, 3 assignment): parenthesized
    if it is looser."""
    return tokens if level <= most else ["(", *tokens, ")"]


def _grow(operands):
    """One operator over expressions drawn from `operands`, each drawn
    as (tokens, level): 0 for a leaf or a postfix expression, 1 for a
    unary, 2 for a binary chain, 3 for an assignment. Arguments, indexes
    and parentheses take any of them, an assignment among them; stacked
    unary prefixes sit over postfix chains (`-*p->f[i](x)`, `!&a.b`)."""
    assign = st.tuples(operands, operands).map(
        lambda t: ([*_wrap(*t[0], 2), "=", *t[1][0]], 3))
    inner = st.one_of(assign, operands)  # inside brackets, any expression
    binary = st.tuples(operands, st.sampled_from(sorted(BINARY_PRECEDENCE)),
                       operands).map(
        lambda t: ([*_wrap(*t[0], 2), t[1], *_wrap(*t[2], 2)], 2))
    unary = st.tuples(st.sampled_from("*&!-"), operands).map(
        lambda t: ([t[0], *_wrap(*t[1], 1)], 1))
    call = st.tuples(operands, st.lists(inner, max_size=3)).map(
        lambda t: ([*_wrap(*t[0], 0), "(",
                    *[tok for i, arg in enumerate(t[1])
                      for tok in ([","] if i else []) + arg[0]], ")"], 0))
    index = st.tuples(operands, inner).map(
        lambda t: ([*_wrap(*t[0], 0), "[", *t[1][0], "]"], 0))
    member = st.tuples(operands, st.sampled_from(["->", "."]),
                       st.sampled_from(["f", "next"])).map(
        lambda t: ([*_wrap(*t[0], 0), t[1], t[2]], 0))
    prefixed = st.tuples(st.lists(st.sampled_from("*&!-"), min_size=2, max_size=4),
                         st.one_of(call, index, member)).map(
        lambda t: ([*t[0], *t[1][0]], 1))
    parens = inner.map(lambda t: (["(", *t[0], ")"], 0))
    return st.one_of(binary, unary, call, index, member, prefixed, assign, parens)


_expressions = st.recursive(_leaves.map(lambda leaf: ([leaf], 0)), _grow,
                            max_leaves=24)


@st.composite
def _laid_out(draw):
    """An expression's source, its tokens apart by blanks and newlines,
    so that every node's location is pinned."""
    tokens, _ = draw(_expressions)
    gaps = draw(st.lists(st.sampled_from([" ", "  ", "\n", "\n\t "]),
                         min_size=len(tokens), max_size=len(tokens)))
    return "".join(gap + token for gap, token in zip(gaps, tokens))


def assert_same_dump(got, want):
    """The s-expression dumps of two trees are equal, locations included.
    A difference is shown as its first line: pytest's own diff of two
    long dumps takes minutes."""
    got, want = dump_sexpr(got).splitlines(), dump_sexpr(want).splitlines()
    if got != want:
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))
        pytest.fail(f"dumps differ at line {line + 1}: "
                    f"{got[line:line + 1]} != {want[line:line + 1]}")


@settings(max_examples=300, deadline=None)
@given(_laid_out())
def test_expressions_parse_as_by_recursive_precedence_climbing(source):
    assert_same_dump(parse_fragment(source), recursive_parse(source))


def test_a_3000_term_sum_file_parses_as_by_recursive_climbing():
    # the shape of the benchmark's hostile nx_sum.c: one long left spine
    source = ("void leak(int v) {\n    mutex_lock(&mx);\n    g(v);\n}\n"
              "void sum(int x) {\n    x = " + " + ".join(["x"] * 3000)
              + ";\n}\n")
    tree = parse(source, "nx_sum.c")
    assert_same_dump(tree, recursive_parse(source, "nx_sum.c", fragment=False))
    spine = first(tree, NodeKind.ASSIGN).children[1]
    for term in range(2999, 0, -1):
        assert spine.kind is NodeKind.BINARY_OP
        assert spine.children[1].location.column == 9 + 4 * term
        spine = spine.children[0]
    assert spine.kind is NodeKind.IDENTIFIER
    assert spine.location == SourceLocation("nx_sum.c", 6, 9)


# -- a long file parsed whole ---------------------------------------------------

def functions(count):
    """`count` locking functions, with globals and comments between."""
    return "".join(
        f"int g{i}, *h{i};\n/* function {i}\n   of {count} */\n"
        f"void f{i}(int *p) {{\n    mutex_lock(&m);\n"
        f"    g{i} = *p + {i};\n    if (g{i}) {{ use(\"a\\\nb\"); }}\n"
        f"    mutex_unlock(&m);\n}}\n" for i in range(count))


FILLER = functions(300)  # about 47 KB


def test_a_file_of_many_chunks_parses_as_a_whole_one():
    assert_same_dump(parse(FILLER, "t.c"),
                     recursive_parse(FILLER, "t.c", fragment=False))


@pytest.mark.parametrize("head, error", [
    ("int x = ;\n", "t.c:1:9: expected expression, found ';'"),
    ("void f(int c) {\n" + "if (c) {\n" * 400 + "}\n" * 400 + "}\n",
     "t.c:1:1: nesting too deep"),
])
def test_a_lexical_error_far_past_another_error_wins(head, error):
    with pytest.raises(FrontendError) as err:
        parse(head + FILLER, "t.c")
    assert str(err.value) == error
    with pytest.raises(FrontendError) as err:
        parse(head + FILLER + "int y = @;\n", "t.c")
    line = (head + FILLER).count("\n") + 1
    assert str(err.value) == f"t.c:{line}:9: unexpected character '@'"


# -- the node contract ------------------------------------------------------------

NODE_FIELDS = ("kind", "location", "text", "children", "ctype", "end_location")


def test_structurally_equal_nodes_are_distinct():
    a, b = expr("f(x)"), expr("f(x)")
    assert structurally_equal(a, b)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_a_node_has_only_its_fields():
    node = expr("x")
    assert not hasattr(node, "__dict__")
    assert AstNode.__slots__ == NODE_FIELDS
    with pytest.raises(AttributeError):
        node.extra = 1


def test_positional_and_keyword_construction_agree():
    loc, end = SourceLocation("t.c", 1, 2), SourceLocation("t.c", 3, 1)
    leaf = AstNode(NodeKind.IDENTIFIER, loc, "x")
    by_position = AstNode(NodeKind.BLOCK, loc, "t", (leaf,), "int", end)
    by_keyword = AstNode(kind=NodeKind.BLOCK, location=loc, text="t",
                         children=(leaf,), ctype="int", end_location=end)
    assert ([getattr(by_position, name) for name in NODE_FIELDS]
            == [getattr(by_keyword, name) for name in NODE_FIELDS])
    assert [getattr(leaf, name) for name in NODE_FIELDS] == [
        NodeKind.IDENTIFIER, loc, "x", (), "", None]


def _corpus():
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.c"))):
        with open(path, encoding="utf-8") as handle:
            yield path, handle.read()


def test_corpus_trees_equal_those_of_recursive_climbing(monkeypatch):
    """Trees of the corpus, and what `structurally_equal`, `to_text`
    and `map_expression_to_caller` make of them, are those of the
    recursive expression parser."""
    mapped = 0
    for path, source in _corpus():
        new = build_unit_from_text(source, path)
        with monkeypatch.context() as patch:
            patch.setattr(units, "parse", lambda text, file: recursive_parse(
                text, file, fragment=False))
            old = build_unit_from_text(source, path)
        assert_same_dump(new.ast, old.ast)
        assert structurally_equal(new.ast, old.ast)
        pairs = list(zip(iter_tree(new.ast), iter_tree(old.ast)))
        for a, b in pairs:
            if a.kind in EXPRESSION_KINDS:
                assert to_text(a) == to_text(b)
        calls = [(a, b) for a, b in pairs if a.kind is NodeKind.CALL
                 and a.children[0].text in new.functions]
        for call, old_call in calls:
            callee = call.children[0].text
            body = zip(iter_tree(new.functions[callee]),
                       iter_tree(old.functions[callee]))
            for a, b in body:
                if a.kind not in EXPRESSION_KINDS:
                    continue
                got = map_expression_to_caller(a, call, new)
                want = map_expression_to_caller(b, old_call, old)
                assert (got is None) == (want is None)
                if got is not None:
                    assert_same_dump(got, want)
                    mapped += 1
    assert mapped  # not vacuous
