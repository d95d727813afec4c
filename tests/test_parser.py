import textwrap

import pytest
from hypothesis import given, strategies as st

from cbugscan.errors import FrontendError
from cbugscan.frontend import (
    NodeKind,
    dump_sexpr,
    iter_tree,
    parse,
    parse_fragment,
    structurally_equal,
    to_text,
)


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
