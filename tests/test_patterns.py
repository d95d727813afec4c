import pytest

from cbugscan.errors import PatternError
from cbugscan.frontend import iter_tree, parse_fragment, to_text
from cbugscan.patterns import compile_pattern, first_binding, match_node


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
