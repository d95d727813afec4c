import pytest
from hypothesis import given, strategies as st

from cbugscan.errors import FrontendError
from cbugscan.frontend import tokenize
from cbugscan.frontend.lexer import KEYWORDS


def kinds(source):
    return [t.kind for t in tokenize(source, "t.c")]


def texts(source):
    return [t.text for t in tokenize(source, "t.c") if t.kind != "eof"]


def test_simple_statement():
    toks = tokenize("x = y + 1;", "t.c")
    assert [(t.kind, t.text) for t in toks] == [
        ("ident", "x"), ("=", "="), ("ident", "y"), ("+", "+"),
        ("number", "1"), (";", ";"), ("eof", ""),
    ]


def test_keywords_are_distinct_kind():
    toks = tokenize("while if return int", "t.c")
    assert [t.kind for t in toks[:-1]] == ["while", "if", "return", "int"]


def test_multichar_operators_win():
    assert texts("a && b || c == d != e <= f >= g -> h") == [
        "a", "&&", "b", "||", "c", "==", "d", "!=", "e", "<=",
        "f", ">=", "g", "->", "h",
    ]
    # single & directly before another & must not split
    assert [t.kind for t in tokenize("&&", "t.c")][0] == "&&"


def test_locations_track_lines_and_columns():
    toks = tokenize("a\n  bb\n", "t.c")
    a, bb = toks[0], toks[1]
    assert (a.location.line, a.location.column) == (1, 1)
    assert (bb.location.line, bb.location.column) == (2, 3)
    assert a.location.file == "t.c"


def test_comments_skipped():
    assert texts("a /* comment \n more */ b // trailing\nc") == ["a", "b", "c"]


def test_preprocessor_lines_skipped():
    source = "#include <foo.h>\nx;\n# 12 \"orig.c\"\ny;"
    assert texts(source) == ["x", ";", "y", ";"]


def test_line_markers_set_the_next_line_and_file():
    source = ('a\n# 7 "orig.c" 2\nb\n#line 20\nc\n'
              '  #line 3 "x\\\\y.c"\nd\n#define N 9\ne')
    assert [(t.text, t.location.file, t.location.line, t.location.column)
            for t in tokenize(source, "t.c")] == [
        ("a", "t.c", 1, 1), ("b", "orig.c", 7, 1), ("c", "orig.c", 20, 1),
        ("d", "x\\y.c", 3, 1), ("e", "x\\y.c", 5, 1), ("", "x\\y.c", 5, 2)]


def test_hex_and_decimal_literals():
    toks = tokenize("0x1F 42 0", "t.c")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("number", "0x1F"), ("number", "42"), ("number", "0"),
    ]


def test_string_literal():
    toks = tokenize('f("hi\\"there");', "t.c")
    assert toks[2].kind == "string"
    assert toks[2].text == '"hi\\"there"'


def test_metavar_requires_flag():
    toks = tokenize("%X + 1", "t.c", metavars=True)
    assert toks[0].kind == "metavar"
    assert toks[0].text == "X"
    # without the flag, % stays a modulo operator
    assert [t.kind for t in tokenize("a %X b", "t.c")[:3]] == [
        "ident", "%", "ident"]


def test_modulo_still_lexes_in_source():
    assert [t.kind for t in tokenize("a % b", "t.c")[:3]] == [
        "ident", "%", "ident"]


def test_bad_character_raises_with_location():
    with pytest.raises(FrontendError) as err:
        tokenize("a\n  $", "t.c")
    assert "2" in str(err.value)


def test_eof_token_always_last():
    assert tokenize("", "t.c")[-1].kind == "eof"
    assert tokenize("x", "t.c")[-1].kind == "eof"


_ident = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)


@given(st.lists(_ident, min_size=1, max_size=8))
def test_whitespace_never_changes_token_stream(names):
    compact = ";".join(names)
    spaced = " ;\n\t ".join(names)
    left = [(t.kind, t.text) for t in tokenize(compact, "t.c")]
    right = [(t.kind, t.text) for t in tokenize(spaced, "t.c")]
    assert left == right


# (source, metavars, expected): expected is the (kind, text, line, column)
# list without the eof token, or the exact FrontendError text.
_EDGE_CASES = [
    # a '#' after a comment is still at line start
    ("/* c */ #x\ny", False, [("ident", "y", 2, 1)]),
    ("a # b", False, "t.c:1:3: unexpected character '#'"),
    # a newline inside a comment does not start a line
    ("a/*\n*/#z", False, "t.c:2:3: unexpected character '#'"),
    ('"a\\\nb" c', False, [("string", '"a\\\nb"', 1, 1), ("ident", "c", 2, 4)]),
    ("0x", False, "t.c:1:1: malformed number near '0x'"),
    ("12ab", False, "t.c:1:1: malformed number near '12a'"),
    ("0x1G", False, "t.c:1:1: malformed number near '0x1G'"),
    ("a /* open", False, "t.c:1:3: unterminated comment"),
    ("/*/", False, "t.c:1:1: unterminated comment"),
    ('"abc', False, "t.c:1:1: unterminated string literal"),
    ('"abc\nd"', False, "t.c:1:1: unterminated string literal"),
    ('"\\', False, "t.c:1:1: unterminated string literal"),
    ("%1", True, [("%", "%", 1, 1), ("number", "1", 1, 2)]),
    ("\tx\r\ny", False, [("ident", "x", 1, 2), ("ident", "y", 2, 1)]),
    ("é", False, "t.c:1:1: unexpected character 'é'"),
    ("a*/", False, [("ident", "a", 1, 1), ("*", "*", 1, 2), ("/", "/", 1, 3)]),
    # number tokens are C literals: decimal, octal after a 0, hex after 0x
    ("08", False, "t.c:1:1: malformed number near '08'"),
    ("x = 0129;", False, "t.c:1:5: malformed number near '0129'"),
    ("010 0X1f 0 9", False, [("number", "010", 1, 1), ("number", "0X1f", 1, 5),
                             ("number", "0", 1, 10), ("number", "9", 1, 12)]),
]


@pytest.mark.parametrize("source,metavars,expected", _EDGE_CASES)
def test_edge_cases(source, metavars, expected):
    if isinstance(expected, str):
        with pytest.raises(FrontendError) as err:
            tokenize(source, "t.c", metavars)
        assert str(err.value) == expected
        return
    toks = tokenize(source, "t.c", metavars)
    assert toks[-1].kind == "eof"
    assert [(t.kind, t.text, t.location.line, t.location.column)
            for t in toks[:-1]] == expected
