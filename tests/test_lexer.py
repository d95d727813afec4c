import pytest
from hypothesis import given, settings, strategies as st

from cbugscan.errors import FrontendError
from cbugscan.frontend import tokenize
from cbugscan.frontend.lexer import KEYWORDS

from oracles import bisected_tokens


def kinds(source):
    return [t[0] for t in tokenize(source, "t.c")]


def texts(source):
    return [t[1] for t in tokenize(source, "t.c") if t[0] != "eof"]


def test_simple_statement():
    toks = tokenize("x = y + 1;", "t.c")
    assert [(t[0], t[1]) for t in toks] == [
        ("ident", "x"), ("=", "="), ("ident", "y"), ("+", "+"),
        ("number", "1"), (";", ";"), ("eof", ""),
    ]
    assert all(type(t) is tuple for t in toks)


def test_keywords_are_distinct_kind():
    toks = tokenize("while if return int", "t.c")
    assert [t[0] for t in toks[:-1]] == ["while", "if", "return", "int"]


def test_multichar_operators_win():
    assert texts("a && b || c == d != e <= f >= g -> h") == [
        "a", "&&", "b", "||", "c", "==", "d", "!=", "e", "<=",
        "f", ">=", "g", "->", "h",
    ]
    # single & directly before another & must not split
    assert [t[0] for t in tokenize("&&", "t.c")][0] == "&&"


def test_locations_track_lines_and_columns():
    toks = tokenize("a\n  bb\n", "t.c")
    a, bb = toks[0], toks[1]
    assert (a[2].line, a[2].column) == (1, 1)
    assert (bb[2].line, bb[2].column) == (2, 3)
    assert a[2].file == "t.c"


def test_comments_skipped():
    assert texts("a /* comment \n more */ b // trailing\nc") == ["a", "b", "c"]


def test_preprocessor_lines_skipped():
    source = "#include <foo.h>\nx;\n# 12 \"orig.c\"\ny;"
    assert texts(source) == ["x", ";", "y", ";"]


def test_line_markers_set_the_next_line_and_file():
    source = ('a\n# 7 "orig.c" 2\nb\n#line 20\nc\n'
              '  #line 3 "x\\\\y.c"\nd\n#define N 9\ne')
    assert [(t[1], t[2].file, t[2].line, t[2].column)
            for t in tokenize(source, "t.c")] == [
        ("a", "t.c", 1, 1), ("b", "orig.c", 7, 1), ("c", "orig.c", 20, 1),
        ("d", "x\\y.c", 3, 1), ("e", "x\\y.c", 5, 1), ("", "x\\y.c", 5, 2)]


def test_hex_and_decimal_literals():
    toks = tokenize("0x1F 42 0", "t.c")
    assert [(t[0], t[1]) for t in toks[:-1]] == [
        ("number", "0x1F"), ("number", "42"), ("number", "0"),
    ]


def test_string_literal():
    toks = tokenize('f("hi\\"there");', "t.c")
    assert toks[2][0] == "string"
    assert toks[2][1] == '"hi\\"there"'


def test_metavar_requires_flag():
    toks = tokenize("%X + 1", "t.c", metavars=True)
    assert toks[0][0] == "metavar"
    assert toks[0][1] == "X"
    # without the flag, % stays a modulo operator
    assert [t[0] for t in tokenize("a %X b", "t.c")[:3]] == [
        "ident", "%", "ident"]


def test_modulo_still_lexes_in_source():
    assert [t[0] for t in tokenize("a % b", "t.c")[:3]] == [
        "ident", "%", "ident"]


def test_bad_character_raises_with_location():
    with pytest.raises(FrontendError) as err:
        tokenize("a\n  $", "t.c")
    assert "2" in str(err.value)


def test_eof_token_always_last():
    assert tokenize("", "t.c")[-1][0] == "eof"
    assert tokenize("x", "t.c")[-1][0] == "eof"


_ident = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)


@given(st.lists(_ident, min_size=1, max_size=8))
def test_whitespace_never_changes_token_stream(names):
    compact = ";".join(names)
    spaced = " ;\n\t ".join(names)
    left = [(t[0], t[1]) for t in tokenize(compact, "t.c")]
    right = [(t[0], t[1]) for t in tokenize(spaced, "t.c")]
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
    # each match is a token with the blanks before it: trailing blanks
    # still end in exactly one eof, and columns skip the blanks
    ("goto ", False, [("goto", "goto", 1, 1)]),
    ("x\n\n", False, [("ident", "x", 1, 1)]),
    ("  12ab", False, "t.c:1:3: malformed number near '12a'"),
    ('x\n  # 5 "f.c"\ny', False, [("ident", "x", 1, 1), ("ident", "y", 5, 1)]),
    ("a\f\vb", False, [("ident", "a", 1, 1), ("ident", "b", 1, 4)]),
    ("x \r\n#line 9\ny", False, [("ident", "x", 1, 1), ("ident", "y", 9, 1)]),
]


@pytest.mark.parametrize("source,metavars,expected", _EDGE_CASES)
def test_edge_cases(source, metavars, expected):
    if isinstance(expected, str):
        with pytest.raises(FrontendError) as err:
            tokenize(source, "t.c", metavars)
        assert str(err.value) == expected
        return
    toks = tokenize(source, "t.c", metavars)
    assert [t[0] for t in toks].count("eof") == 1
    assert toks[-1][0] == "eof"
    assert [(t[0], t[1], t[2].line, t[2].column)
            for t in toks[:-1]] == expected


# Pieces of a source for the location property; every gap between two
# pieces holds some whitespace, so markers land at line start only when
# the gap or the piece itself starts a line. A source may hold one bad
# piece: a comment or string left open, a malformed number, a character
# no token starts with, or a `#` that is not first on its line.
_marker_file = st.sampled_from(["a.c", "dir/b.h", "x\\\\y.c"])
_piece = st.one_of(
    _ident,
    st.sampled_from(list(KEYWORDS)),
    st.from_regex(r"0|[1-9][0-9]{0,4}|0x[0-9a-f]{1,3}", fullmatch=True),
    st.sampled_from(["(", ")", "{", "}", ";", ",", "&&", "->", "==", "*", "/", "%"]),
    st.from_regex(r"// [a-z *#/]{0,8}\n", fullmatch=True),
    st.from_regex(r"/\* ?[a-z#]{0,4}(\n[a-z ]{0,4}){0,3} ?\*/", fullmatch=True),
    st.from_regex(r'"[a-z ]{0,3}(\\\n[a-z ]{0,3}){0,2}"', fullmatch=True),
    st.builds(lambda n, f, lead: f'{lead}# {n} "{f}" 2\n',
              st.integers(1, 500), _marker_file, st.sampled_from(["\n", "\n/* c */ "])),
    st.builds(lambda n, lead: f"{lead}#line {n}\n",
              st.integers(1, 500), st.sampled_from(["\n", "\n\t/* c */"])),
    st.builds(lambda n, f: f'\n#line {n} "{f}"\n', st.integers(1, 500), _marker_file),
    st.from_regex(r"%[A-Za-z_][a-z0-9]{0,3}", fullmatch=True),
)
_bad_piece = st.sampled_from(["/*", '"', "08", "0x", "12ab", "@", "'", "é", "#"])
_gap = st.sampled_from([" ", "\t", "\n", "\r\n", "  \t", "\n\n"])


def outcome(lex):
    """What `lex()` gives: its tokens, or its error's message and location."""
    try:
        return lex()
    except FrontendError as err:
        return err.message, err.location


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_piece, _gap), max_size=30),
       st.one_of(st.just(""), _bad_piece), st.integers(0, 30), st.booleans())
def test_locations_equal_the_bisection_oracle(parts, bad, at, metavars):
    parts.insert(at, (bad, " "))
    source = "".join(piece + gap for piece, gap in parts)
    assert outcome(lambda: [(t[0], t[1], *t[2])
                            for t in tokenize(source, "t.c", metavars)]
                   ) == outcome(lambda: bisected_tokens(source, "t.c", metavars))
