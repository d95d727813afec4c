"""Tokenizer for the C subset and for pattern templates.

One master regular expression splits the source into one match per token
(a comment or a directive counts as one), and a match is two strings:
the blank run before the token, so blanks cost no match of their own,
and the token's text. An operator or a keyword is its own kind; any
other token's kind is read off its first character. Texts with no kind
are decided off that path: comments, directives, strings, metavariables,
and the empty text matched at the end or where no token can start (an
unterminated comment or string, a malformed number, a stray character).
A token is a plain tuple `(kind, text, location)`, built by a tuple
display, with a `SourceLocation` as its location; `Token` names that
shape. The same pass counts lines: only a blank run, a block comment or
a string continued by a backslash-newline holds newlines, so only those
move the line on and set the offset of the newline before the line,
from which a token's column follows.
Pattern templates reuse the same token stream with metavariables enabled,
so `%NAME` lexes as a single metavariable token there; in ordinary source
the `%` stays a modulo operator.
"""

from __future__ import annotations

import re
import string

from cbugscan.errors import FrontendError
from cbugscan.frontend.ast_nodes import SourceLocation

KEYWORDS = frozenset({
    "break", "char", "continue", "else", "for", "goto", "if", "int",
    "return", "struct", "void", "while",
})
_OPERATORS = "&& || == != <= >= -> - ( ) { } [ ] ; , = < > + * / % & ! . :".split()

# Every match is a blank run (group 1, maybe empty) and then one token's
# text (group 2). Its alternatives are tried in order: comments before
# "/", and multi-character operators before their prefixes. A number is
# a C decimal, octal or hex integer literal, a kind apart from the `int`
# keyword, and no letter or digit may follow it (`12ab`, `0x`, `08`).
# The last alternative is empty.
_NUMBER = r"(?:0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*)"
_BLANK_AND_TOKEN = r"""
    ([ \t\n\r\f\v]*)
    ( //[^\n]* | /\*(?s:.*?)\*/ | \#[^\n]* | [A-Za-z_][A-Za-z0-9_]*
    | """ + _NUMBER + r"""(?![A-Za-z0-9_]) | "(?:[^"\\\n]|\\(?s:.))*"
    | """
_METAVAR = r"%[A-Za-z_][A-Za-z0-9_]* | "
_OPERATOR = r"&&|\|\||[=!<>]=|->|[-(){}\[\];,=<>+*%&!.:]|/(?!\*) | )"
_SOURCE_TOKENS = re.compile(_BLANK_AND_TOKEN + _OPERATOR, re.VERBOSE).findall
_TEMPLATE_TOKENS = re.compile(
    _BLANK_AND_TOKEN + _METAVAR + _OPERATOR, re.VERBOSE).findall
_BAD_NUMBER = re.compile(_NUMBER + "[A-Za-z0-9_]")

_KIND_OF_TEXT = {text: text for text in (*_OPERATORS, *KEYWORDS)}
# the kind of any other text, by its first character; "" decides off path
_KIND_OF_FIRST = {**dict.fromkeys(string.ascii_letters + "_", "ident"),
                  **dict.fromkeys(string.digits, "number"),
                  **dict.fromkeys(("/", "#", '"', "%", ""), "")}

# `# N "FILE" flags...` (cpp output) and `#line N "FILE"`.
_LINE_MARKER = re.compile(
    r'#[ \t]*(?:line[ \t]+)?([0-9]+)(?:[ \t]+"((?:[^"\\]|\\.)*)")?(?:[ \t]|$)')


# (kind, text, location): the kind is "ident", "number", "string",
# "metavar", "eof", or a keyword's or an operator's own text
Token = tuple[str, str, SourceLocation]


def tokenize(source: str, file: str, metavars: bool = False) -> list[Token]:
    """Split source into tokens; raises FrontendError at the first bad char.

    Comments are skipped. Lines whose first non-blank character is `#`
    (preprocessor directives) are skipped as well since the frontend
    expects preprocessed input; a line marker among them (`# N "FILE"`
    or `#line N ["FILE"]`) makes the next line line N of FILE.
    """
    line = 1       # line number of the current token, as markers set it
    newline = -1   # offset of the newline before its physical line
    start = 0      # offset of the current token
    tokens: list[Token] = []
    line_first = 0  # len(tokens) at the start of the current line
    append = tokens.append
    # tuple.__new__ builds a location without the NamedTuple's
    # Python-level __new__, which would be one more call per token
    new = tuple.__new__
    kind_of_text = _KIND_OF_TEXT
    kind_of_first = _KIND_OF_FIRST
    for blank, text in (_TEMPLATE_TOKENS if metavars else _SOURCE_TOKENS)(source):
        if blank:
            if "\n" in blank:
                line += blank.count("\n")
                newline = start + blank.rindex("\n")
                line_first = len(tokens)
            start += len(blank)
        kind = kind_of_text.get(text) or kind_of_first[text[:1]]
        if kind:
            append((kind, text, new(
                SourceLocation, (file, line, start - newline))))
            start += len(text)
            continue
        where = new(SourceLocation, (file, line, start - newline))
        if not text:
            if start < len(source):  # no token starts here
                number = _BAD_NUMBER.match(source, start)
                raise FrontendError(
                    f"malformed number near {number[0]!r}" if number
                    else "unterminated comment" if source.startswith("/*", start)
                    else "unterminated string literal" if source[start] == '"'
                    else f"unexpected character {source[start]!r}", where)
            append(("eof", text, where))
            # after a trailing blank run the end matches again, empty
            break
        lead = text[0]
        if lead == "#":
            if line_first != len(tokens):
                raise FrontendError("unexpected character '#'", where)
            marker = _LINE_MARKER.match(text)
            if marker:
                # the marker's own line counts as line N - 1
                line = int(marker[1]) - 1
                if marker[2] is not None:
                    file = re.sub(r"\\(.)", r"\1", marker[2])
        elif lead == "%":
            append(("metavar", text[1:], where))
        else:
            if lead == '"':
                append(("string", text, where))
            if "\n" in text:
                # only a block comment or a string continued by a
                # backslash-newline spans lines
                line += text.count("\n")
                newline = start + text.rindex("\n")
        start += len(text)
    return tokens
