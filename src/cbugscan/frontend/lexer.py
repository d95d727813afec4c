"""Tokenizer for the C subset and for pattern templates.

One master regular expression, with one named group per token class,
splits the source into one match per token (a comment or a directive
counts as one): the blank run before a token is the match's prefix, so
blanks cost no match of their own. The same pass counts lines. A
newline can sit only in a blank run, in a block comment or in a string
continued by a backslash-newline, so only those move the physical line
on (by their count of newlines) and the offset where that line starts
(after their last newline); a token's column is its offset, the end of
its blank prefix, minus that start, and no table of line starts is
built or searched. Tokens and their locations are named tuples
(`Token`, `SourceLocation`).
Pattern templates reuse the same token stream with metavariables enabled,
so `%NAME` lexes as a single metavariable token there; in ordinary source
the `%` stays a modulo operator.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from cbugscan.errors import FrontendError
from cbugscan.frontend.ast_nodes import SourceLocation

KEYWORDS = frozenset({
    "break", "char", "continue", "else", "for", "goto", "if", "int",
    "return", "struct", "void", "while",
})

# Every match is a blank run (group 1, maybe empty) and then one token.
# Its alternatives are tried in order: comments before "/", multi-character
# operators before their prefixes, and each open_* group only catches
# what the well-formed class before it rejected. A number is a C
# decimal, octal or hex integer literal, a kind apart from the `int`
# keyword; bad_number is a letter or digit that cannot continue it
# (`12ab`, `0x`, `08`). eof matches only where nothing else can.
_CLASSES = r"""
    (?P<blank>[ \t\n\r\f\v]*)
  (?:
    (?P<comment>//[^\n]*|/\*(?s:.*?)\*/)
  | (?P<open_comment>/\*)
  | (?P<directive>\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*)(?P<bad_number>[A-Za-z0-9_])?
  | (?P<string>"(?:[^"\\\n]|\\(?s:.))*")
  | (?P<open_string>")
  | """
_METAVAR = r"(?P<metavar>%[A-Za-z_][A-Za-z0-9_]*) | "
_OPERATORS = r"""
    (?P<punct>&&|\|\||[=!<>]=|->|[-(){}\[\];,=<>+*/%&!.:])
  | (?P<other>.)
  | (?P<eof>\Z)
  )
"""
_SOURCE_TOKEN = re.compile(_CLASSES + _OPERATORS, re.VERBOSE)
_TEMPLATE_TOKEN = re.compile(_CLASSES + _METAVAR + _OPERATORS, re.VERBOSE)

# `# N "FILE" flags...` (cpp output) and `#line N "FILE"`.
_LINE_MARKER = re.compile(
    r'#[ \t]*(?:line[ \t]+)?([0-9]+)(?:[ \t]+"((?:[^"\\]|\\.)*)")?(?:[ \t]|$)')


class Token(NamedTuple):
    # "ident", "number", "string", "metavar", "eof", or a keyword's or
    # an operator's own text
    kind: str
    text: str
    location: SourceLocation


def int_value(text: str) -> int:
    """The value of a number token, by C rules: a leading `0x` means hex,
    a leading `0` octal."""
    if text[:2] in ("0x", "0X"):
        return int(text, 16)
    return int(text, 8 if text[0] == "0" else 10)


def tokenize(source: str, file: str, metavars: bool = False) -> list[Token]:
    """Split source into tokens; raises FrontendError at the first bad char.

    Comments are skipped. Lines whose first non-blank character is `#`
    (preprocessor directives) are skipped as well since the frontend
    expects preprocessed input; a line marker among them (`# N "FILE"`
    or `#line N ["FILE"]`) makes the next line line N of FILE.
    """
    line = 1        # line number of the current match, as markers set it
    line_start = 0  # offset where its physical line starts
    tokens: list[Token] = []
    append = tokens.append
    # tuple.__new__ builds a record without the NamedTuple's Python-level
    # __new__, which would be one more call per token
    new = tuple.__new__
    at_line_start = True
    regex = _TEMPLATE_TOKEN if metavars else _SOURCE_TOKEN
    for m in regex.finditer(source):
        blank = m[1]
        if "\n" in blank:
            at_line_start = True
            line += blank.count("\n")
            line_start = m.start() + blank.rindex("\n") + 1
        kind = m.lastgroup
        text = m[kind]
        if kind == "directive" and at_line_start:
            marker = _LINE_MARKER.match(text)
            if marker:
                # the marker's own line counts as line N - 1
                line = int(marker[1]) - 1
                if marker[2] is not None:
                    file = re.sub(r"\\(.)", r"\1", marker[2])
            continue
        start = m.end(1)
        if kind != "comment":
            at_line_start = False
            where = new(SourceLocation, (file, line, start - line_start + 1))
            if kind == "ident":
                append(new(Token, (text if text in KEYWORDS else "ident",
                                   text, where)))
            elif kind == "punct":
                append(new(Token, (text, text, where)))
            elif kind in ("number", "string"):
                append(new(Token, (kind, text, where)))
            elif kind == "metavar":
                append(new(Token, ("metavar", text[1:], where)))
            elif kind == "eof":
                # after a trailing blank run the end would match again,
                # empty, and make a second eof
                append(new(Token, ("eof", text, where)))
                break
            elif kind == "open_comment":
                raise FrontendError("unterminated comment", where)
            elif kind == "open_string":
                raise FrontendError("unterminated string literal", where)
            elif kind == "bad_number":
                raise FrontendError(
                    f"malformed number near {source[start:m.end()]!r}", where)
            else:
                raise FrontendError(f"unexpected character {text[0]!r}", where)
        if "\n" in text:
            # only a block comment or a string continued by a
            # backslash-newline spans lines
            line += text.count("\n")
            line_start = start + text.rindex("\n") + 1
    return tokens
