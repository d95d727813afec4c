"""Tokenizer for the C subset and for pattern templates.

One master regular expression, with one named group per token class,
splits the source; lines and columns come from the offsets of newlines.
Pattern templates reuse the same token stream with metavariables enabled,
so `%NAME` lexes as a single metavariable token there; in ordinary source
the `%` stays a modulo operator.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from cbugscan.errors import FrontendError
from cbugscan.frontend.ast_nodes import SourceLocation

KEYWORDS = frozenset({
    "break", "char", "continue", "else", "for", "goto", "if", "int",
    "return", "struct", "void", "while",
})

# Alternatives are tried in order: comments before "/", multi-character
# operators before their prefixes, and each open_* group only catches
# what the well-formed class before it rejected. A number is a C
# decimal, octal or hex integer literal, a kind apart from the `int`
# keyword; bad_number is a letter or digit that cannot continue it
# (`12ab`, `0x`, `08`). eof matches only where nothing else can.
_CLASSES = r"""
    (?P<space>[ \t\n\r\f\v]+)
  | (?P<comment>//[^\n]*|/\*(?s:.*?)\*/)
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
"""
_SOURCE_TOKEN = re.compile(_CLASSES + _OPERATORS, re.VERBOSE)
_TEMPLATE_TOKEN = re.compile(_CLASSES + _METAVAR + _OPERATORS, re.VERBOSE)

# `# N "FILE" flags...` (cpp output) and `#line N "FILE"`.
_LINE_MARKER = re.compile(
    r'#[ \t]*(?:line[ \t]+)?([0-9]+)(?:[ \t]+"((?:[^"\\]|\\.)*)")?(?:[ \t]|$)')


@dataclass(frozen=True)
class Token:
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
    line_starts = [0]
    line_starts.extend(m.end() for m in re.finditer("\n", source))
    shift = 0  # logical minus physical line number, set by line markers
    tokens: list[Token] = []
    at_line_start = True
    regex = _TEMPLATE_TOKEN if metavars else _SOURCE_TOKEN
    for m in regex.finditer(source):
        kind = m.lastgroup
        text = m[0]
        if kind == "space":
            at_line_start = at_line_start or "\n" in text
            continue
        if kind == "comment":
            continue
        if kind == "directive" and at_line_start:
            marker = _LINE_MARKER.match(text)
            if marker:
                shift = int(marker[1]) - bisect_right(line_starts, m.start()) - 1
                if marker[2] is not None:
                    file = re.sub(r"\\(.)", r"\1", marker[2])
            continue
        at_line_start = False
        start = m.start()
        row = bisect_right(line_starts, start)
        where = SourceLocation(file, row + shift, start - line_starts[row - 1] + 1)
        if kind == "ident":
            tokens.append(Token(text if text in KEYWORDS else "ident", text, where))
        elif kind == "punct":
            tokens.append(Token(text, text, where))
        elif kind in ("number", "string", "eof"):
            tokens.append(Token(kind, text, where))
        elif kind == "metavar":
            tokens.append(Token("metavar", text[1:], where))
        elif kind == "open_comment":
            raise FrontendError("unterminated comment", where)
        elif kind == "open_string":
            raise FrontendError("unterminated string literal", where)
        elif kind == "bad_number":
            raise FrontendError(f"malformed number near {text!r}", where)
        else:
            raise FrontendError(f"unexpected character {text[0]!r}", where)
    return tokens
