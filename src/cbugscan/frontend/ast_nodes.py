"""AST node and source location types for the C-subset frontend.

Nodes are plain trees: a kind tag, an optional token text, an ordered
child tuple, and the source location of the node's first token. A node
is a `__slots__` object equal only to itself; structural operations
(`structurally_equal`, matching, printing) ignore locations.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Iterator, NamedTuple


class SourceLocation(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class NodeKind(Enum):
    TRANSLATION_UNIT = "TranslationUnitRoot"
    FUNCTION_DEF = "FunctionDef"
    PARAM_DECL = "ParamDecl"
    VAR_DECL = "VarDecl"
    BLOCK = "Block"
    IF = "If"
    WHILE = "While"
    FOR = "For"
    RETURN = "Return"
    GOTO = "Goto"
    LABEL = "Label"
    BREAK = "Break"
    CONTINUE = "Continue"
    EXPR_STATEMENT = "ExprStatement"
    EMPTY_STATEMENT = "EmptyStatement"
    ASSIGN = "Assign"
    BINARY_OP = "BinaryOp"
    UNARY_OP = "UnaryOp"
    CALL = "Call"
    MEMBER = "Member"
    INDEX = "Index"
    IDENTIFIER = "Identifier"
    INT_LITERAL = "IntLiteral"
    STRING_LITERAL = "StringLiteral"
    META_VAR = "MetaVar"

    # Members are singletons compared by identity; the identity hash
    # spares the Python-level `Enum.__hash__` on every lookup by kind.
    __hash__ = object.__hash__


# UnaryOp.text values and their C spellings.
UNARY_SYMBOL = {"deref": "*", "addrof": "&", "not": "!", "neg": "-"}

EXPRESSION_KINDS = frozenset({
    NodeKind.ASSIGN, NodeKind.BINARY_OP, NodeKind.UNARY_OP, NodeKind.CALL,
    NodeKind.MEMBER, NodeKind.INDEX, NodeKind.IDENTIFIER,
    NodeKind.INT_LITERAL, NodeKind.STRING_LITERAL, NodeKind.META_VAR,
})


class AstNode:
    """One tree node, compared and hashed by identity, so tables may key
    nodes by `id()`. A unit builds about one per token, so it is a
    plain `__slots__` class, and the parser passes fields by position."""

    __slots__ = ("kind", "location", "text", "children", "ctype", "end_location")

    def __init__(self, kind: NodeKind, location: SourceLocation, text: str = "",
                 children: tuple[AstNode, ...] = (), ctype: str = "",
                 end_location: SourceLocation | None = None) -> None:
        self.kind = kind
        self.location = location
        self.text = text
        self.children = children
        # Declared type spelling for FunctionDef/ParamDecl/VarDecl; informational.
        self.ctype = ctype
        # Closing-brace location for Block nodes; the CFG exit node borrows it.
        self.end_location = end_location

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind.value} {self.text!r} at {self.location}>"


def iter_tree(node: AstNode) -> Iterator[AstNode]:
    """Yield node and all descendants in preorder."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(cur.children))


def structurally_equal(a: AstNode, b: AstNode) -> bool:
    """Compare kind, text, and children at every depth; locations are
    ignored. Pairs wait on an explicit stack, so depth costs no frames."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if (x.kind is not y.kind or x.text != y.text
                or len(x.children) != len(y.children)):
            return False
        pending.extend(zip(x.children, y.children))
    return True


_LEAF_KINDS = frozenset({NodeKind.IDENTIFIER, NodeKind.INT_LITERAL, NodeKind.STRING_LITERAL})
_PREC_ASSIGN = 1
_PREC_UNARY = 8
_PREC_POSTFIX = 9

# Binding strength of each binary operator, higher binds tighter; the
# parser and to_text both read it. Assignment (1) binds looser than every
# binary operator, unary and postfix operators (8, 9) tighter.
BINARY_PRECEDENCE = {
    "||": 2, "&&": 3,
    "==": 4, "!=": 4,
    "<": 5, ">": 5, "<=": 5, ">=": 5,
    "+": 6, "-": 6,
    "*": 7, "/": 7, "%": 7,
}


def to_text(node: AstNode) -> str:
    """Render an expression back to canonical C text.

    Parenthesization is normalized: structurally equal trees always render
    to the same string, which makes the output usable as a map key.
    """
    out: list[str] = []
    # pending pieces, next one last: text, or (subtree, context precedence)
    stack: list = [(node, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, ctx = item
        kind = node.kind
        if kind in _LEAF_KINDS:
            out.append(node.text)
            continue
        if kind is NodeKind.META_VAR:
            out.append("%" + node.text)
            continue
        children = node.children
        if kind is NodeKind.BINARY_OP:
            prec = BINARY_PRECEDENCE[node.text]
            pieces = ((children[0], prec), f" {node.text} ", (children[1], prec + 1))
        elif kind is NodeKind.CALL:
            prec = _PREC_POSTFIX
            pieces = [(children[0], _PREC_POSTFIX), "("]
            for i, arg in enumerate(children[1:]):
                if i:
                    pieces.append(", ")
                pieces.append((arg, _PREC_ASSIGN))
            pieces.append(")")
        elif kind is NodeKind.MEMBER:
            prec = _PREC_POSTFIX
            op = "->" if node.text == "arrow" else "."
            pieces = ((children[0], _PREC_POSTFIX), op + children[1].text)
        elif kind is NodeKind.UNARY_OP:
            prec = _PREC_UNARY
            pieces = (UNARY_SYMBOL[node.text], (children[0], _PREC_UNARY))
        elif kind is NodeKind.ASSIGN:
            prec = _PREC_ASSIGN
            pieces = ((children[0], _PREC_ASSIGN + 1), " = ", (children[1], _PREC_ASSIGN))
        elif kind is NodeKind.INDEX:
            prec = _PREC_POSTFIX
            pieces = ((children[0], _PREC_POSTFIX), "[", (children[1], 0), "]")
        else:
            raise ValueError(f"not an expression node: {kind.value}")
        if prec < ctx:
            pieces = ("(", *pieces, ")")
        stack.extend(reversed(pieces))
    return "".join(out)


def statement_text(node: AstNode) -> str:
    """One-line rendering of a statement, or of an expression exactly as
    `to_text` gives it: CFG labels and the text of pattern matches."""
    kind = node.kind
    if kind is NodeKind.EXPR_STATEMENT:
        return to_text(node.children[0]) + ";"
    if kind is NodeKind.EMPTY_STATEMENT:
        return ";"
    if kind is NodeKind.RETURN:
        if node.children:
            return f"return {to_text(node.children[0])};"
        return "return;"
    if kind is NodeKind.GOTO:
        return f"goto {node.text};"
    if kind is NodeKind.BREAK:
        return "break;"
    if kind is NodeKind.CONTINUE:
        return "continue;"
    if kind is NodeKind.VAR_DECL:
        decl = f"{node.ctype} {node.text}".strip()
        if node.children:
            decl += f" = {to_text(node.children[0])}"
        return decl + ";"
    if kind is NodeKind.LABEL:
        return f"{node.text}: {statement_text(node.children[0])}"
    if kind is NodeKind.FOR:
        return "for"
    if kind in EXPRESSION_KINDS:
        return to_text(node)
    return kind.value


def dump_sexpr(root: AstNode) -> str:
    """Indented s-expression dump: one node per line.

    Each line reads `(Kind "text" file:line:col` followed by indented
    children, closing parentheses accumulating on the last line. Past 32
    levels the indent stops growing and a line shows its depth as
    `<depth> ` instead, so a deep tree's dump stays linear in size.
    """
    lines: list[str] = []
    stack = [(root, 0, 0)]  # (node, depth, ancestors its last line closes)
    while stack:
        node, depth, closes = stack.pop()
        indent = "  " * depth if depth <= 32 else f"{'  ' * 32}<{depth}> "
        head = (f"{indent}({node.kind.value} {json.dumps(node.text)} "
                f"{node.location}")
        children = node.children
        if not children:
            lines.append(head + ")" * (closes + 1))
            continue
        lines.append(head)
        stack.append((children[-1], depth + 1, closes + 1))
        stack.extend((child, depth + 1, 0) for child in reversed(children[:-1]))
    return "\n".join(lines)
