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
_PREC_LEAF = 10  # a leaf's: no context parenthesizes it

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
    """Render an expression back to canonical C text; structurally equal
    trees always render to the same string, usable as a map key."""
    return "".join(_pieces(node, False)[1])


def _pieces(root: AstNode, paths: bool) -> tuple[int, tuple]:
    """The precedence of an expression and `to_text`'s pieces of it. With
    `paths`, each access path below the root is one piece `(to_path(node),
    context precedence)`, in parentheses where its precedence is below
    that context, as in `to_text`."""
    out: list = []
    top = _PREC_LEAF
    # pending pieces, next one last: text, or (subtree, context precedence)
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, ctx = item
        kind = node.kind
        if paths and node is not root and (kind in _PATH_KINDS or (
                kind is NodeKind.UNARY_OP and node.text in _PATH_STEPS)):
            out.append((to_path(node), ctx))
            continue
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
        if node is root:
            top = prec
        if prec < ctx:
            pieces = ("(", *pieces, ")")
        stack.extend(reversed(pieces))
    return top, tuple(out)


# -- access paths ------------------------------------------------------------------

# the kinds of an access path's nodes, and its unary operators' steps
_PATH_KINDS = _LEAF_KINDS | {NodeKind.MEMBER, NodeKind.INDEX}
_PATH_STEPS = {"deref": "*", "addrof": "&"}


def int_value(text: str) -> int:
    """The value of a number token, by C rules: a leading `0x` means hex,
    a leading `0` octal."""
    if text[:2] in ("0x", "0X"):
        return int(text, 16)
    return int(text, 8 if text[0] == "0" else 10)


class Path(NamedTuple):
    """What an expression names, in one normal form: an access path
    (Cheng & Hwu, PLDI 2000). `root` is a name or a literal's text, or an
    expression that is not a path, such as a call, as its `_pieces` with
    paths. `steps` follow it outward: "*", "&", fields ".f" and "->f",
    and indexes, each a `Path`. `then` keeps a path normal: `*&E` and
    `&*E` are E, an index 0 next to an `&` cancels it as a `*` does, so
    `(&E)[0]` and `&E[0]` are E, `(*E).f` is `E->f` and `(&E)->f` is
    `E.f`. `text` prints a path as `to_text` prints its normal form."""
    root: str | tuple
    steps: tuple = ()

    def then(self, step) -> Path:
        """This path followed by `step`, normal."""
        steps = self.steps
        if not steps:
            return _new(Path, (self.root, (step,)))
        last = steps[-1]
        if (last == "&" and (step == "*" or _zero(step))
                or step == "&" and (last == "*" or _zero(last))):
            return _new(Path, (self.root, steps[:-1]))
        if last == "*" and step[:1] == ".":
            return _new(Path, (self.root, steps[:-1] + ("->" + step[1:],)))
        if last == "&" and step[:2] == "->":
            return _new(Path, (self.root, steps[:-1] + ("." + step[2:],)))
        return _new(Path, (self.root, steps + (step,)))

    def without_address(self) -> Path:
        """This path without an `&` on top: the object itself."""
        if self.steps[-1:] == ("&",):
            return _new(Path, (self.root, self.steps[:-1]))
        return self

    def text(self) -> str:
        return self._printed()[0]

    def _printed(self) -> tuple[str, int]:
        """The text and its precedence."""
        text, prec = self.root, _PREC_LEAF
        if type(text) is not str:
            prec, pieces = text
            text = "".join(piece if type(piece) is str
                           else _within(*piece[0]._printed(), piece[1])
                           for piece in pieces)
        for step in self.steps:
            if step == "*" or step == "&":
                text = step + _within(text, prec, _PREC_UNARY)
                prec = _PREC_UNARY
            else:
                text = _within(text, prec, _PREC_POSTFIX) + (
                    step if type(step) is str else f"[{step.text()}]")
                prec = _PREC_POSTFIX
        return text, prec


# tuple.__new__ builds a path without the NamedTuple's Python-level
# __new__, which would be one more call per path and step
_new = tuple.__new__


def _zero(step) -> bool:
    """Whether `step` is the index 0, in any base."""
    return (type(step) is Path and not step.steps and type(step.root) is str
            and step.root[0].isdigit() and int_value(step.root) == 0)


def _within(text: str, prec: int, context: int) -> str:
    """`text`, of precedence `prec`, as it is written in `context`."""
    return f"({text})" if prec < context else text


def to_path(node: AstNode) -> Path:
    """The normal access path of an expression: the member, index, `*`
    and `&` nodes from its top are its steps, and what is under them its
    root; a statement, which a pattern without metavariables may match,
    is a root of its own text."""
    steps: list = []
    while True:
        kind = node.kind
        if kind is NodeKind.MEMBER:
            arrow = "->" if node.text == "arrow" else "."
            steps.append(arrow + node.children[1].text)
        elif kind is NodeKind.INDEX:
            steps.append(to_path(node.children[1]))
        elif kind is NodeKind.UNARY_OP and node.text in _PATH_STEPS:
            steps.append(_PATH_STEPS[node.text])
        else:
            break
        node = node.children[0]
    if kind in _LEAF_KINDS:
        path = _new(Path, (node.text, ()))
    elif kind in EXPRESSION_KINDS:
        path = _new(Path, (_pieces(node, True), ()))
    else:
        path = _new(Path, (statement_text(node), ()))
    for step in reversed(steps):
        path = path.then(step)
    return path


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
