"""Recursive-descent parser for the C subset.

Supported surface: int/void/char and `struct NAME` types, pointer and
fixed-size array declarators, function definitions, the usual structured
statements plus goto/label, and expressions down to unary * & ! - with
calls, member access, and indexing. Anything outside the subset is a
loud parse error; no construct is silently dropped.

A statement's rule is looked up in one table by the kind of its first
token. An expression is an assignment over one loop, `binary`, that
reads every operand itself (its unary prefixes, a leaf or parenthesized
expression, and its calls, indexes and member accesses) and joins the
operands by precedence climbing; only brackets nest calls, so long
operator chains and stacked prefixes cost no stack.

A token is the lexer's plain `(kind, text, location)` tuple, so the
parser reads its fields by position (`tok[0]` is the kind) or by
unpacking it. A file is lexed whole before it is parsed, so a lexical
error anywhere in it is the one raised, and its tokens are held until
its parse ends.
"""

from __future__ import annotations

from cbugscan.errors import FrontendError
from cbugscan.frontend.ast_nodes import (
    BINARY_PRECEDENCE, UNARY_SYMBOL, AstNode, NodeKind, SourceLocation)
from cbugscan.frontend.lexer import Token, tokenize

_TYPE_STARTERS = ("int", "void", "char", "struct")
_UNARY_NAME = {symbol: name for name, symbol in UNARY_SYMBOL.items()}
# the token kinds that are an expression on their own
_LEAF_KIND = {"ident": NodeKind.IDENTIFIER, "number": NodeKind.INT_LITERAL,
              "string": NodeKind.STRING_LITERAL, "metavar": NodeKind.META_VAR}
# the operators after an operand, each with its node's text
_POSTFIX = {"(": "", "[": "", "->": "arrow", ".": "dot"}


def parse(source: str, file: str) -> AstNode:
    """Parse a whole translation unit; returns the TranslationUnitRoot.

    Nesting deeper than Python's recursion limit is a FrontendError at
    the first token of the declaration being parsed, so the location does
    not depend on how much stack the caller used; whether a file near the
    limit is rejected still does.
    """
    parser = _Parser(tokenize(source, file), file)
    try:
        return parser.translation_unit()
    except RecursionError:
        raise FrontendError("nesting too deep", parser.decl[2]) from None


def parse_fragment(source: str, file: str = "<pattern>") -> AstNode:
    """Parse a pattern fragment: one expression, or one statement.

    Metavariable tokens (%NAME) are enabled. The fragment must consume
    the entire input.
    """
    tokens = tokenize(source, file, metavars=True)
    expr_err: FrontendError
    parser = _Parser(tokens, file)
    try:
        expr = parser.expression()
        parser.expect("eof")
        return expr
    except FrontendError as err:
        expr_err = err
    parser = _Parser(tokens, file)
    try:
        stmt = parser.statement()
        parser.expect("eof")
        return stmt
    except FrontendError:
        raise expr_err


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]  # the current token, tokens[pos]
        self.decl = self.tok  # the first token of the current declaration
        self.file = file

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> None:
        """Move to the next token; past the final eof the cursor stays on it."""
        self.pos += 1
        try:
            self.tok = self.tokens[self.pos]
        except IndexError:
            pass

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, kind: str) -> bool:
        return self.tok[0] == kind

    def accept(self, kind: str) -> Token | None:
        tok = self.tok
        if tok[0] != kind:
            return None
        self.advance()
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tok
        if tok[0] != kind:
            raise FrontendError(
                f"expected {kind!r}, found {tok[1] or tok[0]!r}", tok[2])
        self.advance()
        return tok

    def fail(self, message: str) -> FrontendError:
        raise FrontendError(message, self.tok[2])

    # -- declarations ------------------------------------------------------

    def translation_unit(self) -> AstNode:
        items = []
        root_loc = SourceLocation(self.file, 1, 1)
        while not self.at("eof"):
            items += self.top_level()
        return AstNode(NodeKind.TRANSLATION_UNIT, root_loc, "", tuple(items))

    def base_type(self) -> str:
        """`int`, `void`, `char` or `struct NAME`."""
        kind, text, _ = self.tok
        if kind in ("int", "void", "char"):
            self.advance()
            return text
        if kind != "struct":
            raise self.fail(f"expected a type, found {text or kind!r}")
        self.advance()
        ctype = f"struct {self.expect('ident')[1]}"
        if self.at("{"):
            self.fail("struct definitions are not supported; declare variables of 'struct NAME' type instead")
        return ctype

    def declarator(self, base: str) -> tuple[Token, str]:
        """`*... NAME` after the type `base`: the name token and the
        declared type spelling."""
        stars = ""
        while self.accept("*"):
            stars += "*"
        return self.expect("ident"), f"{base} {stars}" if stars else base

    def top_level(self) -> list[AstNode]:
        self.decl = self.tok
        if self.tok[0] not in _TYPE_STARTERS:
            self.fail("expected a declaration or function definition")
        return self.declaration(functions=True)

    def function_def(self, name: Token, ctype: str, loc: SourceLocation) -> AstNode:
        self.expect("(")
        params: list[AstNode] = []
        if self.at(")"):
            pass
        elif self.at("void") and self.peek()[0] == ")":
            self.advance()
        else:
            params.append(self.param_decl())
            while self.accept(","):
                params.append(self.param_decl())
        self.expect(")")
        if self.at(";"):
            self.fail("function prototypes are not supported; calls to undefined functions are allowed directly")
        if not self.at("{"):
            self.fail("expected function body")
        body = self.block()
        return AstNode(NodeKind.FUNCTION_DEF, loc, name[1],
                       tuple(params) + (body,), ctype)

    def param_decl(self) -> AstNode:
        location = self.tok[2]
        name, ctype = self.declarator(self.base_type())
        return AstNode(NodeKind.PARAM_DECL, location, name[1], (), ctype)

    def declaration(self, several: bool = True,
                    functions: bool = False) -> list[AstNode]:
        """A function definition, where `functions` allows one, or a
        VarDecl per declarator, one at most unless `several`: each with
        the shared type, its own `*`s, `[N]` and `= init`, the first
        located at the type and each later one at its name."""
        location = self.tok[2]
        base = self.base_type()
        decls: list[AstNode] = []
        while True:
            name, ctype = self.declarator(base)
            if functions and not decls and self.at("("):
                return [self.function_def(name, ctype, location)]
            if self.accept("["):
                ctype += f"[{self.expect('number')[1]}]"
                self.expect("]")
            init = (self.expression(),) if self.accept("=") else ()
            decls.append(AstNode(NodeKind.VAR_DECL, name[2] if decls
                                 else location, name[1], init, ctype))
            if not self.at(","):
                self.expect(";")
                return decls
            if not several:
                self.fail("multiple declarators per declaration are not supported")
            self.advance()

    # -- statements --------------------------------------------------------

    def block(self) -> AstNode:
        open_tok = self.expect("{")
        stmts = []
        while self.tok[0] != "}":
            if self.tok[0] == "eof":
                raise FrontendError("unexpected end of input inside block", self.tok[2])
            if self.tok[0] in _TYPE_STARTERS:
                stmts += self.declaration()
            else:
                stmts.append(self.statement())
        close = self.expect("}")
        return AstNode(NodeKind.BLOCK, open_tok[2], "", tuple(stmts), "",
                       close[2])

    def statement(self) -> AstNode:
        """One statement, by the rule that its first token's kind selects."""
        return _STATEMENTS.get(self.tok[0], _Parser.expression_statement)(self)

    def expression_statement(self) -> AstNode:
        expr = self.expression()
        self.expect(";")
        return AstNode(NodeKind.EXPR_STATEMENT, expr.location, "", (expr,))

    def label_or_expression(self) -> AstNode:
        _, text, location = self.tok
        if self.peek()[0] != ":":
            return self.expression_statement()
        self.advance()
        self.advance()
        return AstNode(NodeKind.LABEL, location, text, (self.statement(),))

    def simple_statement(self) -> AstNode:
        """`;`, `break;`, `continue;`, `goto LABEL;` or `return [VALUE];`."""
        kind, _, location = self.tok
        self.advance()
        if kind == ";":
            return AstNode(NodeKind.EMPTY_STATEMENT, location)
        label, value = "", ()
        if kind == "goto":
            label = self.expect("ident")[1]
        elif kind == "return" and not self.at(";"):
            value = (self.expression(),)
        self.expect(";")
        return AstNode(_JUMPS[kind], location, label, value)

    def if_statement(self) -> AstNode:
        location = self.expect("if")[2]
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        then = self.statement()
        if self.accept("else"):
            els = self.statement()
            return AstNode(NodeKind.IF, location, "", (cond, then, els))
        return AstNode(NodeKind.IF, location, "", (cond, then))

    def while_statement(self) -> AstNode:
        location = self.expect("while")[2]
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        body = self.statement()
        return AstNode(NodeKind.WHILE, location, "", (cond, body))

    def for_statement(self) -> AstNode:
        location = self.expect("for")[2]
        self.expect("(")

        def clause(terminator: str, wrap: bool) -> AstNode:
            here = self.tok[2]
            if self.at(terminator):
                return AstNode(NodeKind.EMPTY_STATEMENT, here)
            expr = self.expression()
            if wrap:
                return AstNode(NodeKind.EXPR_STATEMENT, expr.location, "", (expr,))
            return expr

        init = clause(";", wrap=True)
        self.expect(";")
        cond = clause(";", wrap=False)
        self.expect(";")
        step = clause(")", wrap=True)
        self.expect(")")
        body = self.statement()
        return AstNode(NodeKind.FOR, location, "", (init, cond, step, body))

    # -- expressions -------------------------------------------------------

    def expression(self) -> AstNode:
        return self.assignment()

    def assignment(self) -> AstNode:
        left = self.binary()
        if self.accept("="):
            return AstNode(NodeKind.ASSIGN, left.location, "=", (left, self.assignment()))
        return left

    def binary(self) -> AstNode:
        """A chain of operands joined by BINARY_PRECEDENCE operators, by
        precedence climbing (Pratt, POPL'73) on two explicit stacks,
        operands and (precedence, operator): before an operator is
        pushed, every operator on top that binds at least as tightly is
        reduced, so operators of equal precedence associate to the left.
        The loop reads each operand itself: its unary prefixes, a leaf or
        parenthesized expression, its calls, indexes and member accesses,
        and then applies the prefixes, innermost first."""
        operands: list[AstNode] = []
        operators: list[tuple[int, str]] = []
        while True:
            kind, text, location = self.tok
            prefixes = ()  # innermost first
            if kind in _UNARY_NAME:
                first = self.pos
                while self.tok[0] in _UNARY_NAME:
                    self.advance()
                prefixes = self.tokens[first:self.pos][::-1]
                kind, text, location = self.tok
            leaf = _LEAF_KIND.get(kind)
            if leaf is not None:
                self.advance()
                node = AstNode(leaf, location, text)
            elif kind == "(":
                self.advance()
                node = self.expression()
                self.expect(")")
            else:
                raise self.fail(f"expected expression, found {text or kind!r}")
            kind = self.tok[0]
            while kind in _POSTFIX:
                self.advance()
                if kind == "(":
                    args = [] if self.at(")") else [self.assignment()]
                    while args and self.accept(","):
                        args.append(self.assignment())
                    self.expect(")")
                    node = AstNode(NodeKind.CALL, node.location, "", (node, *args))
                elif kind == "[":
                    node = AstNode(NodeKind.INDEX, node.location, "", (node, self.expression()))
                    self.expect("]")
                else:
                    _, field, where = self.expect("ident")
                    node = AstNode(NodeKind.MEMBER, node.location, _POSTFIX[kind], (
                        node, AstNode(NodeKind.IDENTIFIER, where, field)))
                kind = self.tok[0]
            for prefix, _, where in prefixes:
                node = AstNode(NodeKind.UNARY_OP, where, _UNARY_NAME[prefix], (node,))
            operands.append(node)
            prec = BINARY_PRECEDENCE.get(kind, 0)
            while operators and operators[-1][0] >= prec:
                right = operands.pop()
                left = operands[-1]
                operands[-1] = AstNode(NodeKind.BINARY_OP, left.location,
                                       operators.pop()[1], (left, right))
            if not prec:  # not an operator: the chain ends here
                return operands[0]
            operators.append((prec, self.tok[1]))
            self.advance()


_JUMPS = {"break": NodeKind.BREAK, "continue": NodeKind.CONTINUE,
          "goto": NodeKind.GOTO, "return": NodeKind.RETURN}
_STATEMENTS = {
    "{": _Parser.block, "if": _Parser.if_statement,
    "while": _Parser.while_statement, "for": _Parser.for_statement,
    "ident": _Parser.label_or_expression,
    "else": lambda parser: parser.fail("'else' without a matching 'if'"),
    **dict.fromkeys((";", *_JUMPS), _Parser.simple_statement),
    # a declaration as a lone `if` or loop body declares one variable
    **dict.fromkeys(_TYPE_STARTERS,
                    lambda parser: parser.declaration(several=False)[0]),
}
