"""Recursive-descent parser for the C subset.

Supported surface: int/void/char and `struct NAME` types, pointer and
fixed-size array declarators, function definitions, the usual structured
statements plus goto/label, and expressions down to unary * & ! - with
calls, member access, and indexing. Anything outside the subset is a
loud parse error; no construct is silently dropped.
"""

from __future__ import annotations

from cbugscan.errors import FrontendError
from cbugscan.frontend.ast_nodes import (
    BINARY_PRECEDENCE, UNARY_SYMBOL, AstNode, NodeKind, SourceLocation)
from cbugscan.frontend.lexer import Token, tokenize

_TYPE_STARTERS = ("int", "void", "char", "struct")


def parse(source: str, file: str) -> AstNode:
    """Parse a whole translation unit; returns the TranslationUnitRoot.

    Nesting deeper than Python's recursion limit is a FrontendError at
    the token where the parser ran out of stack.
    """
    parser = _Parser(tokenize(source, file), file)
    try:
        return parser.translation_unit()
    except RecursionError:
        raise FrontendError("nesting too deep", parser.tok.location) from None


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
        self.file = file

    # -- token plumbing ----------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, kind: str) -> bool:
        return self.tok.kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            tok = self.tok
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str) -> Token:
        if not self.at(kind):
            got = self.tok.text or self.tok.kind
            raise FrontendError(f"expected {kind!r}, found {got!r}", self.tok.location)
        tok = self.tok
        self.pos += 1
        return tok

    def fail(self, message: str) -> FrontendError:
        raise FrontendError(message, self.tok.location)

    # -- declarations ------------------------------------------------------

    def translation_unit(self) -> AstNode:
        items = []
        root_loc = SourceLocation(self.file, 1, 1)
        while not self.at("eof"):
            items.append(self.top_level())
        return AstNode(NodeKind.TRANSLATION_UNIT, root_loc, children=tuple(items))

    def declarator(self) -> tuple[Token, str, SourceLocation]:
        """`TYPE *... NAME`: the name token, the declared type spelling and
        the location of the type."""
        tok = self.tok
        if tok.kind in ("int", "void", "char"):
            self.pos += 1
            ctype = tok.text
        elif tok.kind == "struct":
            self.pos += 1
            ctype = f"struct {self.expect('ident').text}"
            if self.at("{"):
                self.fail("struct definitions are not supported; declare variables of 'struct NAME' type instead")
        else:
            raise self.fail(f"expected a type, found {tok.text or tok.kind!r}")
        stars = ""
        while self.accept("*"):
            stars += "*"
        return (self.expect("ident"), f"{ctype} {stars}" if stars else ctype,
                tok.location)

    def top_level(self) -> AstNode:
        if self.tok.kind not in _TYPE_STARTERS:
            self.fail("expected a declaration or function definition")
        name, ctype, loc = self.declarator()
        if self.at("("):
            return self.function_def(name, ctype, loc)
        return self.var_decl_tail(name, ctype, loc)

    def function_def(self, name: Token, ctype: str, loc: SourceLocation) -> AstNode:
        self.expect("(")
        params: list[AstNode] = []
        if self.at(")"):
            pass
        elif self.at("void") and self.peek().kind == ")":
            self.pos += 1
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
        return AstNode(NodeKind.FUNCTION_DEF, loc, text=name.text,
                       children=tuple(params) + (body,), ctype=ctype)

    def param_decl(self) -> AstNode:
        name, ctype, loc = self.declarator()
        return AstNode(NodeKind.PARAM_DECL, loc, text=name.text, ctype=ctype)

    def var_decl_tail(self, name: Token, ctype: str, loc: SourceLocation) -> AstNode:
        if self.accept("["):
            size = self.expect("number")
            self.expect("]")
            ctype += f"[{size.text}]"
        init: tuple[AstNode, ...] = ()
        if self.accept("="):
            init = (self.expression(),)
        if self.at(","):
            self.fail("multiple declarators per declaration are not supported")
        self.expect(";")
        return AstNode(NodeKind.VAR_DECL, loc, text=name.text, children=init, ctype=ctype)

    # -- statements --------------------------------------------------------

    def block(self) -> AstNode:
        open_tok = self.expect("{")
        stmts = []
        while not self.at("}"):
            if self.at("eof"):
                raise FrontendError("unexpected end of input inside block", self.tok.location)
            stmts.append(self.statement())
        close = self.expect("}")
        return AstNode(NodeKind.BLOCK, open_tok.location, children=tuple(stmts),
                       end_location=close.location)

    def statement(self) -> AstNode:
        tok = self.tok
        kind = tok.kind
        if kind == "{":
            return self.block()
        if kind == ";":
            self.pos += 1
            return AstNode(NodeKind.EMPTY_STATEMENT, tok.location)
        if kind == "if":
            return self.if_statement()
        if kind == "while":
            return self.while_statement()
        if kind == "for":
            return self.for_statement()
        if kind == "return":
            self.pos += 1
            value: tuple[AstNode, ...] = ()
            if not self.at(";"):
                value = (self.expression(),)
            self.expect(";")
            return AstNode(NodeKind.RETURN, tok.location, children=value)
        if kind == "goto":
            self.pos += 1
            label = self.expect("ident")
            self.expect(";")
            return AstNode(NodeKind.GOTO, tok.location, text=label.text)
        if kind == "break":
            self.pos += 1
            self.expect(";")
            return AstNode(NodeKind.BREAK, tok.location)
        if kind == "continue":
            self.pos += 1
            self.expect(";")
            return AstNode(NodeKind.CONTINUE, tok.location)
        if kind in _TYPE_STARTERS:
            return self.var_decl_tail(*self.declarator())
        if kind == "ident" and self.peek().kind == ":":
            self.pos += 2
            inner = self.statement()
            return AstNode(NodeKind.LABEL, tok.location, text=tok.text, children=(inner,))
        if kind == "else":
            self.fail("'else' without a matching 'if'")
        expr = self.expression()
        self.expect(";")
        return AstNode(NodeKind.EXPR_STATEMENT, expr.location, children=(expr,))

    def if_statement(self) -> AstNode:
        tok = self.expect("if")
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        then = self.statement()
        if self.accept("else"):
            els = self.statement()
            return AstNode(NodeKind.IF, tok.location, children=(cond, then, els))
        return AstNode(NodeKind.IF, tok.location, children=(cond, then))

    def while_statement(self) -> AstNode:
        tok = self.expect("while")
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        body = self.statement()
        return AstNode(NodeKind.WHILE, tok.location, children=(cond, body))

    def for_statement(self) -> AstNode:
        tok = self.expect("for")
        self.expect("(")

        def clause(terminator: str, wrap: bool) -> AstNode:
            here = self.tok.location
            if self.at(terminator):
                return AstNode(NodeKind.EMPTY_STATEMENT, here)
            expr = self.expression()
            if wrap:
                return AstNode(NodeKind.EXPR_STATEMENT, expr.location, children=(expr,))
            return expr

        init = clause(";", wrap=True)
        self.expect(";")
        cond = clause(";", wrap=False)
        self.expect(";")
        step = clause(")", wrap=True)
        self.expect(")")
        body = self.statement()
        return AstNode(NodeKind.FOR, tok.location, children=(init, cond, step, body))

    # -- expressions -------------------------------------------------------

    def expression(self) -> AstNode:
        return self.assignment()

    def assignment(self) -> AstNode:
        left = self.binary(1)  # every binary operator binds tighter than '='
        if self.at("="):
            self.pos += 1
            right = self.assignment()
            return AstNode(NodeKind.ASSIGN, left.location, text="=", children=(left, right))
        return left

    def binary(self, min_prec: int) -> AstNode:
        """Operators binding at least as tight as min_prec, by precedence
        climbing over BINARY_PRECEDENCE (Pratt, POPL'73); operators of
        equal precedence associate to the left."""
        left = self.unary()
        while (prec := BINARY_PRECEDENCE.get(self.tok.kind, 0)) >= min_prec:
            op = self.tok
            self.pos += 1
            right = self.binary(prec + 1)
            left = AstNode(NodeKind.BINARY_OP, left.location, text=op.text,
                           children=(left, right))
        return left

    _UNARY_NAME = {symbol: name for name, symbol in UNARY_SYMBOL.items()}

    def unary(self) -> AstNode:
        tok = self.tok
        if tok.kind in self._UNARY_NAME:
            self.pos += 1
            operand = self.unary()
            return AstNode(NodeKind.UNARY_OP, tok.location,
                           text=self._UNARY_NAME[tok.kind], children=(operand,))
        return self.postfix()

    def postfix(self) -> AstNode:
        node = self.primary()
        while True:
            tok = self.tok
            if tok.kind == "(":
                self.pos += 1
                args = []
                if not self.at(")"):
                    args.append(self.assignment())
                    while self.accept(","):
                        args.append(self.assignment())
                self.expect(")")
                node = AstNode(NodeKind.CALL, node.location,
                               children=(node, *args))
            elif tok.kind == "[":
                self.pos += 1
                index = self.expression()
                self.expect("]")
                node = AstNode(NodeKind.INDEX, node.location, children=(node, index))
            elif tok.kind in ("->", "."):
                self.pos += 1
                field = self.expect("ident")
                field_node = AstNode(NodeKind.IDENTIFIER, field.location, text=field.text)
                node = AstNode(NodeKind.MEMBER, node.location,
                               text="arrow" if tok.kind == "->" else "dot",
                               children=(node, field_node))
            else:
                return node

    def primary(self) -> AstNode:
        tok = self.tok
        if tok.kind == "ident":
            self.pos += 1
            return AstNode(NodeKind.IDENTIFIER, tok.location, text=tok.text)
        if tok.kind == "number":
            self.pos += 1
            return AstNode(NodeKind.INT_LITERAL, tok.location, text=tok.text)
        if tok.kind == "string":
            self.pos += 1
            return AstNode(NodeKind.STRING_LITERAL, tok.location, text=tok.text)
        if tok.kind == "metavar":
            self.pos += 1
            return AstNode(NodeKind.META_VAR, tok.location, text=tok.text)
        if tok.kind == "(":
            self.pos += 1
            expr = self.expression()
            self.expect(")")
            return expr
        raise self.fail(f"expected expression, found {tok.text or tok.kind!r}")
