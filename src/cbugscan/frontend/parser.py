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
_UNARY_NAME = {symbol: name for name, symbol in UNARY_SYMBOL.items()}
# the token kinds that are an expression on their own
_LEAF_KIND = {"ident": NodeKind.IDENTIFIER, "number": NodeKind.INT_LITERAL,
              "string": NodeKind.STRING_LITERAL, "metavar": NodeKind.META_VAR}


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
        raise FrontendError("nesting too deep", parser.decl.location) from None


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
        return self.tok.kind == kind

    def accept(self, kind: str) -> Token | None:
        tok = self.tok
        if tok.kind != kind:
            return None
        self.advance()
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tok
        if tok.kind != kind:
            raise FrontendError(
                f"expected {kind!r}, found {tok.text or tok.kind!r}", tok.location)
        self.advance()
        return tok

    def fail(self, message: str) -> FrontendError:
        raise FrontendError(message, self.tok.location)

    # -- declarations ------------------------------------------------------

    def translation_unit(self) -> AstNode:
        items = []
        root_loc = SourceLocation(self.file, 1, 1)
        while not self.at("eof"):
            items.append(self.top_level())
        return AstNode(NodeKind.TRANSLATION_UNIT, root_loc, "", tuple(items))

    def declarator(self) -> tuple[Token, str, SourceLocation]:
        """`TYPE *... NAME`: the name token, the declared type spelling and
        the location of the type."""
        tok = self.tok
        if tok.kind in ("int", "void", "char"):
            self.advance()
            ctype = tok.text
        elif tok.kind == "struct":
            self.advance()
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
        self.decl = self.tok
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
        return AstNode(NodeKind.FUNCTION_DEF, loc, name.text,
                       tuple(params) + (body,), ctype)

    def param_decl(self) -> AstNode:
        name, ctype, loc = self.declarator()
        return AstNode(NodeKind.PARAM_DECL, loc, name.text, (), ctype)

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
        return AstNode(NodeKind.VAR_DECL, loc, name.text, init, ctype)

    # -- statements --------------------------------------------------------

    def block(self) -> AstNode:
        open_tok = self.expect("{")
        stmts = []
        while not self.at("}"):
            if self.at("eof"):
                raise FrontendError("unexpected end of input inside block", self.tok.location)
            stmts.append(self.statement())
        close = self.expect("}")
        return AstNode(NodeKind.BLOCK, open_tok.location, "", tuple(stmts), "",
                       close.location)

    def statement(self) -> AstNode:
        tok = self.tok
        kind = tok.kind
        if kind == "{":
            return self.block()
        if kind == ";":
            self.advance()
            return AstNode(NodeKind.EMPTY_STATEMENT, tok.location)
        if kind == "if":
            return self.if_statement()
        if kind == "while":
            return self.while_statement()
        if kind == "for":
            return self.for_statement()
        if kind == "return":
            self.advance()
            value: tuple[AstNode, ...] = ()
            if not self.at(";"):
                value = (self.expression(),)
            self.expect(";")
            return AstNode(NodeKind.RETURN, tok.location, "", value)
        if kind == "goto":
            self.advance()
            label = self.expect("ident")
            self.expect(";")
            return AstNode(NodeKind.GOTO, tok.location, label.text)
        if kind == "break":
            self.advance()
            self.expect(";")
            return AstNode(NodeKind.BREAK, tok.location)
        if kind == "continue":
            self.advance()
            self.expect(";")
            return AstNode(NodeKind.CONTINUE, tok.location)
        if kind in _TYPE_STARTERS:
            return self.var_decl_tail(*self.declarator())
        if kind == "ident" and self.peek().kind == ":":
            self.advance()
            self.advance()
            inner = self.statement()
            return AstNode(NodeKind.LABEL, tok.location, tok.text, (inner,))
        if kind == "else":
            self.fail("'else' without a matching 'if'")
        expr = self.expression()
        self.expect(";")
        return AstNode(NodeKind.EXPR_STATEMENT, expr.location, "", (expr,))

    def if_statement(self) -> AstNode:
        tok = self.expect("if")
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        then = self.statement()
        if self.accept("else"):
            els = self.statement()
            return AstNode(NodeKind.IF, tok.location, "", (cond, then, els))
        return AstNode(NodeKind.IF, tok.location, "", (cond, then))

    def while_statement(self) -> AstNode:
        tok = self.expect("while")
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        body = self.statement()
        return AstNode(NodeKind.WHILE, tok.location, "", (cond, body))

    def for_statement(self) -> AstNode:
        tok = self.expect("for")
        self.expect("(")

        def clause(terminator: str, wrap: bool) -> AstNode:
            here = self.tok.location
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
        return AstNode(NodeKind.FOR, tok.location, "", (init, cond, step, body))

    # -- expressions -------------------------------------------------------

    def expression(self) -> AstNode:
        return self.assignment()

    def assignment(self) -> AstNode:
        left = self.binary()
        if self.at("="):
            self.advance()
            right = self.assignment()
            return AstNode(NodeKind.ASSIGN, left.location, "=", (left, right))
        return left

    def binary(self) -> AstNode:
        """A chain of operands joined by BINARY_PRECEDENCE operators, by
        precedence climbing (Pratt, POPL'73) on two explicit stacks,
        operands and (precedence, operator): before an operator is
        pushed, every operator on top that binds at least as tightly is
        reduced, so operators of equal precedence associate to the left.
        Each operand costs one `unary()` call and no frame of its own."""
        operands = [self.unary()]
        operators: list[tuple[int, str]] = []
        while True:
            prec = BINARY_PRECEDENCE.get(self.tok.kind, 0)
            while operators and operators[-1][0] >= prec:
                right = operands.pop()
                left = operands[-1]
                operands[-1] = AstNode(NodeKind.BINARY_OP, left.location,
                                       operators.pop()[1], (left, right))
            if not prec:  # not an operator: the chain ends here
                return operands[0]
            operators.append((prec, self.tok.text))
            self.advance()
            operands.append(self.unary())

    def unary(self) -> AstNode:
        tok = self.tok
        name = _UNARY_NAME.get(tok.kind)
        if name is not None:
            self.advance()
            return AstNode(NodeKind.UNARY_OP, tok.location, name, (self.unary(),))
        return self.postfix()

    def postfix(self) -> AstNode:
        tok = self.tok
        kind = _LEAF_KIND.get(tok.kind)
        if kind is not None:
            self.advance()
            node = AstNode(kind, tok.location, tok.text)
        elif tok.kind == "(":
            self.advance()
            node = self.expression()
            self.expect(")")
        else:
            raise self.fail(f"expected expression, found {tok.text or tok.kind!r}")
        while True:
            tok = self.tok
            if tok.kind == "(":
                self.advance()
                args = []
                if not self.at(")"):
                    args.append(self.assignment())
                    while self.accept(","):
                        args.append(self.assignment())
                self.expect(")")
                node = AstNode(NodeKind.CALL, node.location, "", (node, *args))
            elif tok.kind == "[":
                self.advance()
                index = self.expression()
                self.expect("]")
                node = AstNode(NodeKind.INDEX, node.location, "", (node, index))
            elif tok.kind in ("->", "."):
                self.advance()
                field = self.expect("ident")
                field_node = AstNode(NodeKind.IDENTIFIER, field.location, field.text)
                node = AstNode(NodeKind.MEMBER, node.location,
                               "arrow" if tok.kind == "->" else "dot",
                               (node, field_node))
            else:
                return node
