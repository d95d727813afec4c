"""AST pattern matching with metavariables.

A pattern is an ordinary code fragment in which `%NAME` placeholders
stand for arbitrary subtrees. `mutex_lock(%X)` matches any call to
mutex_lock with one argument and binds %X to that argument's AST.
A metavariable repeated within one pattern must bind structurally
equal subtrees each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from cbugscan.errors import PatternError
from cbugscan.frontend.ast_nodes import (
    AstNode,
    NodeKind,
    iter_tree,
    structurally_equal,
)
from cbugscan.frontend.parser import parse_fragment

Bindings = dict[str, AstNode]


@dataclass(eq=False)
class Pattern:
    name: str
    template: str
    tree: AstNode

    def metavar_names(self) -> list[str]:
        """Metavariable names in first-occurrence order."""
        seen: list[str] = []
        for node in iter_tree(self.tree):
            if node.kind is NodeKind.META_VAR and node.text not in seen:
                seen.append(node.text)
        return seen


def compile_pattern(template: str, name: str = "") -> Pattern:
    """Parse a pattern template (expression or statement fragment)."""
    try:
        tree = parse_fragment(template, file="<pattern>")
    except Exception as exc:
        raise PatternError(f"invalid pattern {name or template!r}: {exc}") from exc
    return Pattern(name=name or template, template=template, tree=tree)


def match_node(pattern: Pattern | AstNode, node: AstNode) -> Bindings | None:
    """Match a pattern against `node` itself (not its descendants).

    Returns the metavariable bindings on success, None on mismatch.
    """
    tree = pattern.tree if isinstance(pattern, Pattern) else pattern
    bindings: Bindings = {}
    if _match(tree, node, bindings):
        return bindings
    return None


def _match(pat: AstNode, node: AstNode, bindings: Bindings) -> bool:
    """Walk pattern and node together in preorder, left to right, on an
    explicit stack; metavariables bind in that order."""
    pending = [(pat, node)]
    while pending:
        pat, node = pending.pop()
        if pat.kind is NodeKind.META_VAR:
            bound = bindings.get(pat.text)
            if bound is None:
                bindings[pat.text] = node
            elif not structurally_equal(bound, node):
                return False
            continue
        if (pat.kind is not node.kind or pat.text != node.text
                or len(pat.children) != len(node.children)):
            return False
        pending.extend(zip(reversed(pat.children), reversed(node.children)))
    return True


def _signature(node: AstNode) -> tuple:
    """What `PatternIndex` looks at: the node's kind, text and arity, and
    the kind and text of its first child (a call's callee)."""
    if not node.children:
        return (node.kind, node.text, 0, None, None)
    head = node.children[0]
    return (node.kind, node.text, len(node.children), head.kind, head.text)


def _root_may_match(tree: AstNode, signature: tuple) -> bool:
    if tree.kind is NodeKind.META_VAR:
        return True
    if signature[:3] != (tree.kind, tree.text, len(tree.children)):
        return False
    head = tree.children[0] if tree.children else None
    return (head is None or head.kind is NodeKind.META_VAR
            or signature[3:] == (head.kind, head.text))


class PatternIndex:
    """Patterns prefiltered by the shape of the node they are tried on.

    `candidates(node)` keeps, in the given order, the patterns that can
    match `node`: a metavariable root matches anything; otherwise the
    root's kind, text and arity must agree, and so must the head (first
    child, e.g. the callee name) unless it is a metavariable. Every
    pattern that `match_node` accepts on a node is among its candidates.
    """

    def __init__(self, patterns: Iterable[Pattern]):
        self.patterns = list(patterns)
        self._by_signature: dict[tuple, list[Pattern]] = {}

    def candidates(self, node: AstNode) -> list[Pattern]:
        signature = _signature(node)
        found = self._by_signature.get(signature)
        if found is None:
            found = self._by_signature[signature] = [
                p for p in self.patterns if _root_may_match(p.tree, signature)]
        return found

    def matches(self, root: AstNode,
                match: Callable[[Pattern, AstNode], Bindings | None] = match_node,
                ) -> Iterator[tuple[Pattern, AstNode, Bindings]]:
        """(pattern, subnode, bindings) for every match under `root`:
        subnodes in preorder, each subnode's patterns in index order."""
        for subnode in iter_tree(root):
            for pattern in self.candidates(subnode):
                bindings = match(pattern, subnode)
                if bindings is not None:
                    yield pattern, subnode, bindings


def first_binding(pattern: Pattern, bindings: Bindings,
                  node: AstNode) -> AstNode:
    """The subtree bound to the pattern's first metavariable, or the
    matched node itself when the pattern has none."""
    names = pattern.metavar_names()
    return bindings[names[0]] if names else node
