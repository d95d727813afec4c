"""AST pattern matching with metavariables.

A pattern is an ordinary code fragment in which `%NAME` placeholders
stand for arbitrary subtrees. `mutex_lock(%X)` matches any call to
mutex_lock with one argument and binds %X to that argument's AST.
A metavariable repeated within one pattern must bind structurally
equal subtrees each time.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if pat.kind is NodeKind.META_VAR:
        bound = bindings.get(pat.text)
        if bound is not None:
            return structurally_equal(bound, node)
        bindings[pat.text] = node
        return True
    if pat.kind is not node.kind or pat.text != node.text:
        return False
    if len(pat.children) != len(node.children):
        return False
    return all(_match(p, n, bindings)
               for p, n in zip(pat.children, node.children))


def first_binding(pattern: Pattern, bindings: Bindings,
                  node: AstNode) -> AstNode:
    """The subtree bound to the pattern's first metavariable, or the
    matched node itself when the pattern has none."""
    names = pattern.metavar_names()
    return bindings[names[0]] if names else node
