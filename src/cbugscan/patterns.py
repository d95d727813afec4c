"""AST pattern matching with metavariables.

A pattern is an ordinary code fragment in which `%NAME` placeholders
stand for arbitrary subtrees. `mutex_lock(%X)` matches any call to
mutex_lock with one argument and binds %X to that argument's AST.
A metavariable repeated within one pattern must bind structurally
equal subtrees each time.

A unit is matched through its match table (`build_match_table`), built
once with the unit: one preorder pass that groups every subnode by
shape, kind and arity first, then text and head. `PatternIndex.matches`
reads the table and tries each pattern only on the shapes it can
match, so however many checkers match a unit, its trees are walked
once. The same pass lists each CFG node's calls in evaluation order,
from which `cbugscan.ir.callgraph` builds the unit's call graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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
        return list(self._metavar_names)

    @cached_property
    def _metavar_names(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(
            node.text for node in iter_tree(self.tree)
            if node.kind is NodeKind.META_VAR))


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


# A unit's subnodes grouped by shape: (kind, arity) -> (text, head kind,
# head text) -> the triples (CFG node id or None, position, subnode),
# flattened into one list in preorder of the unit. The head is the first
# child, e.g. a call's callee.
MatchTable = dict[tuple, dict[tuple, list]]


def build_match_table(root: AstNode, owners: dict[int, int],
                      ) -> tuple[MatchTable, dict[int, list[AstNode]]]:
    """Every subnode under `root`, in one preorder pass, grouped by the
    shape `PatternIndex` looks at; and the calls of each CFG node's tree.

    `owners` maps the `id()` of each CFG node's tree to the node's id. A
    subnode of such a tree is entered with that id and its preorder
    position in the tree; any other subnode (a file-scope declaration, a
    function header, a compound statement) with None and its preorder
    position among those. Each CFG node's calls, if any, are listed
    under its id in evaluation order: post-order, so the calls in a
    call's arguments come before it."""
    table: MatchTable = {}
    calls: dict[int, list[AstNode]] = {}
    outside = 0
    pending = [root]
    while pending:
        top = pending.pop()
        owner = owners.get(id(top))
        if owner is None:
            # outside every CFG node's tree: entered alone, and its
            # children wait their turn
            pending.extend(reversed(top.children))
            position = outside
            outside += 1
        else:
            position = 0
        subtree = [top]
        # the calls whose subtrees are being walked, each with the stack
        # depth it was popped at; it closes when the stack drops below it
        open_calls: list[tuple[int, AstNode]] = []
        closed: list[AstNode] = []
        while subtree:
            node = subtree.pop()
            while open_calls and open_calls[-1][0] > len(subtree):
                closed.append(open_calls.pop()[1])
            children = node.children
            if children:
                head = children[0]
                rest = (node.text, head.kind, head.text)
                if owner is not None:
                    subtree.extend(reversed(children))
                    if node.kind is NodeKind.CALL:
                        open_calls.append((len(subtree) - len(children), node))
            else:
                rest = (node.text, None, None)
            shape = (node.kind, len(children))
            by_rest = table.get(shape)
            if by_rest is None:
                by_rest = table[shape] = {}
            entries = by_rest.get(rest)
            if entries is None:
                by_rest[rest] = [owner, position, node]
            else:
                entries += (owner, position, node)
            position += 1
        if open_calls or closed:
            closed.extend(call for _, call in reversed(open_calls))
            calls[owner] = closed
    return table, calls


def subnodes_of(table: MatchTable, kind: NodeKind, arity: int | None = None,
                ) -> Iterator[tuple[int | None, int, AstNode]]:
    """(CFG node id or None, position, subnode) for each subnode of one
    kind in a match table, of one arity or of any; preorder holds within
    each (text, head) group, not across them."""
    for (shape_kind, shape_arity), by_rest in table.items():
        if shape_kind is kind and arity in (None, shape_arity):
            for entries in by_rest.values():
                triples = iter(entries)
                yield from zip(triples, triples, triples)


def _signature(node: AstNode) -> tuple:
    """A node's shape, as `build_match_table` keys it: kind, arity, text,
    and the kind and text of its first child."""
    if not node.children:
        return (node.kind, 0, node.text, None, None)
    head = node.children[0]
    return (node.kind, len(node.children), node.text, head.kind, head.text)


def _root_may_match(tree: AstNode, signature: tuple) -> bool:
    if tree.kind is NodeKind.META_VAR:
        return True
    if signature[:3] != (tree.kind, len(tree.children), tree.text):
        return False
    head = tree.children[0] if tree.children else None
    return (head is None or head.kind is NodeKind.META_VAR
            or signature[3:] == (head.kind, head.text))


# a match: (pattern, subnode, bindings)
Hit = tuple[Pattern, AstNode, Bindings]


class PatternIndex:
    """Patterns prefiltered by the shape of the node they are tried on.

    `candidates(node)` keeps, in the given order, the patterns that can
    match `node`: a metavariable root matches anything; otherwise the
    root's kind, text and arity must agree, and so must the head (first
    child, e.g. the callee name) unless it is a metavariable. Every
    pattern that `match_node` accepts on a node is among its candidates.
    `matches` reads a unit's `MatchTable` and tries each pattern only on
    the shapes it can match. Build one index per set of patterns and
    keep it: the candidates of each shape are worked out once.
    """

    def __init__(self, patterns: Iterable[Pattern]):
        self.patterns = list(patterns)
        # (index order, pattern) pairs by node signature
        self._by_signature: dict[tuple, list[tuple[int, Pattern]]] = {}
        # the (kind, arity) shapes the roots can match; None for every one
        self._shapes: set[tuple] | None = {
            (p.tree.kind, len(p.tree.children)) for p in self.patterns}
        if any(p.tree.kind is NodeKind.META_VAR for p in self.patterns):
            self._shapes = None

    def _candidates(self, signature: tuple) -> list[tuple[int, Pattern]]:
        found = self._by_signature.get(signature)
        if found is None:
            found = self._by_signature[signature] = [
                (order, p) for order, p in enumerate(self.patterns)
                if _root_may_match(p.tree, signature)]
        return found

    def candidates(self, node: AstNode) -> list[Pattern]:
        return [p for _, p in self._candidates(_signature(node))]

    def matches(self, table: MatchTable,
                match: Callable[[Pattern, AstNode], Bindings | None] = match_node,
                ) -> dict[int | None, list[Hit]]:
        """Every match in a unit's table, by the id of the CFG node whose
        tree holds the subnode (None outside every CFG node): subnodes in
        preorder, each subnode's patterns in index order. `match` is
        called once per (pattern, subnode) pair whose shapes agree,
        whether the CFG node is reachable or not."""
        shapes = table if self._shapes is None else {
            shape: table[shape] for shape in self._shapes if shape in table}
        found: dict[int | None, list] = {}
        for shape, by_rest in shapes.items():
            for rest, entries in by_rest.items():
                candidates = self._candidates(shape + rest)
                if not candidates:
                    continue
                triples = iter(entries)
                for owner, position, subnode in zip(triples, triples, triples):
                    for order, pattern in candidates:
                        bindings = match(pattern, subnode)
                        if bindings is not None:
                            found.setdefault(owner, []).append(
                                (position, order, pattern, subnode, bindings))
        return {owner: [hit[2:] for hit in sorted(hits, key=itemgetter(0, 1))]
                for owner, hits in found.items()}


def first_binding(pattern: Pattern, bindings: Bindings,
                  node: AstNode) -> AstNode:
    """The subtree bound to the pattern's first metavariable, or the
    matched node itself when the pattern has none."""
    names = pattern._metavar_names
    return bindings[names[0]] if names else node
