"""AST pattern matching with metavariables.

A pattern is an ordinary code fragment in which `%NAME` placeholders
stand for arbitrary subtrees. `mutex_lock(%X)` matches any call to
mutex_lock with one argument and binds %X to that argument's AST.
A metavariable repeated within one pattern must bind structurally
equal subtrees each time.

A unit is matched through its match table (`build_match_table`), built
once with the unit: one preorder pass that lists every subnode under
its kind. `pattern_hits` scans the list of the pattern's root kind and
tries the pattern only on the subnodes whose arity, text and head (the
first child) the root allows, so however many checkers match a unit,
its trees are walked once; `checkers.base.matches` keeps each
pattern's hits on the unit by `Pattern.shape`, so a pattern is matched
once per unit, whichever checker asks. The same pass lists each CFG
node's calls in evaluation order, from which `cbugscan.ir.callgraph`
builds the unit's call graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

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
    def shape(self) -> tuple:
        """(kind, text, arity) of each node of the tree, in preorder,
        metavariable names included: all that `match_node` compares, so
        patterns of equal shape match the same subnodes, binding alike."""
        return tuple((node.kind, node.text, len(node.children))
                     for node in iter_tree(self.tree))

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


def match_node(pattern: Pattern, node: AstNode) -> Bindings | None:
    """Match a pattern against `node` itself (not its descendants).

    Returns the metavariable bindings on success, None on mismatch.
    """
    bindings: Bindings = {}
    if _match(pattern.tree, node, bindings):
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


# A unit's subnodes grouped by kind: for every kind, its triples (CFG
# node id or None, position, subnode), flattened into one list in
# preorder of the unit.
MatchTable = dict[NodeKind, list]


def build_match_table(root: AstNode, owners: dict[int, int],
                      ) -> tuple[MatchTable, dict[int, list[AstNode]]]:
    """Every subnode under `root`, in one preorder pass, grouped by
    kind; and the calls of each CFG node's tree.

    `owners` maps the `id()` of each CFG node's tree to the node's id. A
    subnode of such a tree is entered with that id and its preorder
    position in the tree; any other subnode (a file-scope declaration, a
    function header, a compound statement) with None and its preorder
    position among those. Each CFG node's calls, if any, are listed
    under its id in evaluation order: post-order, so the calls in a
    call's arguments come before it."""
    table: MatchTable = {kind: [] for kind in NodeKind}
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
            kind = node.kind
            children = node.children
            if children and owner is not None:
                subtree.extend(reversed(children))
                if kind is NodeKind.CALL:
                    open_calls.append((len(subtree) - len(children), node))
            table[kind].extend((owner, position, node))
            position += 1
        if open_calls or closed:
            closed.extend(call for _, call in reversed(open_calls))
            calls[owner] = closed
    return table, calls


def subnodes_of(table: MatchTable, kind: NodeKind, arity: int | None = None,
                ) -> Iterator[tuple[int | None, int, AstNode]]:
    """(CFG node id or None, position, subnode) for each subnode of one
    kind in a match table, of one arity or of any, in preorder."""
    triples = iter(table.get(kind, ()))
    for triple in zip(triples, triples, triples):
        if arity is None or len(triple[2].children) == arity:
            yield triple


# a pattern's match on a unit: (CFG node id or None, position, subnode,
# bindings), as the match table lists the subnode
Hit = tuple[int | None, int, AstNode, Bindings]


def pattern_hits(table: MatchTable, pattern: Pattern,
                 match: Callable[[Pattern, AstNode], Bindings | None] = match_node,
                 ) -> list[Hit]:
    """Every match of one pattern in a unit's match table. `match` is
    tried only on the subnodes whose shape the pattern's root allows: a
    metavariable root on every subnode; any other root on the subnodes
    of its kind, and of its arity and text, and, unless its head (first
    child) is a metavariable, of its head's kind and text. The kind
    picks one list of the table; the rest is checked here, inline."""
    tree = pattern.tree
    if tree.kind is NodeKind.META_VAR:
        lists, arity = table.values(), None
    else:
        lists, arity = [table.get(tree.kind, ())], len(tree.children)
        text = tree.text
        head = tree.children[0] if arity else None
        if head is not None and head.kind is NodeKind.META_VAR:
            head = None
    hits: list[Hit] = []
    for entries in lists:
        triples = iter(entries)
        for owner, position, subnode in zip(triples, triples, triples):
            if arity is not None:
                children = subnode.children
                if len(children) != arity or subnode.text != text:
                    continue
                if head is not None and (children[0].kind is not head.kind
                                         or children[0].text != head.text):
                    continue
            bindings = match(pattern, subnode)
            if bindings is not None:
                hits.append((owner, position, subnode, bindings))
    return hits


def first_binding(pattern: Pattern, bindings: Bindings,
                  node: AstNode) -> AstNode:
    """The subtree bound to the pattern's first metavariable, or the
    matched node itself when the pattern has none."""
    names = pattern._metavar_names
    return bindings[names[0]] if names else node
