"""Control flow graphs lowered from function ASTs.

Every statement maps to exactly one node. Structured statements dissolve:
an `if`/`while`/`for` contributes a condition node plus its body nodes,
and branches connect straight to the following statement (or the exit)
rather than through synthetic join nodes. Node ids follow source order,
dead branches included, except that a `for` step follows its body.

`_CfgBuilder.branch` is the one rule for conditions: it returns the
deciding node with its true and false exits. A literal integer condition
(`while (1)`, `if (0)`) or the missing condition of `for (;;)` becomes a
statement node with only the exit it takes, so genuine condition nodes
always carry exactly one true and one false edge.

`succs` lists each node's successor ids (a reader that needs
predecessors inverts it; the keys of `checkers.base.forward_fixpoint`
are the nodes the entry reaches) and `nodes` is in id order. A
condition node's list is always `[true, false]`, whichever exit is
connected first; no other edge has a label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from cbugscan.errors import FrontendError
from cbugscan.frontend.ast_nodes import (
    AstNode,
    NodeKind,
    SourceLocation,
    int_value,
    statement_text,
)


class CfgNodeKind(Enum):
    ENTRY = "entry"
    EXIT = "exit"
    STATEMENT = "statement"
    CONDITION = "condition"


@dataclass(eq=False)
class CfgNode:
    """One CFG node: id, kind, location and the tree it stands for."""
    id: int
    kind: CfgNodeKind
    location: SourceLocation
    ast_ref: AstNode | None = None


@dataclass(eq=False)
class Cfg:
    """One function's control flow graph, edges by node id."""
    function_name: str
    entry: int
    exit: int
    nodes: dict[int, CfgNode] = field(default_factory=dict)
    succs: dict[int, list[int]] = field(default_factory=dict)


# Dangling edge sources produced while lowering: (node id, is a true exit).
_Frontier = list[tuple[int, bool]]

# Statements that lower to one node of their own.
_SINGLE_NODE = frozenset({
    NodeKind.VAR_DECL, NodeKind.EXPR_STATEMENT, NodeKind.EMPTY_STATEMENT,
    NodeKind.RETURN, NodeKind.GOTO, NodeKind.BREAK, NodeKind.CONTINUE,
})


def build_cfg(func: AstNode, ids: Iterator[int]) -> Cfg:
    """Lower one FunctionDef to its CFG. `ids` allocates unit-unique node ids."""
    if func.kind is not NodeKind.FUNCTION_DEF:
        raise ValueError("build_cfg expects a FunctionDef node")
    return _CfgBuilder(func, ids).build()


class _CfgBuilder:
    def __init__(self, func: AstNode, ids: Iterator[int]):
        self.func = func
        self.ids = ids
        self.nodes: dict[int, CfgNode] = {}
        self.succs: dict[int, list[int]] = {}
        self.labels: dict[str, int] = {}
        self.gotos: list[tuple[int, str, SourceLocation]] = []
        # dangling break/continue edges of the innermost loop, None outside
        self.breaks: _Frontier | None = None
        self.continues: _Frontier | None = None
        self.exit_id = -1

    def build(self) -> Cfg:
        body = self.func.children[-1]
        end_loc = body.end_location or self.func.location
        entry = self.new_node(CfgNodeKind.ENTRY, None, self.func.location)
        exit_id = self.new_node(CfgNodeKind.EXIT, None, end_loc)
        self.exit_id = exit_id

        _, out = self.lower(body, [(entry, False)])
        self.connect(out, exit_id)
        for node_id, label, loc in self.gotos:
            target = self.labels.get(label)
            if target is None:
                raise FrontendError(f"goto to undefined label {label!r}", loc)
            self.succs[node_id].append(target)

        for node_id, node in self.nodes.items():
            if node.kind is CfgNodeKind.CONDITION and len(self.succs[node_id]) != 2:
                raise AssertionError("condition node without two successors")
        return Cfg(
            function_name=self.func.text,
            entry=entry,
            exit=exit_id,
            nodes=self.nodes,
            succs=self.succs,
        )

    # -- graph primitives ----------------------------------------------

    def new_node(self, kind: CfgNodeKind, ast_ref: AstNode | None,
                 location: SourceLocation) -> int:
        node_id = next(self.ids)
        self.nodes[node_id] = CfgNode(node_id, kind, location, ast_ref)
        self.succs[node_id] = []
        return node_id

    def connect(self, frontier: _Frontier, target: int) -> None:
        for src, on_true in frontier:  # a true exit goes first
            self.succs[src].insert(0 if on_true else len(self.succs[src]), target)

    # -- statement lowering ----------------------------------------------
    # Returns (head node id or None, fall-through frontier). A None head
    # means the statement produced no node of its own (an empty block).

    def lower(self, stmt: AstNode, preds: _Frontier) -> tuple[int | None, _Frontier]:
        kind = stmt.kind
        if kind in _SINGLE_NODE:
            node = self.new_node(CfgNodeKind.STATEMENT, stmt, stmt.location)
            self.connect(preds, node)
            if kind is NodeKind.RETURN:
                self.succs[node].append(self.exit_id)
            elif kind is NodeKind.GOTO:
                self.gotos.append((node, stmt.text, stmt.location))
            elif kind is NodeKind.BREAK or kind is NodeKind.CONTINUE:
                jumps = self.breaks if kind is NodeKind.BREAK else self.continues
                if jumps is None:
                    raise FrontendError(
                        f"{kind.value.lower()!r} outside of a loop", stmt.location)
                jumps.append((node, False))
            else:
                return node, [(node, False)]
            return node, []

        if kind is NodeKind.BLOCK:
            head = None
            cur = preds
            for child in stmt.children:
                child_head, cur = self.lower(child, cur)
                if head is None:
                    head = child_head
            return head, cur

        if kind is NodeKind.IF:
            head, on_true, on_false = self.branch(stmt.children[0], preds)
            _, out = self.lower(stmt.children[1], on_true)
            if len(stmt.children) == 3:
                _, on_false = self.lower(stmt.children[2], on_false)
            return head, out + on_false

        if kind is NodeKind.WHILE or kind is NodeKind.FOR:
            return self.lower_loop(stmt, preds)

        if kind is NodeKind.LABEL:
            # Labels are transparent: the label resolves to the head of the
            # statement it marks. Only an empty labeled block needs a node
            # of its own for gotos to land on.
            head, out = self.lower(stmt.children[0], preds)
            if head is None:
                head = self.new_node(CfgNodeKind.STATEMENT, stmt, stmt.location)
                self.connect(preds, head)
                out = [(head, False)]
            if stmt.text in self.labels:
                raise FrontendError(f"duplicate label {stmt.text!r}", stmt.location)
            self.labels[stmt.text] = head
            return head, out

        raise FrontendError(f"cannot lower {kind.value} to CFG", stmt.location)

    def branch(self, cond: AstNode, preds: _Frontier) -> tuple[int, _Frontier, _Frontier]:
        """The node that decides `cond`, and its true and false exits.

        A literal condition, or the empty condition of `for (;;)`, is a
        statement node with only the exit it takes."""
        if cond.kind is NodeKind.EMPTY_STATEMENT or cond.kind is NodeKind.INT_LITERAL:
            head = self.new_node(CfgNodeKind.STATEMENT, cond, cond.location)
            holds = cond.kind is NodeKind.EMPTY_STATEMENT or int_value(cond.text) != 0
            taken: _Frontier = [(head, False)]
            on_true, on_false = (taken, []) if holds else ([], taken)
        else:
            head = self.new_node(CfgNodeKind.CONDITION, cond, cond.location)
            on_true, on_false = [(head, True)], [(head, False)]
        self.connect(preds, head)
        return head, on_true, on_false

    def lower_loop(self, stmt: AstNode, preds: _Frontier) -> tuple[int | None, _Frontier]:
        """`while (cond) body` or `for (init; cond; step) body`. The loop
        exits through the false exit of `cond` and the body's breaks; the
        body's fall-through and its continues go to the step, if any, and
        then back to `cond`."""
        first = None
        if stmt.kind is NodeKind.FOR:
            init, cond, step, body = stmt.children
            if init.kind is not NodeKind.EMPTY_STATEMENT:
                first, preds = self.lower(init, preds)
        else:
            (cond, body), step = stmt.children, None
        head, on_true, on_false = self.branch(cond, preds)

        outer = self.breaks, self.continues
        self.breaks, self.continues = [], []
        _, out = self.lower(body, on_true)
        breaks, continues = self.breaks, self.continues
        self.breaks, self.continues = outer

        latch = head
        if step is not None and step.kind is not NodeKind.EMPTY_STATEMENT:
            latch = self.new_node(CfgNodeKind.STATEMENT, step, step.location)
            self.succs[latch].append(head)
        self.connect(out + continues, latch)
        return head if first is None else first, on_false + breaks


def cfg_to_dot(cfg: Cfg) -> str:
    """Render one function's CFG as a DOT digraph; a condition node's
    edges are labeled true and false, in that order."""

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = [f'digraph "{esc(cfg.function_name)}" {{']
    for node in cfg.nodes.values():
        if node.kind is CfgNodeKind.ENTRY:
            label = f"{node.id}: <entry>"
        elif node.kind is CfgNodeKind.EXIT:
            label = f"{node.id}: <exit>"
        else:
            label = f"{node.id}: {statement_text(node.ast_ref)}"
        lines.append(f'  n{node.id} [label="{esc(label)}"];')
    for node_id, targets in cfg.succs.items():
        condition = cfg.nodes[node_id].kind is CfgNodeKind.CONDITION
        for i, target in enumerate(targets):
            label = f' [label="{("true", "false")[i]}"]' if condition else ""
            lines.append(f"  n{node_id} -> n{target}{label};")
    lines.append("}")
    return "\n".join(lines)
