"""Unreachable-code checker, plus superfluous-semicolon detection.

Unreachable nodes are found by graph search from each function's
entry. Reporting collapses runs of dead straight-line code to their
leading node, so one dead region yields one report. A semicolon that
silently empties an `if` or a loop body (`if (cond);`) is reported as
a warning: the code is reachable but almost certainly not what was
meant.
"""

from __future__ import annotations

from cbugscan.checkers.base import Checker, Services, forward_fixpoint
from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import AstNode, NodeKind, iter_tree, statement_text
from cbugscan.ir.cfg import Cfg
from cbugscan.ir.units import TranslationUnit
from cbugscan.report import ErrorTrace, Importance, TraceStep


def reachable_nodes(cfg: Cfg) -> set[int]:
    # a constant fact that is not None, since None means "no change"
    return set(forward_fixpoint(
        cfg.entry, True,
        lambda node_id: [edge.target for edge in cfg.successors(node_id)],
        lambda _node_id, fact: fact, lambda _old, _new: None))


def dead_leaders(cfg: Cfg) -> list[int]:
    """Leading nodes of unreachable straight-line runs.

    A dead node is a leader unless it merely continues its unique
    predecessor (one pred, and that pred has one successor). A dead
    region that is a pure cycle has no leader by that rule; its
    first-by-location node is promoted so the region still reports.
    """
    alive = reachable_nodes(cfg)
    dead = [node_id for node_id, node in cfg.nodes.items()
            if node.ast_ref is not None and node_id not in alive]
    if not dead:
        return []
    leaders = []
    for node_id in dead:
        preds = cfg.preds.get(node_id, ())
        if len(preds) == 1 and len(cfg.successors(preds[0])) == 1:
            continue
        leaders.append(node_id)
    if not leaders:
        leaders = [min(dead, key=lambda n: cfg.nodes[n].location)]
    leaders.sort(key=lambda n: cfg.nodes[n].location)
    return leaders


def superfluous_semicolons(root: AstNode) -> list[AstNode]:
    """EmptyStatement nodes that swallow an `if` or loop body."""
    found = []
    for node in iter_tree(root):
        if node.kind is NodeKind.IF and len(node.children) == 2:
            body = node.children[1]
            if body.kind is NodeKind.EMPTY_STATEMENT:
                found.append(body)
        elif node.kind is NodeKind.WHILE:
            body = node.children[1]
            if body.kind is NodeKind.EMPTY_STATEMENT:
                found.append(body)
        elif node.kind is NodeKind.FOR:
            body = node.children[3]
            if body.kind is NodeKind.EMPTY_STATEMENT:
                found.append(body)
    return found


class ReachChecker(Checker):
    name = "reach"

    def __init__(self, config_path: str | None):
        if config_path is not None:
            raise ConfigError("reach checker takes no config file")

    def check_unit(self, unit: TranslationUnit,
                   services: Services) -> list[ErrorTrace]:
        traces: list[ErrorTrace] = []
        for name in unit.functions:
            cfg = unit.cfgs[name]
            for node_id in dead_leaders(cfg):
                node = cfg.nodes[node_id]
                traces.append(ErrorTrace(
                    checker="reach",
                    importance=Importance.ERROR,
                    message="unreachable code",
                    steps=(TraceStep(node.location,
                                     statement_text(node.ast_ref)),),
                ))
        for semicolon in superfluous_semicolons(unit.ast):
            traces.append(ErrorTrace(
                checker="reach",
                importance=Importance.WARNING,
                message="superfluous semicolon",
                steps=(TraceStep(semicolon.location,
                                 "empty statement as sole body"),),
            ))
        return traces
