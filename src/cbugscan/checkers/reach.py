"""Unreachable-code checker, plus superfluous-semicolon detection.

Unreachable nodes are found by graph search from each function's
entry. Reporting collapses runs of dead straight-line code to their
leading node, so one dead region yields one report. A semicolon that
silently empties an `if` or a loop body (`if (cond);`) is reported as
a warning: the code is reachable but almost certainly not what was
meant.
"""

from __future__ import annotations

from operator import itemgetter

from cbugscan.checkers.base import Checker, Services
from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import AstNode, NodeKind, statement_text
from cbugscan.ir.cfg import Cfg, reachable_nodes
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import MatchTable, subnodes_of
from cbugscan.report import ErrorTrace, Importance, TraceStep


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
        if len(preds) == 1 and len(cfg.succs[preds[0]]) == 1:
            continue
        leaders.append(node_id)
    if not leaders:
        leaders = [min(dead, key=lambda n: cfg.nodes[n].location)]
    leaders.sort(key=lambda n: cfg.nodes[n].location)
    return leaders


# (kind, arity) of each statement with a body, and the body's index
_BODIES = {(NodeKind.IF, 2): 1, (NodeKind.WHILE, 2): 1, (NodeKind.FOR, 4): 3}


def superfluous_semicolons(table: MatchTable) -> list[AstNode]:
    """EmptyStatement nodes that swallow an `if` or loop body, in source
    order, read from a unit's match table. Such statements lie outside
    every CFG node's tree, so their positions share one preorder."""
    found = []
    for (kind, arity), body in _BODIES.items():
        for _, position, node in subnodes_of(table, kind, arity):
            if node.children[body].kind is NodeKind.EMPTY_STATEMENT:
                found.append((position, node.children[body]))
    return [body for _, body in sorted(found, key=itemgetter(0))]


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
        for semicolon in superfluous_semicolons(unit.match_table):
            traces.append(ErrorTrace(
                checker="reach",
                importance=Importance.WARNING,
                message="superfluous semicolon",
                steps=(TraceStep(semicolon.location,
                                 "empty statement as sole body"),),
            ))
        return traces
