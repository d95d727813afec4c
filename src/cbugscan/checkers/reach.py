"""Unreachable-code checker, plus superfluous-semicolon detection.

Unreachable nodes are those that `forward_fixpoint` from each
function's entry gives no fact. Reporting collapses runs of dead
straight-line code to their leading node, so one dead region yields one
report. A semicolon that silently empties an `if` or a loop body
(`if (cond);`) is reported as a warning: the code is reachable but
almost certainly not what was meant.
"""

from __future__ import annotations

from operator import itemgetter

from cbugscan.checkers.base import Checker, Services, forward_fixpoint
from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import AstNode, NodeKind, statement_text
from cbugscan.ir.cfg import Cfg
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import MatchTable, subnodes_of
from cbugscan.report import ErrorTrace, Importance, TraceStep


def dead_leaders(cfg: Cfg) -> list[int]:
    """Leading nodes of unreachable straight-line runs.

    A dead node is a leader unless it merely continues its unique
    predecessor (one pred, and that pred has one successor). A dead
    region that is a pure cycle has no leader by that rule; its
    first-by-location node is promoted so the region still reports.
    Every predecessor of a dead node is dead, so only the dead nodes'
    edges are inverted.
    """
    alive = forward_fixpoint(cfg.entry, True, cfg.succs.get,
                             lambda _node, fact: fact, lambda _old, _new: None)
    dead = [node_id for node_id, node in cfg.nodes.items()
            if node.ast_ref is not None and node_id not in alive]
    if not dead:
        return []
    preds: dict[int, list[int]] = {}
    for node_id in dead:
        for target in cfg.succs[node_id]:
            preds.setdefault(target, []).append(node_id)
    leaders = [node_id for node_id in dead
               if len(preds.get(node_id, ())) != 1
               or len(cfg.succs[preds[node_id][0]]) != 1]
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
    kinds = frozenset(kind for kind, _ in _BODIES)

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
