"""Intermediate representation: CFGs, call graphs, translation units."""

from cbugscan.ir.callgraph import INDIRECT, CallEdge, SuperGraph, build_call_graph
from cbugscan.ir.cfg import Cfg, CfgNode, CfgNodeKind, build_cfg, cfg_to_dot
from cbugscan.ir.units import TranslationUnit, UnitManager, build_unit_from_text, load_unit

__all__ = [
    "INDIRECT",
    "CallEdge",
    "Cfg",
    "CfgNode",
    "CfgNodeKind",
    "SuperGraph",
    "TranslationUnit",
    "UnitManager",
    "build_call_graph",
    "build_cfg",
    "build_unit_from_text",
    "cfg_to_dot",
    "load_unit",
]
