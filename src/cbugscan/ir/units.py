"""Translation units and the memory-bounded unit cache.

A TranslationUnit bundles everything one source file contributes: its
AST, per-function CFGs, declaration tables, the match table every
pattern consumer reads (`cbugscan.patterns`), listing the node kinds the
job's checkers read, and the call graph, built as the unit's supergraph
(`ir.callgraph.build_call_graph`) from the calls the match table's one
walk lists for each CFG node. It also keeps what checkers work out from
those once for all of them: each pattern's hits by pattern shape
(`checkers.base.matches`). The UnitManager builds units on demand
through a loader callable and keeps at most `budget` of them resident,
evicting the least recently used.
Analyses that fetch units only through the manager produce identical
results at any budget; only peak memory and reload counts change.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from cbugscan.errors import ConfigError, FrontendError
from cbugscan.frontend.ast_nodes import AstNode, NodeKind
from cbugscan.frontend.parser import parse
from cbugscan.frontend.preprocess import preprocess_source
from cbugscan.ir.callgraph import SuperGraph, build_call_graph
from cbugscan.ir.cfg import Cfg, build_cfg
from cbugscan.patterns import Hit, MatchTable, build_match_table


@dataclass(eq=False)
class TranslationUnit:
    """Everything one source file gives the checkers."""
    path: str
    ast: AstNode
    functions: dict[str, AstNode] = field(default_factory=dict)
    cfgs: dict[str, Cfg] = field(default_factory=dict)
    call_graph: SuperGraph = field(init=False)  # set once the CFGs are built
    func_params: dict[str, list[str]] = field(default_factory=dict)
    # each function's formals and locals, with their declared types
    func_locals: dict[str, dict[str, str]] = field(default_factory=dict)
    # the subnodes of `ast` of the kinds asked for, by kind, with the
    # CFG node that holds each
    match_table: MatchTable = field(default_factory=dict)
    # each pattern's hits in `match_table` by `Pattern.shape`, filled by
    # `checkers.base.matches` as checkers ask
    hits_by_shape: dict[tuple, list[Hit]] = field(default_factory=dict)


def build_unit_from_text(source: str, path: str,
                         kinds: Iterable[NodeKind] | None = None,
                         ) -> TranslationUnit:
    """Parse + lower one source text into a complete unit whose match
    table lists the subnodes of `kinds` (None for every kind); a function
    defined twice is a FrontendError."""
    ast = parse(source, path)
    unit = TranslationUnit(path=path, ast=ast)
    ids = itertools.count(0)
    for decl in ast.children:
        if decl.kind is NodeKind.FUNCTION_DEF:
            if decl.text in unit.functions:
                raise FrontendError(
                    f"redefinition of function {decl.text!r}", decl.location)
            unit.functions[decl.text] = decl
    for name, func in unit.functions.items():
        unit.func_params[name] = [p.text for p in func.children[:-1]]
        cfg = unit.cfgs[name] = build_cfg(func, ids)
        # each declaration is a CFG node; a pointer one goes last, to win
        decls = [*func.children[:-1], *(
            node.ast_ref for node in cfg.nodes.values()
            if node.ast_ref is not None and node.ast_ref.kind is NodeKind.VAR_DECL)]
        unit.func_locals[name] = {decl.text: decl.ctype for decl in sorted(
            decls, key=lambda decl: "*" in decl.ctype)}
    unit.match_table, calls = build_match_table(ast, {
        id(node.ast_ref): node.id for cfg in unit.cfgs.values()
        for node in cfg.nodes.values() if node.ast_ref is not None}, kinds)
    unit.call_graph = build_call_graph(unit.cfgs, calls)
    return unit


def load_unit(path: str, flags: tuple[str, ...] = (),
              command: str | None = None,
              kinds: Iterable[NodeKind] | None = None) -> TranslationUnit:
    """Read (optionally preprocess) and build the unit for one file, its
    match table listing `kinds` (None for every kind)."""
    source = preprocess_source(path, flags, command)
    return build_unit_from_text(source, path, kinds)


class UnitManager:
    """LRU cache of translation units, loaded lazily by path.

    loader(path) must return a TranslationUnit. A budget of None means
    unlimited residency; otherwise at most `budget` (>= 1) units stay
    loaded. Load counts and the high-water mark of resident units are
    tracked so streaming behavior is observable in tests.
    """

    def __init__(self, loader: Callable[[str], TranslationUnit],
                 budget: int | None = None):
        if budget is not None and budget < 1:
            raise ConfigError("unit budget must be at least 1")
        self._loader = loader
        self._budget = budget
        self._resident: OrderedDict[str, TranslationUnit] = OrderedDict()
        self._lock = threading.RLock()
        self.load_counts: dict[str, int] = {}
        self.max_resident = 0

    @property
    def total_loads(self) -> int:
        return sum(self.load_counts.values())

    def get(self, path: str) -> TranslationUnit:
        with self._lock:
            unit = self._resident.get(path)
            if unit is not None:
                self._resident.move_to_end(path)
                return unit
            unit = self._loader(path)
            self._resident[path] = unit
            self.load_counts[path] = self.load_counts.get(path, 0) + 1
            if self._budget is not None:
                while len(self._resident) > self._budget:
                    self._resident.popitem(last=False)
            self.max_resident = max(self.max_resident, len(self._resident))
            return unit

    def resident_paths(self) -> list[str]:
        with self._lock:
            return list(self._resident)
