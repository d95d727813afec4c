"""Translation units and the memory-bounded unit cache.

A TranslationUnit bundles everything one source file contributes: its
AST, per-function CFGs, declaration tables, the match table every
pattern consumer reads (`cbugscan.patterns`), and the call graph, built
from the calls the match table's one walk lists for each CFG node. It
also keeps what checkers work out from those once for all of them: each
pattern's hits by pattern shape (`checkers.base.matches`) and the
supergraph (`traverse.build_supergraph`). The
UnitManager builds units on demand through a loader callable and keeps
at most `budget` of them resident, evicting the least recently used.
Analyses that fetch units only through the manager produce identical
results at any budget; only peak memory and reload counts change.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from cbugscan.errors import ConfigError, FrontendError
from cbugscan.frontend.ast_nodes import AstNode, NodeKind
from cbugscan.frontend.parser import parse
from cbugscan.frontend.preprocess import preprocess_source
from cbugscan.ir.callgraph import CallGraph, build_call_graph
from cbugscan.ir.cfg import Cfg, build_cfg
from cbugscan.patterns import Hit, MatchTable, build_match_table

if TYPE_CHECKING:
    from cbugscan.traverse import SuperGraph


@dataclass(eq=False)
class TranslationUnit:
    """Everything one source file gives the checkers."""
    path: str
    ast: AstNode
    functions: dict[str, AstNode] = field(default_factory=dict)
    cfgs: dict[str, Cfg] = field(default_factory=dict)
    call_graph: CallGraph = field(default_factory=CallGraph)
    func_params: dict[str, list[str]] = field(default_factory=dict)
    func_locals: dict[str, set[str]] = field(default_factory=dict)
    # every subnode of `ast` by kind, with the CFG node that holds it
    match_table: MatchTable = field(default_factory=dict)
    # each pattern's hits in `match_table` by `Pattern.shape`, filled by
    # `checkers.base.matches` as checkers ask
    hits_by_shape: dict[tuple, list[Hit]] = field(default_factory=dict)
    # filled by `traverse.build_supergraph` on first use
    supergraph: SuperGraph | None = None


def build_unit_from_text(source: str, path: str) -> TranslationUnit:
    """Parse + lower one source text into a complete unit; a function
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
        params = [p.text for p in func.children[:-1]]
        unit.func_params[name] = params
        cfg = unit.cfgs[name] = build_cfg(func, ids)
        # every declaration in the body is a CFG node of its own
        unit.func_locals[name] = set(params) | {
            node.ast_ref.text for node in cfg.nodes.values()
            if node.ast_ref is not None
            and node.ast_ref.kind is NodeKind.VAR_DECL}
    unit.match_table, calls = build_match_table(ast, {
        id(node.ast_ref): node.id for cfg in unit.cfgs.values()
        for node in cfg.nodes.values() if node.ast_ref is not None})
    unit.call_graph = build_call_graph(unit.cfgs, calls)
    return unit


def load_unit(path: str, flags: tuple[str, ...] = (),
              command: str | None = None) -> TranslationUnit:
    """Read (optionally preprocess) and build the unit for one file."""
    source = preprocess_source(path, flags, command)
    return build_unit_from_text(source, path)


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
    def budget(self) -> int | None:
        return self._budget

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
