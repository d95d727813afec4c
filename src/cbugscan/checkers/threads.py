"""Deadlock checker: lock-order graphs and cycle detection.

Each thread entry point is walked interprocedurally with a may-hold
lockset. Acquiring B while A is held records the dependency edge
A <- B (B depends on A). The per-entry graphs are unioned and every
elementary cycle in the combined graph is reported: a cycle means two
orders of acquisition are possible, which is a potential deadlock.

Thread entry points come from spawn-call matches (the argument bound
by %F), from names listed in the config, or, when neither yields
anything, every defined function (conservative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from cbugscan.checkers.base import (
    Checker,
    Services,
    config_lines,
    forward_fixpoint,
    node_events,
    read_config,
)
from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import (
    AstNode,
    NodeKind,
    SourceLocation,
    iter_tree,
    to_text,
)
from cbugscan.ir.cfg import CfgNode
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import (
    Pattern,
    PatternIndex,
    compile_pattern,
    first_binding,
    match_node,
)
from cbugscan.report import ErrorTrace, Importance, TraceStep
from cbugscan.traverse import build_supergraph

DEFAULT_SPAWN = 'pthread_create(%A, %B, %F, %D)'
DEFAULT_MAX_CYCLES = 1000


@dataclass
class ThreadConfig:
    spawns: list[Pattern] = field(default_factory=list)
    entries: list[str] = field(default_factory=list)
    locks: list[Pattern] = field(default_factory=list)
    unlocks: list[Pattern] = field(default_factory=list)
    max_cycles: int = DEFAULT_MAX_CYCLES


def parse_thread_config(text: str, source: str = "<thread>") -> ThreadConfig:
    config = ThreadConfig()
    for lineno, line, parts in config_lines(text, source):
        directive = parts[0]
        if directive == "spawn" and len(parts) == 2:
            pattern = compile_pattern(parts[1])
            if "F" not in pattern.metavar_names():
                raise ConfigError(
                    f"{source}:{lineno}: spawn template must bind %F")
            config.spawns.append(pattern)
        elif directive == "entry" and len(parts) == 2:
            config.entries.append(parts[1])
        elif directive == "lock" and len(parts) == 4 and parts[2] == "unlock":
            config.locks.append(compile_pattern(parts[1]))
            config.unlocks.append(compile_pattern(parts[3]))
        elif directive == "lock" and len(parts) == 2:
            config.locks.append(compile_pattern(parts[1]))
        elif directive == "unlock" and len(parts) == 2:
            config.unlocks.append(compile_pattern(parts[1]))
        elif directive == "max-cycles" and len(parts) == 2:
            try:
                config.max_cycles = int(parts[1])
            except ValueError as exc:
                raise ConfigError(f"{source}:{lineno}: bad max-cycles") from exc
            if config.max_cycles < 1:
                raise ConfigError(
                    f"{source}:{lineno}: max-cycles must be at least 1")
        else:
            raise ConfigError(f"{source}:{lineno}: cannot parse {line!r}")
    if not config.spawns:
        config.spawns.append(compile_pattern(DEFAULT_SPAWN))
    return config


def lock_key(pattern: Pattern, bindings: dict[str, AstNode],
             node: AstNode) -> str:
    """Canonical lock identity: the bound expression's text, with one
    leading address-of stripped so `&m` and the lock object `m` agree."""
    expr = first_binding(pattern, bindings, node)
    if expr.kind is NodeKind.UNARY_OP and expr.text == "addrof":
        expr = expr.children[0]
    return to_text(expr)


def spawned_entry_name(binding: AstNode) -> str | None:
    """Function name from a spawn call's %F argument (f or &f)."""
    node = binding
    if node.kind is NodeKind.UNARY_OP and node.text == "addrof":
        node = node.children[0]
    if node.kind is NodeKind.IDENTIFIER:
        return node.text
    return None


@dataclass(frozen=True)
class Witness:
    entry: str
    first_location: SourceLocation
    second_location: SourceLocation


LockOrderGraph = dict[tuple[str, str], list[Witness]]

# (is a lock, lock key, location) in evaluation order within a CFG node
LockEvent = tuple[bool, str, SourceLocation]


def lock_events(config: ThreadConfig) -> Callable[[CfgNode], list[LockEvent]]:
    """Each CFG node's lock events, matched once per node: make one per
    unit (see `checkers.base.node_events`)."""
    locks = set(config.locks)
    return node_events(
        PatternIndex(config.locks + config.unlocks), match_node,
        lambda pattern, subnode, bindings: (
            pattern in locks, lock_key(pattern, bindings, subnode),
            subnode.location))


def find_thread_entries(unit: TranslationUnit, config: ThreadConfig,
                        services: Services) -> list[str]:
    entries: list[str] = []
    index = PatternIndex(config.spawns)
    for spawn in config.spawns:
        for node in iter_tree(unit.ast):
            if spawn not in index.candidates(node):
                continue
            bindings = match_node(spawn, node)
            if bindings is None:
                continue
            name = spawned_entry_name(bindings["F"])
            if name is not None and name in unit.functions and name not in entries:
                entries.append(name)
    for name in config.entries:
        if name not in unit.functions:
            services.report_diagnostic(
                f"{unit.path}: thread entry {name!r} is not defined here; skipped")
            continue
        if name not in entries:
            entries.append(name)
    if not entries:
        entries = list(unit.functions)
    return entries


def build_dependency_graph(
        unit: TranslationUnit, entry: str, config: ThreadConfig,
        events: Callable[[CfgNode], list[LockEvent]] | None = None,
) -> LockOrderGraph:
    """Interprocedural may-hold lockset walk from one entry point.

    `events` is a `lock_events(config)` function to share between the
    entries of one unit; by default the walk makes its own."""
    events = events or lock_events(config)
    graph = build_supergraph(unit, entry)
    edges: LockOrderGraph = {}
    seen: set[tuple[str, str, SourceLocation, SourceLocation]] = set()

    # dataflow value: frozenset of (lock key, acquisition location)
    def transfer(super_key, in_set: frozenset) -> frozenset:
        found = events(graph.cfg_node(super_key))
        if not found:
            return in_set
        current = set(in_set)
        for is_lock, key, location in found:
            if not is_lock:
                current = {pair for pair in current if pair[0] != key}
                continue
            for held_key, held_loc in sorted(current):
                if held_key == key:
                    continue
                dedup = (held_key, key, held_loc, location)
                if dedup in seen:
                    continue
                seen.add(dedup)
                edges.setdefault((held_key, key), []).append(
                    Witness(entry, held_loc, location))
            current.add((key, location))
        return frozenset(current)

    forward_fixpoint(
        graph.entry, frozenset(),
        lambda super_key: graph.succs.get(super_key, ()), transfer,
        lambda old, new: None if new <= old else old | new)
    return edges


def combine_graphs(graphs: list[LockOrderGraph]) -> LockOrderGraph:
    combined: LockOrderGraph = {}
    for graph in graphs:
        for edge, witnesses in graph.items():
            combined.setdefault(edge, []).extend(witnesses)
    for witnesses in combined.values():
        witnesses.sort(key=lambda w: (w.entry, w.first_location, w.second_location))
    return combined


def elementary_cycles(edges: LockOrderGraph,
                      cap: int = DEFAULT_MAX_CYCLES) -> list[tuple[str, ...]]:
    """Every elementary cycle, as a node tuple rotated so its
    lexicographically smallest key comes first; enumeration stops at cap.

    Cycles are listed by smallest key, then in depth-first order over
    sorted successors. From each start the search enters only nodes above
    it that can get back to it through nodes above it, so it never enters
    a branch that cannot close a cycle."""
    adjacency: dict[str, list[str]] = {}
    reverse: dict[str, list[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        reverse.setdefault(b, []).append(a)
    for targets in adjacency.values():
        targets.sort()

    cycles: list[tuple[str, ...]] = []
    for start in sorted(adjacency):
        if len(cycles) >= cap:
            break
        closing: set[str] = set()
        todo = [start]
        while todo:
            for source in reverse.get(todo.pop(), ()):
                if source > start and source not in closing:
                    closing.add(source)
                    todo.append(source)
        path = [start]
        on_path: set[str] = set()
        pending = [iter(adjacency[start])]
        while pending:
            for target in pending[-1]:
                if target == start and len(path) >= 2:
                    cycles.append(tuple(path))
                    if len(cycles) >= cap:
                        return cycles
                elif target in closing and target not in on_path:
                    path.append(target)
                    on_path.add(target)
                    pending.append(iter(adjacency.get(target, ())))
                    break
            else:
                pending.pop()
                on_path.discard(path.pop())
    return cycles


class ThreadChecker(Checker):
    name = "thread"

    def __init__(self, config_path: str | None):
        self.config = parse_thread_config(
            read_config(config_path, self.name), config_path)

    def check_unit(self, unit: TranslationUnit,
                   services: Services) -> list[ErrorTrace]:
        entries = find_thread_entries(unit, self.config, services)
        events = lock_events(self.config)
        graphs = [build_dependency_graph(unit, entry, self.config, events)
                  for entry in entries]
        combined = combine_graphs(graphs)
        cap = self.config.max_cycles
        cycles = elementary_cycles(combined, cap + 1)
        if len(cycles) > cap:
            del cycles[cap:]
            services.report_diagnostic(
                f"{unit.path}: thread checker stopped at max-cycles {cap}; "
                f"further lock-order cycles are not reported")
        traces = []
        for cycle in cycles:
            chain = " <- ".join(cycle + (cycle[0],))
            message = f"circular lock dependency: {chain}"
            steps = []
            for i, lock_a in enumerate(cycle):
                lock_b = cycle[(i + 1) % len(cycle)]
                witness = combined[(lock_a, lock_b)][0]
                steps.append(TraceStep(
                    witness.first_location,
                    f"{lock_a} acquired ({witness.entry})"))
                steps.append(TraceStep(
                    witness.second_location,
                    f"{lock_b} acquired while {lock_a} held ({witness.entry})"))
            traces.append(ErrorTrace(
                checker="thread",
                importance=Importance.ERROR,
                message=message,
                steps=tuple(steps),
            ))
        return traces
