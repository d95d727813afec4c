"""Deadlock checker: one lock-order graph per unit and cycle detection.

Each thread entry point is walked with a may-hold lockset. Acquiring
B while A is held records the dependency edge A <- B (B depends on A).
The unit has one lock-order graph over all entries, and every
elementary cycle in it is reported: a cycle means two orders of
acquisition are possible, which is a potential deadlock.

The walk is interprocedural through function summaries, solved once per
unit, callees first, by `traverse.solve_summaries`: the lock-order edges
a function's body orders and the callees it reaches, each lock taken
inside with the keys released on every path before it, and its lockset
change (the locks it may leave held, the keys it releases on every
path). An entry's edges are those of the functions it reaches, itself
included. Lock keys are the raw text in every function, so a summary
applies unchanged at every call. The edges are those of every path, so
they do not depend on the order the worklist visits nodes in. There is
no call-depth bound; recursion is solved to a fixpoint.

Each edge keeps its least witness (entry, location of the held lock,
location of the taken lock), which a finding's steps show; each
function is walked once, for the least entry that reaches it.

Thread entry points come from spawn-call matches (the argument bound
by %F), from names listed in the config, or, when neither yields
anything, every defined function (conservative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from cbugscan.checkers.base import (
    LOCK,
    Checker,
    LockEvent,
    LockLines,
    Services,
    config_number,
    forward_fixpoint,
    matches,
    read_config,
    read_directives,
)
from cbugscan.frontend.ast_nodes import (
    AstNode,
    NodeKind,
    SourceLocation,
    statement_text,
)
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import (
    Pattern,
    compile_pattern,
    first_binding,
    match_node,
)
from cbugscan.report import ErrorTrace, Importance, TraceStep
from cbugscan.traverse import (
    SuperGraph,
    build_supergraph,
    callee_name,
    solve_summaries,
)

DEFAULT_SPAWN = 'pthread_create(%A, %B, %F, %D)'
DEFAULT_MAX_CYCLES = 1000


@dataclass
class ThreadConfig(LockLines):
    """thread's config: lock lines, spawns, extra entries, the cycle cap."""
    spawns: list[Pattern] = field(default_factory=list)
    entries: list[str] = field(default_factory=list)
    max_cycles: int = DEFAULT_MAX_CYCLES


def parse_thread_config(text: str, source: str = "<thread>") -> ThreadConfig:
    config = ThreadConfig()

    def take(words: list[str]) -> bool:
        if config.read_lock_line(words):
            return True
        if len(words) != 2:
            return False
        directive, value = words
        if directive == "spawn":
            pattern = compile_pattern(value)
            if "F" not in pattern.metavar_names():
                raise ValueError("spawn template must bind %F")
            config.spawns.append(pattern)
        elif directive == "entry":
            config.entries.append(value)
        elif directive == "max-cycles":
            config.max_cycles = config_number(value, "max-cycles")
        else:
            return False
        return True

    read_directives(text, source, take)
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
    return statement_text(expr)


def spawned_entry_name(binding: AstNode) -> str | None:
    """Function name from a spawn call's %F argument (f or &f)."""
    node = binding
    if node.kind is NodeKind.UNARY_OP and node.text == "addrof":
        node = node.children[0]
    if node.kind is NodeKind.IDENTIFIER:
        return node.text
    return None


class Witness(NamedTuple):
    entry: str
    first_location: SourceLocation
    second_location: SourceLocation


# (held key, taken key) -> the edge's least witness
LockOrderGraph = dict[tuple[str, str], Witness]


def find_thread_entries(unit: TranslationUnit, config: ThreadConfig,
                        services: Services) -> list[str]:
    """The functions spawn calls start, read from the unit's match table
    (spawns outside every CFG node, such as at file scope, first, then by
    CFG node), then the config's entries; every function when there is
    none."""
    entries: list[str] = []
    found = matches(config.spawns, unit, match_node)
    for owner in sorted(found, key=lambda owner: -1 if owner is None else owner):
        for _, _, bindings in found[owner]:
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


class LockSummary(NamedTuple):
    """What a call to one function does to the caller's may-hold lockset.

    `edges` are the lock-order edges (held key, taken key, held location,
    taken location) that the function's own body orders: its own locks
    after locks taken since its entry, and what its callees take after
    those. `calls` are the callees it reaches, whose edges count too.
    `acquires` maps each lock taken inside, (key, location), to the keys
    released on every path from the function's entry to it: a lock the
    caller holds orders before it unless its key is among them. `held`
    are the locks taken inside that may still be held at the exit, and
    `released` the keys released on every path to the exit. `returns`
    is False when no path reaches the exit.
    """
    returns: bool
    edges: frozenset
    calls: frozenset
    acquires: dict
    held: frozenset = frozenset()
    released: frozenset = frozenset()


def lock_summaries(graph: SuperGraph, events: dict[int, list[LockEvent]],
                   ) -> dict[str, LockSummary]:
    """Every function's summary, by `traverse.solve_summaries`: a
    recursive component is iterated from "no call returns", each round's
    summaries replacing the last, until they stop changing."""
    solved = solve_summaries(
        graph, lambda fn, _variant, summary_of: _summarize(
            graph, fn, events, summary_of),
        lambda _old, new: new, LockSummary(False, frozenset(), frozenset(), {}))
    return {fn: summary for (fn, _), summary in solved.items()}


def _summarize(graph: SuperGraph, fn: str,
               events: dict[int, list[LockEvent]],
               summary_of: Callable[[str], LockSummary]) -> LockSummary:
    # dataflow value: (locks taken since the entry that may be held, as
    # (key, location) pairs; keys released on every path from the entry)
    cfg = graph.cfgs[fn]
    edges: set[tuple[str, str, SourceLocation, SourceLocation]] = set()
    calls: set[str] = set()
    acquires: dict[tuple[str, SourceLocation], frozenset] = {}

    def acquire(key, location, held, released) -> None:
        for held_key, held_location in held:
            if held_key != key:
                edges.add((held_key, key, held_location, location))
        before = acquires.get((key, location))
        acquires[(key, location)] = (
            released if before is None else before & released)

    def transfer(node_id: int, fact: tuple) -> tuple | None:
        found = events.get(node_id, ())
        if not found and node_id not in graph.calls:
            return fact
        held, released = fact
        for kind, key, location in found:
            if kind is LOCK:
                acquire(key, location, held, released)
                held = held | {(key, location)}
            else:
                held = frozenset(pair for pair in held if pair[0] != key)
                released = released | {key}
        for call in graph.calls.get(node_id, ()):
            calls.add(callee_name(call))
            callee = summary_of(callee_name(call))
            for (key, location), inside in callee.acquires.items():
                acquire(key, location,
                        [pair for pair in held if pair[0] not in inside],
                        released | inside)
            if not callee.returns:
                return None
            held = callee.held | frozenset(
                pair for pair in held if pair[0] not in callee.released)
            released = released | callee.released
        return held, released

    def join(old: tuple, new: tuple) -> tuple | None:
        if new[0] <= old[0] and old[1] <= new[1]:
            return None
        return old[0] | new[0], old[1] & new[1]

    facts = forward_fixpoint(cfg.entry, (frozenset(), frozenset()),
                             graph.succs.get, transfer, join)
    at_exit = facts.get(cfg.exit)
    if at_exit is None:
        return LockSummary(False, frozenset(edges), frozenset(calls), acquires)
    return LockSummary(True, frozenset(edges), frozenset(calls), acquires,
                       *at_exit)


def lock_order_graph(entries: list[str],
                     summaries: dict[str, LockSummary]) -> LockOrderGraph:
    """The lock-order edges of every path from the entry points, each of
    which starts holding nothing, with each edge's least witness.

    Each function reached is walked once, for the least entry that
    reaches it. An edge's two locations do not depend on the entry, so
    that entry gives the least (entry, first location, second location)
    of every edge the function orders."""
    entry_of: dict[str, str] = {}
    for entry in sorted(entries):
        pending = [entry]
        while pending:
            fn = pending.pop()
            if fn not in entry_of:
                entry_of[fn] = entry
                pending.extend(summaries[fn].calls)
    graph: LockOrderGraph = {}
    for fn, entry in entry_of.items():
        for held_key, key, held_location, location in summaries[fn].edges:
            edge = (held_key, key)
            witness = Witness(entry, held_location, location)
            graph[edge] = min(graph.get(edge, witness), witness)
    return graph


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
        events = self.config.node_events(unit, match_node, lock_key)
        summaries = lock_summaries(build_supergraph(unit), events)
        return report_cycles(unit, lock_order_graph(entries, summaries),
                             self.config.max_cycles, services)


def report_cycles(unit: TranslationUnit, graph: LockOrderGraph,
                  cap: int, services: Services) -> list[ErrorTrace]:
    """One finding per elementary cycle of the unit's lock-order graph,
    at most `cap`; a diagnostic says when more were dropped."""
    cycles = elementary_cycles(graph, cap + 1)
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
            witness = graph[(lock_a, lock_b)]
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
