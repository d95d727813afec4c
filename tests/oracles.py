"""Independent reference implementations used to cross-check the analyses.

Each oracle here deliberately uses a different algorithm (and usually a
different data representation) than the code under test, so agreement
between the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
from collections import deque

from cbugscan.pointsto import Constraint, ConstraintKind


# -- Andersen-style inclusion points-to (worklist solver) --------------------

def andersen(constraints: list[Constraint]) -> dict[str, set[str]]:
    """Inclusion-based points-to: subset edges propagated to fixpoint.

    p = &x   pts(p) incl {x}
    p = q    pts(p) superset pts(q)
    p = *q   for every t in pts(q): pts(p) superset pts(t)
    *p = q   for every t in pts(p): pts(t) superset pts(q)
    """
    names: set[str] = set()
    for c in constraints:
        names.add(c.lhs)
        names.add(c.rhs)
    pts: dict[str, set[str]] = {n: set() for n in names}
    copy_edges: dict[str, set[str]] = {n: set() for n in names}

    for c in constraints:
        if c.kind is ConstraintKind.ADDRESS_OF:
            pts[c.lhs].add(c.rhs)
        elif c.kind is ConstraintKind.COPY:
            copy_edges[c.rhs].add(c.lhs)

    changed = True
    while changed:
        changed = False
        # complex constraints add edges as points-to sets grow
        for c in constraints:
            if c.kind is ConstraintKind.LOAD:
                for t in list(pts[c.rhs]):
                    if c.lhs not in copy_edges.setdefault(t, set()):
                        copy_edges[t].add(c.lhs)
                        changed = True
            elif c.kind is ConstraintKind.STORE:
                for t in list(pts[c.lhs]):
                    if t not in copy_edges[c.rhs]:
                        copy_edges[c.rhs].add(t)
                        changed = True
        for src, targets in copy_edges.items():
            for dst in targets:
                before = len(pts.setdefault(dst, set()))
                pts[dst] |= pts.get(src, set())
                if len(pts[dst]) != before:
                    changed = True
    return {n: pts.get(n, set()) for n in names}


# -- brute-force elementary cycle enumeration --------------------------------

def all_cycles(edges: set[tuple[str, str]]) -> set[tuple[str, ...]]:
    """Every elementary cycle, found by trying every vertex permutation.

    Exponential, only usable on tiny graphs; returns each cycle once,
    rotated so the smallest vertex comes first.
    """
    nodes = sorted({v for e in edges for v in e})
    found: set[tuple[str, ...]] = set()
    for length in range(2, len(nodes) + 1):
        for perm in itertools.permutations(nodes, length):
            ok = all(
                (perm[i], perm[(i + 1) % length]) in edges
                for i in range(length))
            if not ok:
                continue
            pivot = perm.index(min(perm))
            found.add(perm[pivot:] + perm[:pivot])
    return found


def unpruned_cycles(edges, cap: int) -> list[tuple[str, ...]]:
    """Elementary cycles in the order `threads.elementary_cycles` lists
    them, by a recursive search over every simple path from each start.

    Exponential even on acyclic graphs; the reference for output order
    and the `cap` cut.
    """
    adjacency: dict[str, list[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    for targets in adjacency.values():
        targets.sort()

    cycles: list[tuple[str, ...]] = []

    def search(start: str, current: str, path: list[str],
               on_path: set[str]) -> None:
        if len(cycles) >= cap:
            return
        for target in adjacency.get(current, ()):
            if target == start and len(path) >= 2:
                cycles.append(tuple(path))
                if len(cycles) >= cap:
                    return
            elif target > start and target not in on_path:
                on_path.add(target)
                path.append(target)
                search(start, target, path, on_path)
                path.pop()
                on_path.remove(target)

    for start in sorted(adjacency):
        search(start, start, [start], {start})
    return cycles


# -- reachability -------------------------------------------------------------

def bfs_reachable(succs: dict[int, list[int]], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in succs.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


# -- LRU cache simulation ------------------------------------------------------

class LruOracle:
    """Plain-list LRU model: tracks loads per key and peak residency."""

    def __init__(self, budget: int | None):
        self.budget = budget
        self.resident: list[str] = []
        self.loads: dict[str, int] = {}
        self.max_resident = 0

    def get(self, key: str) -> None:
        if key in self.resident:
            self.resident.remove(key)
            self.resident.append(key)
            return
        self.loads[key] = self.loads.get(key, 0) + 1
        self.resident.append(key)
        if self.budget is not None:
            while len(self.resident) > self.budget:
                self.resident.pop(0)
        self.max_resident = max(self.max_resident, len(self.resident))


# -- path enumeration over a CFG ----------------------------------------------

def enumerate_paths(succs: dict[int, list[int]], entry: int,
                    exit_id: int, cap: int = 10000) -> list[list[int]]:
    """All entry-to-exit node sequences of an acyclic graph."""
    paths: list[list[int]] = []

    def walk(node: int, prefix: list[int]) -> None:
        if len(paths) >= cap:
            raise RuntimeError("path explosion; fixture too large")
        prefix = prefix + [node]
        if node == exit_id:
            paths.append(prefix)
            return
        for nxt in succs.get(node, []):
            walk(nxt, prefix)

    walk(entry, [])
    return paths


# -- all-paths automaton simulation -------------------------------------------

def run_automaton_on_paths(automaton, cfg, node_events) -> set[tuple[str, str]]:
    """Simulate the property automaton separately along every CFG path.

    node_events(node) must yield (pattern_name, instance_key, texts)
    triples in deterministic order.  Returns the union over paths of
    (location string, message) pairs for error rules and exit-state
    errors, which is what a may-analysis fixpoint should also produce
    on loop-free, call-free inputs.
    """
    from cbugscan.checkers.automaton import render_message

    succs = {nid: [e.target for e in cfg.successors(nid)]
             for nid in cfg.nodes}
    errors: set[tuple[str, str]] = set()

    for path in enumerate_paths(succs, cfg.entry, cfg.exit):
        states: dict[tuple, str] = {}
        texts_of: dict[tuple, dict[str, str]] = {}
        for node_id in path:
            node = cfg.nodes[node_id]
            if node.ast_ref is None:
                continue
            for pattern_name, key, texts in node_events(node):
                if key not in states:
                    states[key] = automaton.start
                    texts_of[key] = texts
                state = states[key]
                if (state, pattern_name) in automaton.errors:
                    message = render_message(
                        automaton.errors[(state, pattern_name)], texts)
                    errors.add((str(node.location), message))
                elif (state, pattern_name) in automaton.transitions:
                    states[key] = automaton.transitions[(state, pattern_name)]
        exit_loc = str(cfg.nodes[cfg.exit].location)
        for key, state in states.items():
            if state in automaton.exit_errors:
                message = render_message(
                    automaton.exit_errors[state], texts_of[key])
                errors.add((exit_loc, message))
    return errors


# -- per-path held-lock simulation ---------------------------------------------

def must_held_by_paths(succs: dict[int, list[int]], entry: int, exit_id: int,
                       events: dict[int, list[tuple[str, str]]],
                       ) -> dict[int, set[str]]:
    """Held-at-node-entry sets from explicit path enumeration.

    events maps node id to an ordered list of ("lock"|"unlock", key)
    actions taken inside the node.  A lock counts as must-held at a node
    only if every enumerated path arriving there holds it.
    """
    per_node: dict[int, list[set[str]]] = {}
    for path in enumerate_paths(succs, entry, exit_id):
        held: set[str] = set()
        for node_id in path:
            per_node.setdefault(node_id, []).append(set(held))
            for op, key in events.get(node_id, []):
                if op == "lock":
                    held.add(key)
                else:
                    held.discard(key)
    return {
        node_id: set.intersection(*sets)
        for node_id, sets in per_node.items()
    }
