"""Flow-insensitive points-to analysis.

Assignments are mined into four constraint shapes over variable names
(`p = &x`, `p = q`, `p = *q`, `*p = q`); struct fields and array
subscripts collapse to their base variable, so the analysis is
field-insensitive. Anything not matching one of the shapes contributes
nothing.

The solver is unification-based with k pointee slots per equivalence
class. With k = 1 it is plain one-level unification: aliasing collapses
everything a pointer may target into one class. Larger k separates
targets by variable category, and running several rounds with rotated
category digits and intersecting the results sharpens precision
further, approaching (but not always reaching) a subset-based analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from cbugscan.frontend.ast_nodes import AstNode, NodeKind, iter_tree


class ConstraintKind(Enum):
    ADDRESS_OF = "address-of"  # p = &x
    COPY = "copy"              # p = q
    LOAD = "load"              # p = *q
    STORE = "store"            # *p = q


@dataclass(frozen=True)
class Constraint:
    """One points-to constraint between two names."""
    kind: ConstraintKind
    lhs: str
    rhs: str

    def __str__(self) -> str:
        shapes = {
            ConstraintKind.ADDRESS_OF: "{} = &{}",
            ConstraintKind.COPY: "{} = {}",
            ConstraintKind.LOAD: "{} = *{}",
            ConstraintKind.STORE: "*{} = {}",
        }
        return shapes[self.kind].format(self.lhs, self.rhs)


def _strip_base(node: AstNode) -> AstNode:
    while node.kind in (NodeKind.MEMBER, NodeKind.INDEX):
        node = node.children[0]
    return node


def _as_variable(node: AstNode) -> str | None:
    node = _strip_base(node)
    if node.kind is NodeKind.IDENTIFIER:
        return node.text
    return None


def constraint_from_assign(assign: AstNode) -> Constraint | None:
    """Classify one assignment, or None if it has no pointer shape."""
    lhs, rhs = assign.children
    lhs = _strip_base(lhs)

    if lhs.kind is NodeKind.UNARY_OP and lhs.text == "deref":
        target = _as_variable(lhs.children[0])
        source = _as_variable(rhs)
        if target is not None and source is not None:
            return Constraint(ConstraintKind.STORE, target, source)
        return None

    if lhs.kind is not NodeKind.IDENTIFIER:
        return None
    rhs = _strip_base(rhs)
    if rhs.kind is NodeKind.UNARY_OP and rhs.text == "addrof":
        source = _as_variable(rhs.children[0])
        if source is not None:
            return Constraint(ConstraintKind.ADDRESS_OF, lhs.text, source)
        return None
    if rhs.kind is NodeKind.UNARY_OP and rhs.text == "deref":
        source = _as_variable(rhs.children[0])
        if source is not None:
            return Constraint(ConstraintKind.LOAD, lhs.text, source)
        return None
    if rhs.kind is NodeKind.IDENTIFIER:
        return Constraint(ConstraintKind.COPY, lhs.text, rhs.text)
    return None


def collect_constraints(root: AstNode) -> list[Constraint]:
    """Mine constraints from every assignment under `root`, in AST order."""
    constraints = []
    for node in iter_tree(root):
        if node.kind is NodeKind.ASSIGN:
            con = constraint_from_assign(node)
            if con is not None:
                constraints.append(con)
    return constraints


def constraint_variables(constraints: Iterable[Constraint]) -> list[str]:
    """All variable names mentioned, sorted (this fixes category digits)."""
    return sorted({name for c in constraints for name in (c.lhs, c.rhs)})


class _Unifier:
    """Union-find with k pointee slots per class root.

    Slot c of a class holds (the root of) the class this one may point
    to among category-c variables. Classes of distinct categories are
    never merged: unions only ever combine two slot-c pointees or a
    variable with slot-cat(variable) content.
    """

    def __init__(self, names: list[str], k: int, category: Callable[[str], int]):
        self.k = k
        self.category = category
        self.parent: dict[str, str] = {n: n for n in names}
        self.size: dict[str, int] = {n: 1 for n in names}
        self.slots: dict[str, list[str | None]] = {n: [None] * k for n in names}

    def find(self, v: str) -> str:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: str, b: str) -> bool:
        """Merge the classes of a and b (and, cascading, their pointees)."""
        pending = [(a, b)]
        changed = False
        while pending:
            x, y = pending.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            changed = True
            if self.size[rx] < self.size[ry]:
                rx, ry = ry, rx
            self.parent[ry] = rx
            self.size[rx] += self.size[ry]
            merged = self.slots.pop(ry)
            kept = self.slots[rx]
            for c in range(self.k):
                if kept[c] is None:
                    kept[c] = merged[c]
                elif merged[c] is not None:
                    pending.append((kept[c], merged[c]))
        return changed

    def get_slot(self, v: str, c: int) -> str | None:
        root = self.find(v)
        slot = self.slots[root][c]
        if slot is None:
            return None
        slot = self.find(slot)
        self.slots[root][c] = slot
        return slot

    def point_slot_at(self, v: str, c: int, target: str) -> bool:
        """Make slot c of v's class include target's class."""
        root = self.find(v)
        slot = self.slots[root][c]
        if slot is None:
            self.slots[root][c] = self.find(target)
            return True
        return self.union(slot, target)

    def share_slots(self, a: str, b: str) -> bool:
        """Unify the pointee slots of a's and b's classes pairwise."""
        changed = False
        for c in range(self.k):
            sa = self.get_slot(a, c)
            sb = self.get_slot(b, c)
            if sa is None and sb is None:
                continue
            if sa is None:
                changed |= self.point_slot_at(a, c, sb)
            elif sb is None:
                changed |= self.point_slot_at(b, c, sa)
            else:
                changed |= self.union(sa, sb)
        return changed


def solve_unified(constraints: list[Constraint], k: int,
                  category: Callable[[str], int]) -> dict[str, frozenset[str]]:
    """Run the k-slot unification solver to a fixpoint."""
    names = constraint_variables(constraints)
    uf = _Unifier(names, k, category)

    changed = True
    while changed:
        changed = False
        for con in constraints:
            if con.kind is ConstraintKind.ADDRESS_OF:
                changed |= uf.point_slot_at(con.lhs, category(con.rhs), con.rhs)
            elif con.kind is ConstraintKind.COPY:
                changed |= uf.share_slots(con.lhs, con.rhs)
            elif con.kind is ConstraintKind.LOAD:
                for c in range(k):
                    mid = uf.get_slot(con.rhs, c)
                    if mid is not None:
                        changed |= uf.share_slots(con.lhs, mid)
            elif con.kind is ConstraintKind.STORE:
                for c in range(k):
                    mid = uf.get_slot(con.lhs, c)
                    if mid is not None:
                        changed |= uf.share_slots(mid, con.rhs)

    members: dict[str, list[str]] = {}
    for name in names:
        members.setdefault(uf.find(name), []).append(name)
    result = {}
    for name in names:
        targets: set[str] = set()
        for c in range(k):
            slot = uf.get_slot(name, c)
            if slot is not None:
                targets.update(members.get(slot, ()))
        result[name] = frozenset(targets)
    return result


def steensgaard(constraints: list[Constraint]) -> dict[str, frozenset[str]]:
    """One-category unification analysis (fast, coarse)."""
    return solve_unified(constraints, 1, lambda _: 0)


def rounds_for(k: int, variable_count: int) -> int:
    """Number of category rotations needed so every pair of variables
    lands in different categories in at least one round."""
    if k <= 1 or variable_count <= 1:
        return 1
    rounds = 1
    while k ** rounds < variable_count:
        rounds += 1
    return rounds


def shapiro_horowitz(constraints: list[Constraint], k: int) -> dict[str, frozenset[str]]:
    """Multi-round k-category unification analysis.

    Categories are assigned from each variable's rank in the sorted
    name universe: round i uses digit i of the rank, base k. The final
    points-to set is the intersection over all rounds, so precision
    grows with k while every round stays near-linear.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    names = constraint_variables(constraints)
    index = {name: i for i, name in enumerate(names)}
    if k == 1:
        return steensgaard(constraints)

    rounds = rounds_for(k, len(names))
    combined: dict[str, frozenset[str]] | None = None
    for r in range(rounds):
        digit = k ** r

        def category(name: str, _d: int = digit) -> int:
            return (index[name] // _d) % k

        sets = solve_unified(constraints, k, category)
        if combined is None:
            combined = sets
        else:
            combined = {n: combined[n] & sets[n] for n in combined}
    return combined if combined is not None else {}
