"""The per-unit interprocedural graph and expression mapping across calls.

`build_supergraph(unit)` joins the CFGs of every function a unit defines
into one graph, the supergraph of Reps, Horwitz & Sagiv (POPL'95).
`succs` maps every CFG node id, which is unique within a unit, to its
CFG's own successor list, not a copy; `calls` lists each node's calls
to functions the unit defines, in evaluation order; `sccs` holds the
components of those calls (`ir.callgraph.strongly_connected_components`),
callees before callers. `calls`, `recursive` and the components are
read off the edges of the unit's call graph, which holds the call sites
the match-table pass found: no tree is walked here. The graph is
computed on the first call for a unit and kept on the unit, which every
later call, from any checker, returns; it holds the unit's CFGs but no
reference back to the unit, so a unit and its graph are freed without
the cycle collector.

Calls are not expanded into the graph. The interprocedural checkers
compute one summary per function and apply a callee's summary at each
node that calls it: the functional approach of Sharir & Pnueli (1981).
`solve_summaries` is the one solver: it solves `sccs` callees first and
iterates a recursive component until its summaries stop changing, so
there is no call-depth bound; a checker only says how to summarize one
function, how to join two summaries, and where iteration starts.

Expressions observed inside a callee can be translated into the caller's
terms (formals become the actual argument expressions), which lets
checkers track one object across call boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

from cbugscan.frontend.ast_nodes import AstNode, NodeKind
from cbugscan.ir.callgraph import strongly_connected_components
from cbugscan.ir.cfg import Cfg
from cbugscan.ir.units import TranslationUnit

Summary = TypeVar("Summary")


@dataclass(eq=False)
class SuperGraph:
    """All CFGs of one unit, with their unit-local calls.

    `recursive` names the functions of every component that calls
    itself: a call between two functions of one component (`scc_of`
    gives a function's index in `sccs`) is a recursive call. The unit
    keeps its graph; the graph holds the unit's CFGs, not the unit.
    """
    cfgs: dict[str, Cfg]
    succs: dict[int, list[int]]
    calls: dict[int, list[AstNode]]
    sccs: list[list[str]]
    scc_of: dict[str, int]
    recursive: frozenset[str]


def callee_name(call: AstNode) -> str:
    """The function a unit-local call (one listed in `calls`) calls."""
    return call.children[0].text


def build_supergraph(unit: TranslationUnit) -> SuperGraph:
    """The unit's CFGs as one graph, each node's unit-local calls, and
    the call graph's components in bottom-up order. The first call for a
    unit computes the graph and keeps it on the unit; later calls, from
    any checker, return the same graph."""
    if unit.supergraph is None:
        unit.supergraph = _supergraph(unit)
    return unit.supergraph


def _supergraph(unit: TranslationUnit) -> SuperGraph:
    calls: dict[int, list[AstNode]] = {}
    callees: dict[str, list[str]] = {fn: [] for fn in unit.cfgs}
    for edge in unit.call_graph.edges:
        if not edge.external:
            calls.setdefault(edge.node_id, []).append(edge.call_node)
            callees[edge.caller].append(edge.callee)
    sccs = strongly_connected_components(callees)
    return SuperGraph(
        cfgs=unit.cfgs,
        succs={node_id: targets for cfg in unit.cfgs.values()
               for node_id, targets in cfg.succs.items()},
        calls=calls,
        sccs=sccs,
        scc_of={fn: i for i, scc in enumerate(sccs) for fn in scc},
        recursive=frozenset(fn for scc in sccs
                            if len(scc) > 1 or scc[0] in callees[scc[0]]
                            for fn in scc),
    )


# -- summaries, bottom-up ----------------------------------------------------------

class _Unsolved(Exception):
    """A summary of a lower component is asked for and not solved yet."""


def solve_summaries(graph: SuperGraph,
                    summarize: Callable[[str, Hashable, Callable], Summary],
                    join: Callable[[Summary, Summary], Summary],
                    bottom: Summary) -> dict[tuple[str, Hashable], Summary]:
    """Every function's summary by (function, variant), the base variant
    `()` and every other one asked for; `summarize(fn, variant, summary_of)`
    computes one, reading a callee's as `summary_of(callee, variant=())`.

    Components are solved callees first. A recursive one starts from
    `bottom` and its summaries become `join(old, summarize(...))` until
    none changes; a summary of it that is asked for joins in. A summary
    of a lower component that is asked for and not solved yet is solved
    first, then the asking attempt is made again; attempts wait on an
    explicit stack, so long chains of requests take no recursion."""
    solved: dict[tuple[str, Hashable], Summary] = {}
    members: dict = {}  # the keys of the recursive component iterated
    current = -1        # and its index

    def summary_of(fn: str, variant: Hashable = ()) -> Summary:
        found = solved.get((fn, variant))
        if found is None:
            if graph.scc_of[fn] != current:
                raise _Unsolved((fn, variant))
            members[fn, variant] = None
            found = solved[fn, variant] = bottom
        return found

    def solve(keys: list[tuple[str, Hashable]]) -> None:
        nonlocal current
        if keys[0][0] not in graph.recursive:
            solved[keys[0]] = summarize(*keys[0], summary_of)
            return
        current = graph.scc_of[keys[0][0]]
        members.update(dict.fromkeys(keys))
        solved.update(dict.fromkeys(keys, bottom))
        try:
            changed = True
            while changed:
                known = len(members)
                changed = False
                for key in list(members):
                    new = join(solved[key], summarize(*key, summary_of))
                    if new != solved[key]:
                        solved[key] = new
                        changed = True
                changed = changed or len(members) != known
        except _Unsolved:
            for key in members:
                del solved[key]
            raise
        finally:
            current = -1
            members.clear()

    for scc in graph.sccs:
        pending = [[(fn, ()) for fn in scc]]
        while pending:
            try:
                solve(pending[-1])
            except _Unsolved as unsolved:
                pending.append(list(unsolved.args))
            else:
                pending.pop()
    return solved


# -- expression mapping across call boundaries --------------------------------

def map_expression_to_caller(expr: AstNode, call: AstNode,
                             unit: TranslationUnit) -> AstNode | None:
    """Rewrite an expression of the function `call` calls into the
    caller's terms.

    Formal parameters become the actual argument expressions from the
    call site. Globals pass through untouched. An expression that
    depends on a callee local (or on mismatched call arity) has no
    caller-side equivalent: returns None.
    """
    callee = callee_name(call)
    params = unit.func_params.get(callee)
    if params is None:
        return None
    actuals = call.children[1:]
    if len(actuals) != len(params):
        return None
    formal_to_actual = dict(zip(params, actuals))
    locals_ = unit.func_locals.get(callee, set())

    # post-order on an explicit stack: a node is rewritten once its
    # children are; the field name of a member access is not a variable
    mapped: dict[int, AstNode] = {}
    pending = [(expr, False)]
    while pending:
        node, children_done = pending.pop()
        if node.kind is NodeKind.IDENTIFIER:
            actual = formal_to_actual.get(node.text)
            if actual is None and node.text in locals_:
                return None
            mapped[id(node)] = node if actual is None else actual
            continue
        variables = (node.children[:1] if node.kind is NodeKind.MEMBER
                     else node.children)
        if not variables:
            mapped[id(node)] = node
        elif not children_done:
            pending.append((node, True))
            pending.extend((child, False) for child in variables)
        else:
            mapped[id(node)] = _clone(node, tuple(
                mapped[id(child)] for child in variables)
                + node.children[len(variables):])
    return mapped[id(expr)]


def _clone(node: AstNode, children: tuple[AstNode, ...]) -> AstNode:
    return AstNode(
        kind=node.kind,
        location=node.location,
        text=node.text,
        children=children,
        ctype=node.ctype,
        end_location=node.end_location,
    )
