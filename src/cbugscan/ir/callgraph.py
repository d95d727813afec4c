"""The call graph of a translation unit, built as its supergraph.

`build_call_graph` joins the CFGs of every function a unit defines into
one graph, the supergraph of Reps, Horwitz & Sagiv (POPL'95), which the
unit keeps as `call_graph`. Its call sites come from the walk that
builds the unit's match table (`cbugscan.patterns.build_match_table`);
only the actuals of unit-local calls are walked here. `edges` holds
every call site, by function, then by CFG node id (source order, except
that a `for` step follows its body), then in evaluation order: nested
calls come inner-first. Calls through anything other than a plain
identifier are recorded under the `<indirect>` sentinel. `succs` maps
every CFG node id, which is unique within a unit, to its CFG's own
successor list, not a copy; `calls` lists each node's calls to
functions the unit defines, each as its callee and its actuals' access
paths (`ast_nodes.to_path`), so that no reader needs the call's tree;
`sccs` holds the components of those calls, callees before callers
(`strongly_connected_components`), for analyses that summarize callees
before their callers. The graph holds the unit's CFGs but no reference
back to the unit, so a unit and its graph are freed without the cycle
collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from cbugscan.frontend.ast_nodes import AstNode, NodeKind, Path, to_path
from cbugscan.ir.cfg import Cfg

INDIRECT = "<indirect>"


@dataclass(frozen=True)
class CallEdge:
    """One call site: caller, CFG node, call expression and callee."""
    caller: str
    node_id: int  # the caller's CFG node whose tree holds the call
    call_node: AstNode
    callee: str
    external: bool


@dataclass(eq=False)
class SuperGraph:
    """All CFGs of one unit, every call site, and the unit-local calls,
    each as its callee and its actuals' access paths.

    `recursive` names the functions of every component that calls
    itself: a call between two functions of one component (`scc_of`
    gives a function's index in `sccs`) is a recursive call.
    """
    edges: list[CallEdge]
    cfgs: dict[str, Cfg]
    succs: dict[int, list[int]]
    calls: dict[int, list[tuple[str, tuple[Path, ...]]]]
    sccs: list[list[str]]
    scc_of: dict[str, int]
    recursive: frozenset[str]


def build_call_graph(cfgs: dict[str, Cfg],
                     calls: dict[int, list[AstNode]]) -> SuperGraph:
    """The supergraph of a unit, given its CFGs by function name and the
    calls of each CFG node in evaluation order.

    A callee is external when it is not defined in this unit (library
    functions, other units) or when the call is indirect.
    """
    edges: list[CallEdge] = []
    local: dict[int, list] = {}
    callees: dict[str, list[str]] = {fn: [] for fn in cfgs}
    for name, cfg in cfgs.items():
        for node_id in cfg.nodes:
            for call in calls.get(node_id, ()):
                target = call.children[0]
                callee = target.text if target.kind is NodeKind.IDENTIFIER \
                    else INDIRECT
                external = callee not in cfgs
                edges.append(CallEdge(name, node_id, call, callee, external))
                if not external:
                    local.setdefault(node_id, []).append((callee, tuple(
                        map(to_path, call.children[1:]))))
                    callees[name].append(callee)
    sccs = strongly_connected_components(callees)
    return SuperGraph(
        edges=edges,
        cfgs=cfgs,
        succs={node_id: targets for cfg in cfgs.values()
               for node_id, targets in cfg.succs.items()},
        calls=local,
        sccs=sccs,
        scc_of={fn: i for i, scc in enumerate(sccs) for fn in scc},
        recursive=frozenset(fn for scc in sccs
                            if len(scc) > 1 or scc[0] in callees[scc[0]]
                            for fn in scc),
    )


def strongly_connected_components(
        succs: Mapping[str, Iterable[str]]) -> list[list[str]]:
    """The strongly connected components of the calls `succs` maps each
    function to (its callees, each one a key, repeats allowed), every
    component after all components it calls (Tarjan, SIAM J. Comput.
    1(2), 1972), found with an explicit stack. Roots are tried in key
    order and callees in the given order; members keep key order."""
    order = {name: i for i, name in enumerate(succs)}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []
    for root in succs:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succs[root]))]
        while work:
            name, pending = work[-1]
            for callee in pending:
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    on_stack.add(callee)
                    work.append((callee, iter(succs[callee])))
                    break
                if callee in on_stack:
                    low[name] = min(low[name], index[callee])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[name])
                if low[name] == index[name]:
                    component = []
                    while not component or component[-1] != name:
                        component.append(stack.pop())
                        on_stack.discard(component[-1])
                    components.append(sorted(component, key=order.__getitem__))
    return components
