"""Call graph construction over a translation unit.

The call sites come from the walk that builds the unit's match table
(`cbugscan.patterns.build_match_table`); no tree is walked here. Edges
go by function, then by CFG node id (source order, except that a `for`
step follows its body), then in evaluation order: nested calls come
inner-first. Calls through anything other than a plain identifier are
recorded under the `<indirect>` sentinel. `strongly_connected_components`
orders the defined functions bottom-up for analyses that summarize
callees before their callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cbugscan.frontend.ast_nodes import AstNode, NodeKind
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


@dataclass
class CallGraph:
    """A unit's call edges, in order and by caller."""
    edges: list[CallEdge] = field(default_factory=list)
    by_caller: dict[str, list[CallEdge]] = field(default_factory=dict)


def build_call_graph(cfgs: dict[str, Cfg],
                     calls: dict[int, list[AstNode]]) -> CallGraph:
    """Call graph for a unit, given its CFGs by function name and the
    calls of each CFG node in evaluation order.

    A callee is external when it is not defined in this unit (library
    functions, other units) or when the call is indirect.
    """
    graph = CallGraph()
    for name, cfg in cfgs.items():
        for node_id in cfg.nodes:
            for call in calls.get(node_id, ()):
                target = call.children[0]
                if target.kind is NodeKind.IDENTIFIER:
                    callee, external = target.text, target.text not in cfgs
                else:
                    callee, external = INDIRECT, True
                edge = CallEdge(name, node_id, call, callee, external)
                graph.edges.append(edge)
                graph.by_caller.setdefault(name, []).append(edge)
    return graph


def strongly_connected_components(graph: CallGraph,
                                  functions: list[str]) -> list[list[str]]:
    """The strongly connected components of the calls among `functions`,
    every component after all components it calls (Tarjan, SIAM J.
    Comput. 1(2), 1972), found with an explicit stack. Roots are tried in
    the given order and callees in call order; members keep the given
    order."""
    order = {name: i for i, name in enumerate(functions)}
    succs = {name: list(dict.fromkeys(
        edge.callee for edge in graph.by_caller.get(name, ())
        if not edge.external)) for name in functions}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []
    for root in functions:
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
