"""Call graph construction over a translation unit.

Call sites are collected in AST post-order, so nested calls appear
inner-first, matching evaluation order. Calls through anything other
than a plain identifier are recorded under the `<indirect>` sentinel.
`strongly_connected_components` orders the defined functions bottom-up
for analyses that summarize callees before their callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cbugscan.frontend.ast_nodes import AstNode, NodeKind

INDIRECT = "<indirect>"


@dataclass(frozen=True)
class CallEdge:
    caller: str
    call_node: AstNode
    callee: str
    external: bool


@dataclass
class CallGraph:
    edges: list[CallEdge] = field(default_factory=list)
    by_caller: dict[str, list[CallEdge]] = field(default_factory=dict)
    by_callee: dict[str, list[CallEdge]] = field(default_factory=dict)

    def add(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self.by_caller.setdefault(edge.caller, []).append(edge)
        self.by_callee.setdefault(edge.callee, []).append(edge)


def collect_calls(node: AstNode) -> list[AstNode]:
    """All Call nodes under `node`, post-order (inner calls first)."""
    # Children pushed left to right are visited right to left; that
    # mirrored preorder, reversed, is post-order.
    found: list[AstNode] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.kind is NodeKind.CALL:
            found.append(cur)
        stack.extend(cur.children)
    found.reverse()
    return found


def call_target(call: AstNode) -> tuple[str, bool]:
    """(callee name, is_indirect) for a Call node."""
    target = call.children[0]
    if target.kind is NodeKind.IDENTIFIER:
        return target.text, False
    return INDIRECT, True


def build_call_graph(functions: dict[str, AstNode]) -> CallGraph:
    """Call graph for a unit, given its defined functions by name.

    A callee is external when it is not defined in this unit (library
    functions, other units) or when the call is indirect.
    """
    graph = CallGraph()
    for name, func in functions.items():
        for call in collect_calls(func):
            callee, indirect = call_target(call)
            external = indirect or callee not in functions
            graph.add(CallEdge(name, call, callee, external))
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
