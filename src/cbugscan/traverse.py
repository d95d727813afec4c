"""Interprocedural supergraphs and expression mapping across calls.

A supergraph is built for one entry function: each call to a function
defined in the same unit is expanded into that callee's CFG,
instantiated per calling context. A context is the tuple of call
frames leading to the instance; recursion is cut by never re-entering
a function already on the frame stack and by a configurable depth
bound, so the supergraph is always finite.

Expressions observed inside a callee can be translated into the
caller's terms (formals become the actual argument expressions), which
lets checkers track one object across call boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cbugscan.frontend.ast_nodes import AstNode, NodeKind
from cbugscan.ir.callgraph import collect_calls
from cbugscan.ir.cfg import CfgNode
from cbugscan.ir.units import TranslationUnit


DEFAULT_MAX_CALL_DEPTH = 8


# -- interprocedural supergraph ---------------------------------------------

@dataclass(frozen=True)
class CallFrame:
    """One call-site on the context stack of a supergraph instance."""
    caller: str
    call_site: int        # CFG node id containing the call
    call: AstNode         # the Call expression (identity matters, not value)
    callee: str


Context = tuple[CallFrame, ...]
SuperKey = tuple[Context, int]


@dataclass(eq=False)
class SuperGraph:
    """The call-expanded graph of one entry function.

    `succs` maps each (context, CFG node id) key to its successor keys.
    `node_function` maps CFG node ids to function names for the
    functions the graph reaches only, not for the whole unit.
    """
    unit: TranslationUnit
    entry_function: str
    entry: SuperKey
    exit: SuperKey
    succs: dict[SuperKey, list[SuperKey]] = field(default_factory=dict)
    node_function: dict[int, str] = field(default_factory=dict)

    def cfg_node(self, key: SuperKey) -> CfgNode:
        fn = self.node_function[key[1]]
        return self.unit.cfgs[fn].nodes[key[1]]


def _local_calls(node: CfgNode, unit: TranslationUnit) -> list[AstNode]:
    """Calls in this node to functions defined in the unit, in
    evaluation (post-) order."""
    if node.ast_ref is None:
        return []
    return [call for call in collect_calls(node.ast_ref)
            if call.children[0].kind is NodeKind.IDENTIFIER
            and call.children[0].text in unit.cfgs]


def build_supergraph(unit: TranslationUnit, entry_function: str,
                     max_call_depth: int = DEFAULT_MAX_CALL_DEPTH) -> SuperGraph:
    """Expand `entry_function` and the unit-local functions it calls
    into one graph, one callee instance per calling context."""
    root_cfg = unit.cfgs[entry_function]
    node_function: dict[int, str] = {}
    # function -> CFG node id -> its unit-local calls, once per function
    local_calls: dict[str, dict[int, list[AstNode]]] = {}

    succs: dict[SuperKey, list[SuperKey]] = {}
    pending: list[tuple[Context, str]] = [((), entry_function)]
    expanded: set[tuple[Context, str]] = set()

    while pending:
        context, fn = pending.pop()
        if (context, fn) in expanded:
            continue
        expanded.add((context, fn))
        cfg = unit.cfgs[fn]
        calls = local_calls.get(fn)
        if calls is None:
            calls = local_calls[fn] = {
                node_id: _local_calls(node, unit)
                for node_id, node in cfg.nodes.items()}
            node_function.update(dict.fromkeys(cfg.nodes, fn))
        # the calls the graph descends into: recursion is cut at any
        # function already on the frame stack, and depth at the bound
        on_stack = {frame.callee for frame in context}
        descend = len(context) < max_call_depth
        for node_id in cfg.nodes:
            node_succs = succs.setdefault((context, node_id), [])
            out = [(context, e.target) for e in cfg.successors(node_id)]
            chain = [call for call in calls[node_id]
                     if call.children[0].text not in on_stack] if descend else []
            if not chain:
                node_succs.extend(out)
                continue
            frames = []
            for call in chain:
                callee = call.children[0].text
                frames.append(context + (CallFrame(fn, node_id, call, callee),))
                pending.append((frames[-1], callee))
            first_callee = unit.cfgs[chain[0].children[0].text]
            node_succs.append((frames[0], first_callee.entry))
            for i in range(len(chain) - 1):
                this_cfg = unit.cfgs[chain[i].children[0].text]
                next_cfg = unit.cfgs[chain[i + 1].children[0].text]
                exit_key = (frames[i], this_cfg.exit)
                succs.setdefault(exit_key, []).append(
                    (frames[i + 1], next_cfg.entry))
            last_cfg = unit.cfgs[chain[-1].children[0].text]
            last_exit = (frames[-1], last_cfg.exit)
            succs.setdefault(last_exit, []).extend(out)

    return SuperGraph(
        unit=unit,
        entry_function=entry_function,
        entry=((), root_cfg.entry),
        exit=((), root_cfg.exit),
        succs=succs,
        node_function=node_function,
    )


# -- expression mapping across call boundaries --------------------------------

def map_expression_to_caller(expr: AstNode, frame: CallFrame,
                             unit: TranslationUnit) -> AstNode | None:
    """Rewrite a callee-context expression into the caller's terms.

    Formal parameters become the actual argument expressions from the
    call site. Globals pass through untouched. An expression that
    depends on a callee local (or on mismatched call arity) has no
    caller-side equivalent: returns None.
    """
    params = unit.func_params.get(frame.callee)
    if params is None:
        return None
    actuals = frame.call.children[1:]
    if len(actuals) != len(params):
        return None
    formal_to_actual = dict(zip(params, actuals))
    locals_ = unit.func_locals.get(frame.callee, set())

    def rewrite(node: AstNode) -> AstNode | None:
        if node.kind is NodeKind.IDENTIFIER:
            mapped = formal_to_actual.get(node.text)
            if mapped is not None:
                return mapped
            if node.text in locals_:
                return None
            return node
        if not node.children:
            return node
        if node.kind is NodeKind.MEMBER:
            # the field name is not a variable; only the base maps
            base = rewrite(node.children[0])
            if base is None:
                return None
            return _clone(node, (base, node.children[1]))
        new_children = []
        for child in node.children:
            mapped_child = rewrite(child)
            if mapped_child is None:
                return None
            new_children.append(mapped_child)
        return _clone(node, tuple(new_children))

    return rewrite(expr)


def _clone(node: AstNode, children: tuple[AstNode, ...]) -> AstNode:
    return AstNode(
        kind=node.kind,
        location=node.location,
        text=node.text,
        children=children,
        ctype=node.ctype,
        end_location=node.end_location,
    )
