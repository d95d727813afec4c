"""Independent reference implementations used to cross-check the analyses.

Each oracle here deliberately uses a different algorithm (and usually a
different data representation) than the code under test, so agreement
between the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from collections import deque

from cbugscan.checkers.automaton import (
    _ABSENT,
    _Instance,
    _merge,
    render_message,
)
from cbugscan.checkers.base import LOCK, forward_fixpoint
from cbugscan.checkers.threads import (
    Witness,
    find_thread_entries,
    lock_key,
    report_cycles,
)
from cbugscan.errors import FrontendError
from cbugscan.frontend import (
    AstNode,
    NodeKind,
    SourceLocation,
    iter_tree,
    to_text,
    tokenize,
)
from cbugscan.frontend.ast_nodes import (
    BINARY_PRECEDENCE,
    UNARY_SYMBOL,
    int_value,
)
from cbugscan.frontend.lexer import _LINE_MARKER, KEYWORDS
from cbugscan.frontend.parser import _Parser
from cbugscan.patterns import match_node
from cbugscan.pointsto import Constraint, ConstraintKind
from cbugscan.report import ErrorTrace, Importance, TraceStep


# -- report order ---------------------------------------------------------------

def full_key_normalize(traces: list[ErrorTrace]) -> list[ErrorTrace]:
    """Report order by one stable sort on the full key: primary
    location, checker, message and the id of every finding."""
    return sorted(traces, key=lambda t: (
        t.primary_location.file,
        t.primary_location.line,
        t.primary_location.column,
        t.checker,
        t.message,
        t.id,
    ))


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


# -- call-string cloning --------------------------------------------------------
#
# The interprocedural walk the checkers used before function summaries:
# each entry's graph holds one copy of a callee per calling context (the
# tuple of call frames leading to it), and facts are solved over that
# graph. Without the old call-depth bound it is exact on acyclic call
# graphs and does not end on recursive ones, so it refuses them.

def cloned_supergraph(unit, entry: str):
    """(succs, node_function, entry key, exit key) of `entry`'s
    call-expanded graph; keys are (frames, CFG node id), a frame is
    (caller, call node id, call, callee)."""
    def local_calls(node):
        if node.ast_ref is None:
            return []
        return [call for call in collect_calls(node.ast_ref)
                if call.children[0].text in unit.cfgs]

    succs: dict = {}
    node_function: dict[int, str] = {}
    pending = [((), entry)]
    expanded = set()
    while pending:
        frames, fn = pending.pop()
        if (frames, fn) in expanded:
            continue
        expanded.add((frames, fn))
        cfg = unit.cfgs[fn]
        node_function.update(dict.fromkeys(cfg.nodes, fn))
        for node_id, node in cfg.nodes.items():
            node_succs = succs.setdefault((frames, node_id), [])
            out = [(frames, target) for target in cfg.succs[node_id]]
            chain = local_calls(node)
            if not chain:
                node_succs.extend(out)
                continue
            inner = []
            for call in chain:
                callee = call.children[0].text
                if callee == entry or any(f[3] == callee for f in frames):
                    raise ValueError("cloning needs an acyclic call graph")
                inner.append(frames + ((fn, node_id, call, callee),))
                pending.append((inner[-1], callee))
            cfgs = [unit.cfgs[call.children[0].text] for call in chain]
            node_succs.append((inner[0], cfgs[0].entry))
            for i in range(len(chain) - 1):
                succs.setdefault((inner[i], cfgs[i].exit), []).append(
                    (inner[i + 1], cfgs[i + 1].entry))
            succs.setdefault((inner[-1], cfgs[-1].exit), []).extend(out)
    root = unit.cfgs[entry]
    return succs, node_function, ((), root.entry), ((), root.exit)


# -- expression mapping across a call, by rewriting trees ----------------------

def map_expression_to_caller(expr, call, unit):
    """Rewrite an expression of the function `call` calls into the
    caller's terms: formals become the actual argument trees, `folded`,
    globals pass through, and an expression that depends on a callee
    local (or a call of the wrong arity) has no caller-side equivalent:
    None. The result is `folded`."""
    callee = call.children[0].text
    params = unit.func_params.get(callee)
    if params is None:
        return None
    actuals = call.children[1:]
    if len(actuals) != len(params):
        return None
    formal_to_actual = dict(zip(params, actuals))
    locals_ = unit.func_locals.get(callee, {})

    def leaf(node):
        actual = formal_to_actual.get(node.text)
        if actual is None and node.text in locals_:
            return None
        return node if actual is None else folded(actual)

    return _rewritten(expr, leaf)


def folded(expr):
    """`expr` with each dereferenced address `*&E` or `(&E)[0]` as `E`,
    the object itself, each address of an object `&*E` or `&E[0]` as
    `E`, each `(&E)->f` as `E.f` and each `(*E).f` as `E->f`."""
    return _rewritten(expr, lambda node: node)


def _rewritten(expr, leaf):
    """`expr` with each identifier, but a member's field name, replaced
    by `leaf(identifier)`, and folded as `folded` says; None when `leaf`
    gives None."""
    # post-order on an explicit stack: a node is rewritten once its
    # children are; the field name of a member access is not a variable
    mapped: dict[int, AstNode] = {}
    pending = [(expr, False)]
    while pending:
        node, children_done = pending.pop()
        if node.kind is NodeKind.IDENTIFIER:
            mapped[id(node)] = leaf(node)
            if mapped[id(node)] is None:
                return None
            continue
        variables = (node.children[:1] if node.kind is NodeKind.MEMBER
                     else node.children)
        if not variables:
            mapped[id(node)] = node
        elif not children_done:
            pending.append((node, True))
            pending.extend((child, False) for child in variables)
        else:
            children = tuple(mapped[id(child)] for child in variables)
            inner = children[0]
            address = (inner.kind is NodeKind.UNARY_OP
                       and inner.text == "addrof")
            dereferenced = (inner.kind is NodeKind.UNARY_OP
                            and inner.text == "deref")
            first = (inner.kind is NodeKind.INDEX
                     and _is_zero(inner.children[1]))
            if address and node.kind is NodeKind.UNARY_OP and (
                    node.text == "deref"):
                mapped[id(node)] = inner.children[0]
            elif (dereferenced or first) and node.kind is NodeKind.UNARY_OP \
                    and node.text == "addrof":
                mapped[id(node)] = inner.children[0]
            elif address and node.kind is NodeKind.INDEX and (
                    _is_zero(children[1])):
                mapped[id(node)] = inner.children[0]
            elif address and node.kind is NodeKind.MEMBER and (
                    node.text == "arrow"):
                mapped[id(node)] = AstNode(
                    NodeKind.MEMBER, node.location, "dot",
                    (inner.children[0], node.children[1]))
            elif dereferenced and node.kind is NodeKind.MEMBER and (
                    node.text == "dot"):
                mapped[id(node)] = AstNode(
                    NodeKind.MEMBER, node.location, "arrow",
                    (inner.children[0], node.children[1]))
            else:
                mapped[id(node)] = _clone(
                    node, children + node.children[len(variables):])
    return mapped[id(expr)]


def _is_zero(node) -> bool:
    return node.kind is NodeKind.INT_LITERAL and int_value(node.text) == 0


def _clone(node, children):
    return AstNode(kind=node.kind, location=node.location, text=node.text,
                   children=children, ctype=node.ctype,
                   end_location=node.end_location)


def frame_storage(expr, declared) -> bool:
    """Whether `expr`, `folded`, names storage of a frame whose variables
    have the `declared` types: `&x`, or, perhaps under `&`, a chain of
    indexes then fields on `x`, where `x`'s type has no `*` and, with an
    index, is an array. So `*&x` is `x`."""
    expr = folded(expr)
    if expr.kind is NodeKind.UNARY_OP and expr.text == "addrof":
        if expr.children[0].kind is NodeKind.IDENTIFIER:
            return expr.children[0].text in declared
        expr = expr.children[0]
    accessors = ""
    while (expr.kind is NodeKind.INDEX
           or expr.kind is NodeKind.MEMBER and expr.text == "dot"):
        accessors = ("[" if expr.kind is NodeKind.INDEX else ".") + accessors
        expr = expr.children[0]
    ctype = declared.get(expr.text) if expr.kind is NodeKind.IDENTIFIER else None
    return (ctype is not None and "*" not in ctype
            and re.fullmatch(r"\[*\.*", accessors) is not None
            and ("[" not in accessors or "[" in ctype))


def _cloned_texts(bindings, frames, entry, unit):
    """The bound expressions' texts, walking out of the frames of a
    clone of `entry`, with the depth of the frame they stop in: the
    first whose own storage one of them names, whose exit ends the
    instance, or else -1 past the entry. A text is `callee::text` from
    where a callee local blocks the way."""
    exprs = {name: folded(expr) for name, expr in bindings.items()}
    for depth in range(len(frames), -1, -1):
        fn = frames[depth - 1][3] if depth else entry
        if any(not isinstance(expr, str)
               and frame_storage(expr, unit.func_locals[fn])
               for expr in exprs.values()):
            break
        if not depth:
            depth = -1
            break
        for name, expr in exprs.items():
            if not isinstance(expr, str):
                mapped = map_expression_to_caller(expr, frames[depth - 1][2],
                                                  unit)
                exprs[name] = (f"{fn}::{to_text(expr)}" if mapped is None
                               else mapped)
    return depth, {name: expr if isinstance(expr, str) else to_text(expr)
                   for name, expr in exprs.items()}


def cloned_automaton_traces(automaton, unit):
    """The automaton checker's findings by call-string cloning. An
    instance is keyed by its texts and the depth of the frame whose own
    storage it names, and that frame's exit judges and ends it."""
    traces, emitted = [], set()

    def emit(key, message, location, steps):
        if (key[1:], message, str(location)) not in emitted:
            emitted.add((key[1:], message, str(location)))
            traces.append(ErrorTrace("automaton", Importance.ERROR,
                                     message, steps))

    def judge(ikey, inst, location):
        for state in inst.states:
            template = automaton.exit_errors.get(state)
            if template is not None:
                message = render_message(template, inst.texts)
                emit(ikey, message, location, inst.states[state] + (
                    TraceStep(location, message),))

    roots = walked_roots(unit)
    for entry in unit.functions:
        succs, node_function, start, end = cloned_supergraph(unit, entry)

        def cfg_node(key):
            return unit.cfgs[node_function[key[1]]].nodes[key[1]]

        def transfer(key, in_map):
            node = cfg_node(key)
            depth = len(key[0])
            if node.id == unit.cfgs[node_function[key[1]]].exit:
                for ikey, inst in in_map.items():
                    if ikey[0] == depth:
                        judge(ikey, inst, node.location)
                return {ikey: inst for ikey, inst in in_map.items()
                        if ikey[0] != depth}
            if node.ast_ref is None:
                return in_map
            out = dict(in_map)
            for subnode in iter_tree(node.ast_ref):
                for pattern in automaton.patterns:
                    bindings = match_node(pattern, subnode)
                    if bindings is None:
                        continue
                    owner, texts = _cloned_texts(bindings, key[0], entry, unit)
                    ikey = (owner, *sorted(texts.values()))
                    inst = out.get(ikey) or _Instance(
                        texts, {automaton.start: ()})
                    states = {}
                    for state, witness in inst.states.items():
                        if state == _ABSENT:
                            state, witness = automaton.start, ()
                        error = automaton.errors.get((state, pattern.name))
                        if error is not None:
                            message = render_message(error, texts)
                            emit(ikey, message, node.location, witness + (
                                TraceStep(node.location, message),))
                            states.setdefault(state, witness)
                            continue
                        target = automaton.transitions.get(
                            (state, pattern.name))
                        if target is None:
                            states.setdefault(state, witness)
                        else:
                            states.setdefault(target, witness + (TraceStep(
                                node.location, to_text(subnode)),))
                    out[ikey] = _Instance(inst.texts, states)
            return out

        in_maps = forward_fixpoint(start, {}, lambda k: succs.get(k, ()),
                                   transfer, _merge)
        if entry in roots:
            for ikey, inst in in_maps.get(end, {}).items():
                judge(ikey, inst, cfg_node(end).location)
    return traces


def cloned_lock_graph(unit, entry: str, config):
    """One entry's lock-order graph by call-string cloning."""
    events = config.node_events(unit, match_node, lock_key)
    succs, _, start, _ = cloned_supergraph(unit, entry)
    edges: dict = {}
    seen = set()

    def transfer(key, in_set):
        current = set(in_set)
        for kind, lock, location in events.get(key[1], ()):
            if kind is not LOCK:
                current = {pair for pair in current if pair[0] != lock}
                continue
            for held, held_location in current:
                if held != lock and (held, lock, held_location,
                                     location) not in seen:
                    seen.add((held, lock, held_location, location))
                    edges.setdefault((held, lock), []).append(
                        Witness(entry, held_location, location))
            current.add((lock, location))
        return frozenset(current)

    forward_fixpoint(start, frozenset(), lambda k: succs.get(k, ()), transfer,
                     lambda old, new: None if new <= old else old | new)
    return edges


def cloned_thread_traces(unit, config, services):
    """The thread checker's findings by call-string cloning, each edge
    with its least witness over the entries."""
    graph: dict = {}
    for entry in find_thread_entries(unit, config, services):
        for edge, witnesses in cloned_lock_graph(unit, entry, config).items():
            for witness in witnesses:
                if edge not in graph or witness < graph[edge]:
                    graph[edge] = witness
    return report_cycles(unit, graph, config.max_cycles, services)


# -- per-entry lock-order graphs ----------------------------------------------

def build_dependency_graph(entry: str, summaries, applied):
    """One entry's lock-order edges from the unit's lock summaries and the
    solver's record of applied calls, every witness of each edge in a
    list, sorted."""
    found = set()
    reached, pending = {entry}, [entry]
    while pending:
        fn = pending.pop()
        found |= summaries[fn].edges
        for callee in applied[fn].keys() - reached:
            reached.add(callee)
            pending.append(callee)
    edges: dict = {}
    for held_key, key, held_location, location in sorted(found):
        edges.setdefault((held_key, key), []).append(
            Witness(entry, held_location, location))
    return edges


def combine_graphs(graphs):
    """The per-entry graphs' union, each edge's witnesses sorted."""
    combined: dict = {}
    for graph in graphs:
        for edge, witnesses in graph.items():
            combined.setdefault(edge, []).extend(witnesses)
    for witnesses in combined.values():
        witnesses.sort(key=lambda w: (w.entry, w.first_location, w.second_location))
    return combined


# -- pattern matching by walking the trees -----------------------------------------

def walked_matches(patterns, subnodes, match=match_node):
    """(pattern, subnode, bindings) for every match on `subnodes`, in
    their order, each subnode's patterns in list order: every pattern is
    tried on every subnode, with no shape rule, as a checker matched one
    CFG node's tree (`iter_tree(root)`) before the match table."""
    for subnode in subnodes:
        for pattern in patterns:
            bindings = match(pattern, subnode)
            if bindings is not None:
                yield pattern, subnode, bindings


def subnodes_outside(root, trees):
    """The subnodes under `root` in preorder, without the subtrees whose
    roots are in `trees` (by identity)."""
    skip = {id(tree) for tree in trees}
    pending = [root]
    while pending:
        node = pending.pop()
        if id(node) not in skip:
            yield node
            pending.extend(reversed(node.children))


def all_pattern_hits(unit, pattern, match=match_node):
    """(CFG node id or None, position, subnode, bindings) for every
    match of `pattern` in `unit`, with no table and no shape rule: the
    pattern is tried on every subnode of each CFG node's tree
    (`iter_tree`), positioned in that tree, and on every subnode outside
    those trees, positioned in their shared preorder."""
    trees = [(node.id, node.ast_ref) for cfg in unit.cfgs.values()
             for node in cfg.nodes.values() if node.ast_ref is not None]
    owned = [(owner, iter_tree(tree)) for owner, tree in trees]
    owned.append((None, subnodes_outside(unit.ast, [t for _, t in trees])))
    hits = []
    for owner, subnodes in owned:
        for position, subnode in enumerate(subnodes):
            bindings = match(pattern, subnode)
            if bindings is not None:
                hits.append((owner, position, subnode, bindings))
    return hits


# -- call sites by walking the trees ---------------------------------------------

def collect_calls(node):
    """All Call nodes under `node`, post-order (inner calls first): how
    the call graph found call sites before the match-table pass did."""
    # Children pushed left to right are visited right to left; that
    # mirrored preorder, reversed, is post-order.
    found = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.kind is NodeKind.CALL:
            found.append(cur)
        stack.extend(cur.children)
    found.reverse()
    return found


def walked_roots(unit) -> set[str]:
    """The defined functions that no other defined function calls, on
    acyclic call graphs: `fn` calls a function when a node of `fn`'s own
    expansion of the call is reachable from `fn`'s entry in its
    call-expanded graph, so a call after one that never returns calls
    nothing."""
    called = set()
    for fn in unit.cfgs:
        succs, _, start, _ = cloned_supergraph(unit, fn)
        called.update(frames[0][3] for frames, _ in bfs_reachable(succs, start)
                      if frames)
    return set(unit.cfgs) - called


# -- expressions by recursive precedence climbing ------------------------------

class RecursiveExpressionParser(_Parser):
    """The parser with its expression layer as it was before `binary`
    became a loop that reads its operands itself: precedence climbing by
    recursion (one `binary` frame per operand), one `unary` frame per
    prefix, and leaf tokens built in `primary`. Token plumbing and
    statements are the parser's own."""

    _UNARY_NAME = {symbol: name for name, symbol in UNARY_SYMBOL.items()}

    def assignment(self) -> AstNode:
        left = self.binary(1)  # every binary operator binds tighter than '='
        if self.at("="):
            self.advance()
            right = self.assignment()
            return AstNode(NodeKind.ASSIGN, left.location, text="=", children=(left, right))
        return left

    def binary(self, min_prec: int) -> AstNode:
        left = self.unary()
        while (prec := BINARY_PRECEDENCE.get(self.tok[0], 0)) >= min_prec:
            op = self.tok
            self.advance()
            right = self.binary(prec + 1)
            left = AstNode(NodeKind.BINARY_OP, left.location, text=op[1],
                           children=(left, right))
        return left

    def unary(self) -> AstNode:
        tok = self.tok
        if tok[0] in self._UNARY_NAME:
            self.advance()
            operand = self.unary()
            return AstNode(NodeKind.UNARY_OP, tok[2],
                           text=self._UNARY_NAME[tok[0]], children=(operand,))
        return self.postfix()

    def postfix(self) -> AstNode:
        node = self.primary()
        while True:
            tok = self.tok
            if tok[0] == "(":
                self.advance()
                args = []
                if not self.at(")"):
                    args.append(self.assignment())
                    while self.accept(","):
                        args.append(self.assignment())
                self.expect(")")
                node = AstNode(NodeKind.CALL, node.location,
                               children=(node, *args))
            elif tok[0] == "[":
                self.advance()
                index = self.expression()
                self.expect("]")
                node = AstNode(NodeKind.INDEX, node.location, children=(node, index))
            elif tok[0] in ("->", "."):
                self.advance()
                field = self.expect("ident")
                field_node = AstNode(NodeKind.IDENTIFIER, field[2], text=field[1])
                node = AstNode(NodeKind.MEMBER, node.location,
                               text="arrow" if tok[0] == "->" else "dot",
                               children=(node, field_node))
            else:
                return node

    def primary(self) -> AstNode:
        tok = self.tok
        if tok[0] == "ident":
            self.advance()
            return AstNode(NodeKind.IDENTIFIER, tok[2], text=tok[1])
        if tok[0] == "number":
            self.advance()
            return AstNode(NodeKind.INT_LITERAL, tok[2], text=tok[1])
        if tok[0] == "string":
            self.advance()
            return AstNode(NodeKind.STRING_LITERAL, tok[2], text=tok[1])
        if tok[0] == "metavar":
            self.advance()
            return AstNode(NodeKind.META_VAR, tok[2], text=tok[1])
        if tok[0] == "(":
            self.advance()
            expr = self.expression()
            self.expect(")")
            return expr
        raise self.fail(f"expected expression, found {tok[1] or tok[0]!r}")


def recursive_parse(source: str, file: str = "<pattern>",
                    fragment: bool = True) -> AstNode:
    """One expression (`fragment`, metavariables enabled, the whole
    input) or a whole translation unit, by `RecursiveExpressionParser`."""
    parser = RecursiveExpressionParser(
        tokenize(source, file, metavars=fragment), file)
    if not fragment:
        return parser.translation_unit()
    expr = parser.expression()
    parser.expect("eof")
    return expr


# -- token locations by bisection ---------------------------------------------

# One match per token or per blank run, in the lexer's token classes: the
# lexer's own expression folds each blank run into the token after it and
# reads a token's kind from its text.
_ONE_TOKEN = r"""
    (?P<space>[ \t\n\r\f\v]+)
  | (?P<comment>//[^\n]*|/\*(?s:.*?)\*/)
  | (?P<open_comment>/\*)
  | (?P<directive>\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*)(?P<bad_number>[A-Za-z0-9_])?
  | (?P<string>"(?:[^"\\\n]|\\(?s:.))*")
  | (?P<open_string>")
  | """
_ONE_METAVAR = r"(?P<metavar>%[A-Za-z_][A-Za-z0-9_]*) | "
_ONE_OPERATOR = r"""
    (?P<punct>&&|\|\||[=!<>]=|->|[-(){}\[\];,=<>+*/%&!.:])
  | (?P<other>.)
  | (?P<eof>\Z)
"""
_ONE_SOURCE_TOKEN = re.compile(_ONE_TOKEN + _ONE_OPERATOR, re.VERBOSE)
_ONE_TEMPLATE_TOKEN = re.compile(_ONE_TOKEN + _ONE_METAVAR + _ONE_OPERATOR,
                                 re.VERBOSE)


def bisected_tokens(source: str, file: str, metavars: bool = False
                    ) -> list[tuple[str, str, str, int, int]]:
    """(kind, text, file, line, column) of every token, eof included, as
    the lexer located them before it counted lines while lexing: a token's
    physical line is a `bisect_right` over the offsets where lines start,
    found by a pass over the newlines first, and a line marker's shift is
    N minus the marker's physical line minus one. Each token class is a
    named group, as in the lexer before a kind was read from the text.
    `metavars` lexes `%NAME` as one metavariable token, as in a pattern
    template. Raises the lexer's FrontendError for a bad character."""
    line_starts = [0]
    line_starts.extend(m.end() for m in re.finditer("\n", source))
    shift = 0
    tokens = []
    at_line_start = True
    regex = _ONE_TEMPLATE_TOKEN if metavars else _ONE_SOURCE_TOKEN
    for m in regex.finditer(source):
        kind = m.lastgroup
        text = m[0]
        if kind == "space":
            at_line_start = at_line_start or "\n" in text
            continue
        if kind == "comment":
            continue
        if kind == "directive" and at_line_start:
            marker = _LINE_MARKER.match(text)
            if marker:
                shift = int(marker[1]) - bisect_right(line_starts, m.start()) - 1
                if marker[2] is not None:
                    file = re.sub(r"\\(.)", r"\1", marker[2])
            continue
        at_line_start = False
        start = m.start()
        row = bisect_right(line_starts, start)
        where = SourceLocation(file, row + shift, start - line_starts[row - 1] + 1)
        if kind == "ident":
            kind = text if text in KEYWORDS else "ident"
        elif kind == "punct":
            kind = text
        elif kind == "metavar":
            text = text[1:]
        elif kind == "open_comment":
            raise FrontendError("unterminated comment", where)
        elif kind == "open_string":
            raise FrontendError("unterminated string literal", where)
        elif kind == "bad_number":
            raise FrontendError(f"malformed number near {text!r}", where)
        elif kind not in ("number", "string", "eof"):
            raise FrontendError(f"unexpected character {text[0]!r}", where)
        tokens.append((kind, text, *where))
    return tokens


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


def dead_leaders_by_inversion(cfg) -> list[int]:
    """`reach.dead_leaders` by its rule, with each node's predecessors
    read off a full inversion of `succs` and breadth-first reachability:
    a dead node leads unless its one predecessor has one successor, and
    a dead region without a leader promotes its first node by location."""
    preds: dict[int, list[int]] = {node_id: [] for node_id in cfg.nodes}
    for node_id, targets in cfg.succs.items():
        for target in targets:
            preds[target].append(node_id)
    alive = bfs_reachable(cfg.succs, cfg.entry)
    dead = [node_id for node_id, node in cfg.nodes.items()
            if node.ast_ref is not None and node_id not in alive]
    leaders = [node_id for node_id in dead
               if not (len(preds[node_id]) == 1
                       and len(cfg.succs[preds[node_id][0]]) == 1)]
    if dead and not leaders:
        leaders = [min(dead, key=lambda n: cfg.nodes[n].location)]
    return sorted(leaders, key=lambda n: cfg.nodes[n].location)


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

    errors: set[tuple[str, str]] = set()

    for path in enumerate_paths(cfg.succs, cfg.entry, cfg.exit):
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
