"""Automaton checker: finite-state rules over matched code patterns.

A config file defines one or more automata. Each automaton names its
states, a start state, a set of code patterns with metavariables, and
transitions keyed by (state, pattern). Matching a pattern the first
time creates a tracked instance per distinct metavariable binding; the
instance then steps through states as later matches fire. Transitions
flagged as errors report a message; states flagged with error-at-exit
report when an instance can still be in that state when the function
returns.

The analysis is interprocedural through function summaries, solved
callees first by `traverse.solve_summaries` and joined by `_union`. A
summary maps each instance key in the function's own terms and each
entry state to the exit states, with witness steps, and to the
transition errors fired on the way. At a call, the callee's keys are
rewritten into the caller's terms once per call edge (formals become the
actual arguments; a key that depends on a callee local keeps the
`callee::text` form), and the summary is applied to the caller's
instances. There is no call-depth bound; recursion is solved to a
fixpoint.

Every defined function is also analyzed as an entry point from no
instances, and its transition errors are reported in its own terms.
Exit-state errors are only evaluated for functions nothing else in the
unit calls from reachable code, since for a callee the outer context
may legitimately complete the protocol.

A witness is the path the worklist reaches first: each function is
solved by one FIFO worklist over its own CFG, where a call is one step,
and the callee's part of the witness is the one in its summary for the
instance's state at the call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

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
    SourceLocation,
    iter_tree,
    statement_text,
)
from cbugscan.ir.cfg import reachable_nodes
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import (
    Pattern,
    compile_pattern,
    match_node,
)
from cbugscan.report import ErrorTrace, Importance, TraceStep
from cbugscan.traverse import (
    SuperGraph,
    build_supergraph,
    callee_name,
    map_expression_to_caller,
    solve_summaries,
)

_METAVAR_RE = re.compile(r"%([A-Za-z_]\w*)")


@dataclass
class AutomatonDef:
    """A parsed automaton config: states, patterns, transitions, errors."""
    name: str
    states: list[str] = field(default_factory=list)
    start: str = ""
    patterns: list[Pattern] = field(default_factory=list)
    transitions: dict[tuple[str, str], str] = field(default_factory=dict)
    errors: dict[tuple[str, str], str] = field(default_factory=dict)
    exit_errors: dict[str, str] = field(default_factory=dict)

    def pattern_names(self) -> set[str]:
        return {p.name for p in self.patterns}

    def validate(self, source: str) -> None:
        where = f"{source}: automaton {self.name!r}"
        if not self.states:
            raise ConfigError(f"{where}: no states declared")
        if _ABSENT in self.states:
            raise ConfigError(
                f"{where}: state name {_ABSENT!r} is reserved")
        if not self.start:
            raise ConfigError(f"{where}: no start state")
        if self.start not in self.states:
            raise ConfigError(f"{where}: start state {self.start!r} not declared")
        names = self.pattern_names()
        rules = list(self.transitions) + list(self.errors)
        if len(rules) != len(set(rules)):
            raise ConfigError(f"{where}: duplicate (state, pattern) rule")
        for state, pattern in rules:
            if state not in self.states:
                raise ConfigError(f"{where}: unknown state {state!r}")
            if pattern not in names:
                raise ConfigError(f"{where}: unknown pattern {pattern!r}")
        for target in self.transitions.values():
            if target not in self.states:
                raise ConfigError(f"{where}: unknown state {target!r}")
        for state in self.exit_errors:
            if state not in self.states:
                raise ConfigError(f"{where}: unknown state {state!r}")


def parse_automaton_file(text: str, source: str = "<automaton>") -> list[AutomatonDef]:
    automata: list[AutomatonDef] = []
    current: AutomatonDef | None = None

    def need_current(lineno: int) -> AutomatonDef:
        if current is None:
            raise ConfigError(
                f"{source}:{lineno}: directive before 'automaton NAME'")
        return current

    for lineno, line, parts in config_lines(text, source):
        directive = parts[0]
        if directive == "automaton" and len(parts) == 2:
            if current is not None:
                current.validate(source)
            current = AutomatonDef(name=parts[1])
            automata.append(current)
        elif directive == "states" and len(parts) >= 2:
            need_current(lineno).states.extend(parts[1:])
        elif directive == "start" and len(parts) == 2:
            need_current(lineno).start = parts[1]
        elif directive == "pattern" and len(parts) == 3:
            need_current(lineno).patterns.append(
                compile_pattern(parts[2], name=parts[1]))
        elif directive == "transition" and len(parts) == 5 and parts[3] == "->":
            auto = need_current(lineno)
            key = (parts[1], parts[2])
            if key in auto.transitions or key in auto.errors:
                raise ConfigError(
                    f"{source}:{lineno}: duplicate rule for {key}")
            auto.transitions[key] = parts[4]
        elif directive == "error" and len(parts) == 4:
            auto = need_current(lineno)
            key = (parts[1], parts[2])
            if key in auto.transitions or key in auto.errors:
                raise ConfigError(
                    f"{source}:{lineno}: duplicate rule for {key}")
            auto.errors[key] = parts[3]
        elif directive == "error-at-exit" and len(parts) == 3:
            auto = need_current(lineno)
            if parts[1] in auto.exit_errors:
                raise ConfigError(f"{source}:{lineno}: duplicate rule "
                                  f"for error-at-exit {parts[1]!r}")
            auto.exit_errors[parts[1]] = parts[2]
        else:
            raise ConfigError(f"{source}:{lineno}: cannot parse {line!r}")
    if current is not None:
        current.validate(source)
    if not automata:
        raise ConfigError(f"{source}: no automata defined")
    return automata


def render_message(template: str, texts: dict[str, str]) -> str:
    return _METAVAR_RE.sub(
        lambda m: texts.get(m.group(1), m.group(0)), template)


# Pseudo-state marking paths where the instance has not been created
# yet. It appears when instance maps from different paths merge; on the
# next matched event it behaves like a fresh instance in the start
# state, and it never triggers exit errors (no instance, no report).
_ABSENT = "<absent>"


class _Then:
    """Two witnesses, one after the other. A witness is `()`, a tuple of
    trace steps, or a `_Then`, which shares both parts instead of copying
    them: a path through nested calls may hold exponentially many steps
    in the call depth, while a summary stays linear. Compared by
    identity, which is enough because facts keep their first witness."""
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second


def _then(first, second):
    """The witness `first` followed by `second`."""
    if not first:
        return second
    if not second:
        return first
    return _Then(first, second)


def _steps(witness) -> tuple[TraceStep, ...]:
    """A witness's trace steps, in order."""
    steps: list[TraceStep] = []
    pending = [witness]
    while pending:
        part = pending.pop()
        if type(part) is _Then:
            pending += (part.second, part.first)
        else:
            steps.extend(part)
    return tuple(steps)


@dataclass(frozen=True)
class _Instance:
    """A binding instance: first-sight texts and states with witnesses."""
    texts: dict[str, str]                          # first-sight bindings
    states: dict[str, tuple | _Then]               # state -> witness


_Key = tuple[str, ...]                             # sorted binding texts
_InstMap = dict[_Key, _Instance]


def _merge(old: _InstMap, new: _InstMap) -> _InstMap | None:
    """The union of two instance maps, or None when `new` adds nothing.

    Keys and states already in `old` keep their place and witness; the
    rest follow in `new`'s order. An instance only one side knows also
    gains the absent pseudo-state: some path here has not created it.
    """
    merged = dict(old)
    for key, inst in new.items():
        mine = old.get(key)
        if mine is None:
            merged[key] = _Instance(inst.texts, {**inst.states, _ABSENT: ()})
            continue
        added = {state: witness for state, witness in inst.states.items()
                 if state not in mine.states}
        if added:
            merged[key] = _Instance(mine.texts, {**mine.states, **added})
    for key, mine in old.items():
        if key not in new and _ABSENT not in mine.states:
            merged[key] = _Instance(mine.texts, {**mine.states, _ABSENT: ()})
    # unchanged entries are the same objects, so this compares cheaply
    return None if merged == old else merged


def map_binding(expr: AstNode, call: AstNode,
                unit: TranslationUnit) -> tuple[str, AstNode | None]:
    """A callee's bound expression in the terms of the caller of `call`:
    its text and its expression. When the expression depends on a callee
    local, there is none, and the text is prefixed with the callee's
    name so distinct locals never collide across functions."""
    mapped = map_expression_to_caller(expr, call, unit)
    if mapped is None:
        return f"{callee_name(call)}::{statement_text(expr)}", None
    return statement_text(mapped), mapped


class AutomatonChecker(Checker):
    name = "automaton"

    def __init__(self, config_path: str | None):
        self.automata = parse_automaton_file(
            read_config(config_path, self.name), config_path)

    def check_unit(self, unit: TranslationUnit,
                   services: Services) -> list[ErrorTrace]:
        graph = build_supergraph(unit)
        roots = _call_graph_roots(unit)
        traces: list[ErrorTrace] = []
        for automaton in self.automata:
            traces.extend(_run_automaton(automaton, unit, graph, roots))
        return traces


def _call_graph_roots(unit: TranslationUnit) -> set[str]:
    """The defined functions that no *other* defined function calls from
    a CFG node reachable from its entry."""
    local = [edge for edge in unit.call_graph.edges
             if not edge.external and edge.callee != edge.caller]
    alive = {fn: reachable_nodes(unit.cfgs[fn])
             for fn in {edge.caller for edge in local}}
    return set(unit.functions) - {edge.callee for edge in local
                                  if edge.node_id in alive[edge.caller]}


def _run_automaton(automaton: AutomatonDef, unit: TranslationUnit,
                   graph: SuperGraph, roots: set[str]) -> list[ErrorTrace]:
    traces: list[ErrorTrace] = []
    emitted: set[tuple[_Key, str, SourceLocation]] = set()

    def emit(key: _Key, message: str, location: SourceLocation,
             steps: tuple[TraceStep, ...]) -> None:
        dedup = (key, message, location)
        if dedup in emitted:
            return
        emitted.add(dedup)
        traces.append(ErrorTrace(
            checker="automaton",
            importance=Importance.ERROR,
            message=message,
            steps=steps,
        ))

    events = node_events(
        automaton.patterns, unit, match_node,
        lambda pattern, subnode, bindings: (
            pattern.name, statement_text(subnode), {
                var: (statement_text(expr), expr)
                for var, expr in bindings.items()}))
    summaries = _Summaries(automaton, unit, graph, events)
    for entry in unit.functions:
        summary = summaries.solved[entry, ()]
        for key, errors in summary.errors[_ABSENT].items():
            for error in errors:
                message = render_message(error.template, error.texts)
                emit(key, message, error.location, _steps(error.steps)
                     + (TraceStep(error.location, message),))
        if entry not in roots:
            continue
        exit_map = summary.exits[_ABSENT]
        cfg = unit.cfgs[entry]
        exit_node = cfg.nodes[cfg.exit]
        for key in sorted(exit_map):
            inst = exit_map[key]
            for state in list(inst.states):
                template = automaton.exit_errors.get(state)
                if template is None:
                    continue
                message = render_message(template, inst.texts)
                steps = _steps(inst.states[state]) + (
                    TraceStep(exit_node.location, message),)
                emit(key, message, exit_node.location, steps)
    return traces


# -- function summaries -----------------------------------------------------

# an expression text in some function's terms, and the expression; None
# for a `callee::text` key, which no caller can rewrite
_Binding = tuple[str, "AstNode | None"]
_UNSEEN = {_ABSENT: ()}


class _Error(NamedTuple):
    """A transition error; `steps` is its witness up to the error."""
    template: str
    texts: dict[str, str]
    location: SourceLocation
    steps: tuple | _Then


class _Summary(NamedTuple):
    """What a call to one function does to the automaton's instances.

    For each entry state of an instance, `_ABSENT` when it does not exist
    yet, `exits` holds the instances at the function's exit and `errors`
    the transition errors fired on the way, by instance key, with
    witnesses that start at the function's entry. The entry state
    `_ABSENT` is solved from no instances at all, every other state with
    each key in `keys` (the keys the function touches) in that state.
    `bindings` gives the expression behind each text of those keys.
    """
    returns: bool
    keys: tuple[_Key, ...]
    bindings: dict[str, AstNode | None]
    exits: dict[str, _InstMap]
    errors: dict[str, dict[_Key, list[_Error]]]


# where a recursive component's iteration starts: no call returns yet
_BOTTOM = _Summary(False, (), {}, {}, {})


class _Summaries:
    """The summaries of one automaton's functions over one unit, solved
    by `traverse.solve_summaries` and joined with `_union`.

    A summary is in the terms of its function. A call that passes one
    object under two names, so that two of the callee's keys become one
    key of the caller, gets a variant summary of the callee with those
    texts merged (`merges` maps each merged text to the binding that
    stands for it, as the first call to ask gave it); the solver solves
    such variants on demand.
    """

    def __init__(self, automaton: AutomatonDef, unit: TranslationUnit,
                 graph: SuperGraph, events: dict[int, list]):
        self.automaton = automaton
        self.unit = unit
        self.graph = graph
        self.events = events
        self.called = {callee_name(call) for calls in graph.calls.values()
                       for call in calls}
        self.merges: dict[tuple, dict[str, _Binding]] = {}
        self.caller_bindings: dict[tuple[AstNode, str], _Binding] = {}
        self.solved = solve_summaries(graph, self.summarize, _union, _BOTTOM)

    def caller_binding(self, call: AstNode, text: str, expr: AstNode | None,
                       recursive: bool) -> _Binding:
        """A callee's binding in the caller's terms, once per call edge.
        Across a recursive call a binding may not grow, so that a
        component has finitely many keys and its iteration ends."""
        found = self.caller_bindings.get((call, text))
        if found is None:
            if expr is None:
                found = (text, None)
            else:
                found = map_binding(expr, call, self.unit)
                if (recursive and found[1] is not None
                        and _size(found[1]) > _size(expr)):
                    found = (f"{callee_name(call)}::{text}", None)
            self.caller_bindings[(call, text)] = found
        return found

    def at_call(self, fn: str, call: AstNode, merge: dict[str, _Binding],
                summary_of) -> _Summary:
        """The summary of the function `call` calls, in the terms of `fn`
        with `merge` applied."""
        callee = callee_name(call)
        base = summary_of(callee)
        recursive = self.graph.scc_of[callee] == self.graph.scc_of[fn]

        def outer(text: str, expr: AstNode | None) -> _Binding:
            binding = self.caller_binding(call, text, expr, recursive)
            return merge.get(binding[0], binding)

        # callee texts that become one text here are one instance
        classes: dict[str, list[str]] = {}
        for text, expr in base.bindings.items():
            classes.setdefault(outer(text, expr)[0], []).append(text)
        inner = {text: (members[0], base.bindings[members[0]])
                 for members in classes.values() for text in members[1:]}
        variant = tuple(sorted((text, binding[0])
                               for text, binding in inner.items()))
        self.merges.setdefault((callee, variant), inner)
        summary = summary_of(callee, variant)
        return _renamed(summary, {text: outer(text, expr) for text, expr
                                  in summary.bindings.items()})

    def summarize(self, fn: str, variant: tuple, summary_of) -> _Summary:
        automaton, graph = self.automaton, self.graph
        merge = self.merges.get((fn, variant), {})
        cfg = graph.cfgs[fn]
        keys: dict[_Key, None] = {}
        bindings: dict[str, AstNode | None] = {}
        own: dict[int, list] = {}
        applied: dict[int, list[_Summary]] = {}

        def own_events(node_id: int) -> list:
            found = own.get(node_id)
            if found is None:
                found = own[node_id] = []
                for name, step, binds in self.events.get(node_id, ()):
                    texts = {}
                    for var, binding in binds.items():
                        text, expr = merge.get(binding[0], binding)
                        texts[var] = text
                        bindings.setdefault(text, expr)
                    key = tuple(sorted(texts.values()))
                    keys[key] = None
                    found.append((name, step, texts, key))
            return found

        def callees(node_id: int) -> list[_Summary]:
            found = applied.get(node_id)
            if found is None:
                found = applied[node_id] = []
                for call in graph.calls.get(node_id, ()):
                    summary = self.at_call(fn, call, merge, summary_of)
                    found.append(summary)
                    keys.update(dict.fromkeys(summary.keys))
                    for text, expr in summary.bindings.items():
                        bindings.setdefault(text, expr)
                    if not summary.returns:
                        break
            return found

        def run(initial: _InstMap):
            errors: dict[_Key, list[_Error]] = {}
            seen: set[tuple[_Key, str, SourceLocation]] = set()

            def record(key: _Key, template: str, texts: dict[str, str],
                       location: SourceLocation,
                       steps: tuple | _Then) -> None:
                dedup = (key, render_message(template, texts), location)
                if dedup not in seen:
                    seen.add(dedup)
                    errors.setdefault(key, []).append(
                        _Error(template, texts, location, steps))

            def transfer(node_id: int, in_map: _InstMap) -> _InstMap | None:
                out = _step(automaton, cfg.nodes[node_id].location,
                            own_events(node_id), in_map, record)
                for summary in callees(node_id):
                    out = _apply(summary, out, record)
                    if not summary.returns:
                        return None
                return out

            in_maps = forward_fixpoint(cfg.entry, initial, graph.succs.get,
                                       transfer, _merge)
            return in_maps.get(cfg.exit), errors

        exit_map, errors = run({})
        exits = {_ABSENT: exit_map or {}}
        all_errors = {_ABSENT: errors}
        if fn in self.called:
            for state in automaton.states:
                state_exit, all_errors[state] = run(
                    {key: _Instance({}, {state: ()}) for key in keys})
                exits[state] = state_exit or {}
        return _Summary(returns=exit_map is not None, keys=tuple(keys),
                        bindings=bindings, exits=exits, errors=all_errors)


def _size(expr: AstNode) -> int:
    return sum(1 for _ in iter_tree(expr))


def _step(automaton: AutomatonDef, location: SourceLocation, events: list,
          in_map: _InstMap, record) -> _InstMap:
    """The instances after a node's own events, in evaluation order."""
    if not events:
        return in_map
    out = dict(in_map)
    for pattern_name, step_text, texts, key in events:
        inst = out.get(key)
        if inst is None:
            inst = _Instance(texts, {automaton.start: ()})
        new_states: dict[str, tuple | _Then] = {}
        for state, witness in inst.states.items():
            if state == _ABSENT:
                # first sight on this path: created in the start state
                state, witness = automaton.start, ()
            template = automaton.errors.get((state, pattern_name))
            if template is not None:
                record(key, template, texts, location, witness)
                new_states.setdefault(state, witness)
                continue
            target = automaton.transitions.get((state, pattern_name))
            if target is not None:
                step = TraceStep(location, step_text)
                new_states.setdefault(target, _then(witness, (step,)))
            else:
                new_states.setdefault(state, witness)
        out[key] = _Instance(inst.texts, new_states)
    return out


def _apply(summary: _Summary, in_map: _InstMap, record) -> _InstMap:
    """The instances after a call, from those before it; the callee's
    errors are recorded after each instance's witness so far."""
    out = dict(in_map)
    for key in summary.keys:
        inst = in_map.get(key)
        new_states: dict[str, tuple | _Then] = {}
        for state, witness in (_UNSEEN if inst is None else inst.states).items():
            for error in summary.errors.get(state, {}).get(key, ()):
                record(key, error.template, error.texts, error.location,
                       _then(witness, error.steps))
            after = summary.exits.get(state, {}).get(key)
            if after is None:  # the call leaves this instance alone
                new_states.setdefault(state, witness)
                continue
            for target, steps in after.states.items():
                new_states.setdefault(target, _then(witness, steps))
        if inst is not None:
            out[key] = _Instance(inst.texts, new_states)
        elif list(new_states) != [_ABSENT]:
            out[key] = _Instance(summary.exits[_ABSENT][key].texts, new_states)
    return out


def _renamed(summary: _Summary, mapping: dict[str, _Binding]) -> _Summary:
    """`summary` with each binding text `t` written as `mapping[t]`."""
    if all(binding[0] == text for text, binding in mapping.items()):
        return summary
    new_text = {text: binding[0] for text, binding in mapping.items()}

    def key_of(key: _Key) -> _Key:
        return tuple(sorted(new_text[text] for text in key))

    def texts_of(texts: dict[str, str]) -> dict[str, str]:
        return {var: new_text[text] for var, text in texts.items()}

    return _Summary(
        returns=summary.returns,
        keys=tuple(dict.fromkeys(key_of(key) for key in summary.keys)),
        bindings=dict(mapping.values()),
        exits={state: {key_of(key): _Instance(texts_of(inst.texts), inst.states)
                       for key, inst in instances.items()}
               for state, instances in summary.exits.items()},
        errors={state: {key_of(key): [error._replace(texts=texts_of(error.texts))
                                      for error in errors]
                        for key, errors in by_key.items()}
                for state, by_key in summary.errors.items()},
    )


def _union(old: _Summary, new: _Summary) -> _Summary:
    """What either summary holds; what `old` holds keeps its place and
    witness, so iterating a component only ever adds."""
    exits = {state: dict(instances) for state, instances in old.exits.items()}
    for state, instances in new.exits.items():
        merged = exits.setdefault(state, {})
        for key, inst in instances.items():
            mine = merged.get(key)
            if mine is None:
                merged[key] = inst
                continue
            added = {s: w for s, w in inst.states.items() if s not in mine.states}
            if added:
                merged[key] = _Instance(mine.texts, {**mine.states, **added})
    errors = {state: {key: list(found) for key, found in by_key.items()}
              for state, by_key in old.errors.items()}
    for state, by_key in new.errors.items():
        table = errors.setdefault(state, {})
        for key, found in by_key.items():
            mine = table.setdefault(key, [])
            known = {(render_message(e.template, e.texts), e.location)
                     for e in mine}
            mine.extend(e for e in found
                        if (render_message(e.template, e.texts), e.location)
                        not in known)
    return _Summary(
        returns=old.returns or new.returns,
        keys=tuple(dict.fromkeys(old.keys + new.keys)),
        bindings={**new.bindings, **old.bindings},
        exits=exits,
        errors=errors,
    )
