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
transition errors fired on the way. A summary holds texts, never syntax
trees. At a call, the callee's keys are rewritten into the caller's
terms by text, once per call edge, through one table per run from each
text to the first tree seen with it (formals become the actual
arguments; a key that depends on a callee local keeps the `callee::text`
form), and the summary is applied to the caller's instances. There is
no call-depth bound; recursion is solved to a fixpoint.

Every defined function is also analyzed as an entry point from no
instances, and its transition errors are reported in its own terms.
Exit-state errors are only evaluated for functions that no caller
outside their own recursion calls, since for a callee the outer context
may legitimately complete the protocol: a function is judged at exit
when no applied call enters its component of the calls the summary
walks apply. A call the walk never applies, one in dead code or after a
call that never returns, calls nothing.

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
    forward_fixpoint,
    matches,
    read_config,
    read_directives,
)
from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import (
    AstNode,
    SourceLocation,
    iter_tree,
    statement_text,
)
from cbugscan.ir.callgraph import strongly_connected_components
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
        for state, pattern in [*self.transitions, *self.errors]:
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

    def take(words: list[str]) -> bool:
        directive, *args = words
        if directive == "automaton" and len(args) == 1:
            if automata:
                automata[-1].validate(source)
            automata.append(AutomatonDef(name=args[0]))
            return True
        # each directive an automaton holds, and whether its words fit it
        if not {"states": len(args) >= 1, "start": len(args) == 1,
                "pattern": len(args) == 2,
                "transition": len(args) == 4 and args[2] == "->",
                "error": len(args) == 3,
                "error-at-exit": len(args) == 2}.get(directive):
            return False
        if not automata:
            raise ValueError("directive before 'automaton NAME'")
        auto = automata[-1]
        if directive == "states":
            auto.states.extend(args)
        elif directive == "start":
            auto.start = args[0]
        elif directive == "pattern":
            auto.patterns.append(compile_pattern(args[1], name=args[0]))
        elif directive == "error-at-exit":
            if args[0] in auto.exit_errors:
                raise ValueError(f"duplicate rule for error-at-exit {args[0]!r}")
            auto.exit_errors[args[0]] = args[1]
        else:
            key = (args[0], args[1])
            if key in auto.transitions or key in auto.errors:
                raise ValueError(f"duplicate rule for {key}")
            rules = auto.transitions if directive == "transition" else auto.errors
            rules[key] = args[-1]
        return True

    read_directives(text, source, take)
    if not automata:
        raise ConfigError(f"{source}: no automata defined")
    automata[-1].validate(source)
    return automata


def render_message(template: str, texts: dict[str, str]) -> str:
    return _METAVAR_RE.sub(
        lambda m: texts.get(m.group(1), m.group(0)), template)


# Pseudo-state marking paths where the instance has not been created
# yet. It appears when instance maps from different paths merge; on the
# next matched event it behaves like a fresh instance in the start
# state, and it never triggers exit errors (no instance, no report).
_ABSENT = "<absent>"
_UNSEEN = {_ABSENT: ()}


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


def _joined(mine: _Instance, states: dict[str, tuple | _Then]) -> _Instance:
    """`mine` with the states of `states` it lacks added after its own,
    with their witnesses; `mine` itself when it lacks none."""
    added = {state: witness for state, witness in states.items()
             if state not in mine.states}
    return _Instance(mine.texts, {**mine.states, **added}) if added else mine


def _merge(old: _InstMap, new: _InstMap) -> _InstMap | None:
    """The union of two instance maps, or None when `new` adds nothing.

    Keys and states already in `old` keep their place and witness; the
    rest follow in `new`'s order. An instance only one side knows also
    gains the absent pseudo-state: some path here has not created it.
    """
    merged = dict(old)
    for key, inst in new.items():
        mine = old.get(key)
        merged[key] = (_joined(inst, _UNSEEN) if mine is None
                       else _joined(mine, inst.states))
    for key, mine in old.items():
        if key not in new:
            merged[key] = _joined(mine, _UNSEEN)
    # unchanged entries are the same objects, so this compares cheaply
    return None if merged == old else merged


class AutomatonChecker(Checker):
    name = "automaton"

    def __init__(self, config_path: str | None):
        self.automata = parse_automaton_file(
            read_config(config_path, self.name), config_path)

    def check_unit(self, unit: TranslationUnit,
                   services: Services) -> list[ErrorTrace]:
        graph = build_supergraph(unit)
        traces: list[ErrorTrace] = []
        for automaton in self.automata:
            traces.extend(_run_automaton(automaton, unit, graph))
        return traces


def _run_automaton(automaton: AutomatonDef, unit: TranslationUnit,
                   graph: SuperGraph) -> list[ErrorTrace]:
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

    summaries = _Summaries(automaton, unit, graph)
    sccs = strongly_connected_components(summaries.applied)
    scc_of = {fn: i for i, scc in enumerate(sccs) for fn in scc}
    entered = {scc_of[callee] for fn, callees in summaries.applied.items()
               for callee in callees if scc_of[callee] != scc_of[fn]}
    for entry in unit.functions:
        summary = summaries.solved[entry, ()]
        for key, errors in summary.errors[_ABSENT].items():
            for (message, location), error in errors.items():
                emit(key, message, location, _steps(error.steps)
                     + (TraceStep(location, message),))
        if scc_of[entry] in entered:
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

class _Error(NamedTuple):
    """A transition error; `steps` is its witness up to the error."""
    template: str
    texts: dict[str, str]
    steps: tuple | _Then


_Found = tuple[str, SourceLocation]              # message and location


class _Summary(NamedTuple):
    """What a call to one function does to the automaton's instances.

    For each entry state of an instance, `_ABSENT` when it does not exist
    yet, `exits` holds the instances at the function's exit and `errors`
    the transition errors fired on the way, by instance key and then by
    message and location, with witnesses that start at the function's
    entry. The entry state `_ABSENT` is solved from no instances at all,
    every other state with each key in `keys` (the keys the function
    touches) in that state. It holds only texts, states, witnesses and
    error templates, no syntax tree.
    """
    returns: bool
    keys: tuple[_Key, ...]
    exits: dict[str, _InstMap]
    errors: dict[str, dict[_Key, dict[_Found, _Error]]]


# where a recursive component's iteration starts: no call returns yet
_BOTTOM = _Summary(False, (), {}, {})


class _Summaries:
    """The summaries of one automaton's functions over one unit, solved
    by `traverse.solve_summaries` and joined with `_union`.

    A summary is in the terms of its function, and its keys are texts. To
    rewrite a text into a caller's terms, `trees` holds the first tree
    seen with each text, from the unit's events or mapped across a call;
    distinct expressions have distinct texts, so the text picks the tree,
    and a `callee::text` has none. A call that passes one object under
    two names, so that two of the callee's keys become one key of the
    caller, gets a variant summary of the callee with those texts merged.
    The variant is the merge: sorted (text, representative) pairs, the
    representative the first text of its class in the callee's keys. The
    solver solves such variants on demand.
    """

    def __init__(self, automaton: AutomatonDef, unit: TranslationUnit,
                 graph: SuperGraph):
        self.automaton = automaton
        self.unit = unit
        self.graph = graph
        self.trees: dict[str, AstNode] = {}
        # each CFG node's (pattern name, subnode text, bound texts)
        self.events = {owner: [(pattern.name, statement_text(subnode),
                                {var: self.text_of(expr)
                                 for var, expr in bindings.items()})
                               for pattern, subnode, bindings in hits]
                       for owner, hits in matches(automaton.patterns, unit,
                                                  match_node).items()
                       if owner is not None}
        self.called = {callee_name(call) for calls in graph.calls.values()
                       for call in calls}
        # each function's callees its walks apply, self-calls included.
        # No attempt resets it: an earlier round of a recursive component,
        # or an attempt cut short by an unsolved callee, applies a subset
        # of what the final round applies, since its walk reaches no more.
        self.applied: dict[str, dict] = {fn: {} for fn in graph.cfgs}
        self.caller_texts: dict[tuple[AstNode, str], str] = {}
        self.solved = solve_summaries(graph, self.summarize, _union, _BOTTOM)

    def text_of(self, expr: AstNode) -> str:
        """The text of `expr`, which becomes its tree if it has none."""
        text = statement_text(expr)
        self.trees.setdefault(text, expr)
        return text

    def caller_text(self, call: AstNode, text: str, recursive: bool) -> str:
        """A callee's binding text in the caller's terms, once per call
        edge. A text that depends on a callee local keeps the callee's
        terms as `callee::text`, which every later call passes as it is;
        so does one that would grow across a recursive call, so that a
        component has finitely many keys and its iteration ends."""
        found = self.caller_texts.get((call, text))
        if found is None:
            found = text  # without a tree, a `callee::text`
            expr = self.trees.get(text)
            if expr is not None:
                mapped = map_expression_to_caller(expr, call, self.unit)
                if mapped is None or (recursive
                                      and _size(mapped) > _size(expr)):
                    found = f"{callee_name(call)}::{text}"
                else:
                    found = self.text_of(mapped)
            self.caller_texts[call, text] = found
        return found

    def at_call(self, fn: str, call: AstNode, merge: dict[str, str],
                summary_of) -> _Summary:
        """The summary of the function `call` calls, in the terms of `fn`
        with `merge` applied."""
        callee = callee_name(call)
        self.applied[fn][callee] = None
        recursive = self.graph.scc_of[callee] == self.graph.scc_of[fn]

        def outer(text: str) -> str:
            mapped = self.caller_text(call, text, recursive)
            return merge.get(mapped, mapped)

        # callee texts that become one text here are one instance, which
        # the first of them names
        first: dict[str, str] = {}
        classes = {text: first.setdefault(outer(text), text)
                   for key in summary_of(callee).keys for text in key}
        variant = tuple(sorted(pair for pair in classes.items()
                               if pair[0] != pair[1]))
        return _renamed(summary_of(callee, variant), outer)

    def summarize(self, fn: str, variant: tuple, summary_of) -> _Summary:
        automaton, graph = self.automaton, self.graph
        merge = dict(variant)
        cfg = graph.cfgs[fn]
        keys: dict[_Key, None] = {}
        own: dict[int, list] = {}
        applied: dict[int, list[_Summary]] = {}

        def own_events(node_id: int) -> list:
            found = own.get(node_id)
            if found is None:
                found = own[node_id] = []
                for name, step, binds in self.events.get(node_id, ()):
                    texts = {var: merge.get(text, text)
                             for var, text in binds.items()}
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
                    if not summary.returns:
                        break
            return found

        def run(initial: _InstMap):
            errors: dict[_Key, dict[_Found, _Error]] = {}

            def record(key: _Key, found: _Found, error: _Error) -> None:
                errors.setdefault(key, {}).setdefault(found, error)

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
                        exits=exits, errors=all_errors)


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
                record(key, (render_message(template, texts), location),
                       _Error(template, texts, witness))
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
            errors = summary.errors.get(state, {}).get(key, {})
            for found, error in errors.items():
                record(key, found,
                       error._replace(steps=_then(witness, error.steps)))
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


def _renamed(summary: _Summary, outer) -> _Summary:
    """`summary` with each binding text `t` written as `outer(t)`."""
    new_text = {text: outer(text) for key in summary.keys for text in key}
    if all(new == text for text, new in new_text.items()):
        return summary

    def key_of(key: _Key) -> _Key:
        return tuple(sorted(new_text[text] for text in key))

    def texts_of(texts: dict[str, str]) -> dict[str, str]:
        return {var: new_text[text] for var, text in texts.items()}

    def errors_of(errors: dict[_Found, _Error]) -> dict[_Found, _Error]:
        renamed: dict[_Found, _Error] = {}
        for (_, location), error in errors.items():
            error = error._replace(texts=texts_of(error.texts))
            renamed.setdefault(
                (render_message(error.template, error.texts), location), error)
        return renamed

    return _Summary(
        returns=summary.returns,
        keys=tuple(dict.fromkeys(key_of(key) for key in summary.keys)),
        exits={state: {key_of(key): _Instance(texts_of(inst.texts), inst.states)
                       for key, inst in instances.items()}
               for state, instances in summary.exits.items()},
        errors={state: {key_of(key): errors_of(errors)
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
            merged[key] = inst if mine is None else _joined(mine, inst.states)
    errors = {state: {key: dict(mine) for key, mine in by_key.items()}
              for state, by_key in old.errors.items()}
    for state, by_key in new.errors.items():
        table = errors.setdefault(state, {})
        for key, theirs in by_key.items():
            mine = table.setdefault(key, {})
            for found, error in theirs.items():
                mine.setdefault(found, error)
    return _Summary(
        returns=old.returns or new.returns,
        keys=tuple(dict.fromkeys(old.keys + new.keys)),
        exits=exits,
        errors=errors,
    )
