"""Automaton checker: finite-state rules over matched code patterns.

A config file defines one or more automata. Each automaton names its
states, a start state, a set of code patterns with metavariables, and
transitions keyed by (state, pattern). Matching a pattern the first
time creates a tracked instance per distinct metavariable binding; the
instance then steps through states as later matches fire. Transitions
flagged as errors report a message; states flagged with error-at-exit
report when an instance can still be in that state when the function
returns.

The walk is interprocedural: each defined function is analyzed as an
entry point over its call-expanded graph, and instance keys observed
inside callees are translated into the entry function's terms where
the call arguments allow it. Exit-state errors are only evaluated for
functions nothing else in the unit calls, since for a callee the outer
context may legitimately complete the protocol.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from cbugscan.checkers.base import (
    Checker,
    Services,
    config_lines,
    forward_fixpoint,
    node_events,
    read_config,
)
from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import AstNode, SourceLocation, to_text
from cbugscan.ir.cfg import CfgNode
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import (
    Bindings,
    Pattern,
    PatternIndex,
    compile_pattern,
    match_node,
)
from cbugscan.report import ErrorTrace, Importance, TraceStep
from cbugscan.traverse import (
    Context,
    build_supergraph,
    map_expression_to_caller,
)

_METAVAR_RE = re.compile(r"%([A-Za-z_]\w*)")


@dataclass
class AutomatonDef:
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


@dataclass(frozen=True)
class _Instance:
    texts: dict[str, str]                          # first-sight bindings
    states: dict[str, tuple[TraceStep, ...]]       # state -> witness steps


_InstMap = dict[tuple[str, ...], _Instance]


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


def map_binding_text(expr: AstNode, frames: Context,
                     unit: TranslationUnit) -> str:
    """Render a bound expression in the entry function's terms.

    Walking out of nested calls, formals are replaced by the actuals of
    each frame. If a level cannot be crossed (the expression depends on
    a callee local), the key stays local to that function, prefixed
    with its name so distinct locals never collide across functions.
    """
    current = expr
    for frame in reversed(frames):
        mapped = map_expression_to_caller(current, frame, unit)
        if mapped is None:
            return f"{frame.callee}::{to_text(current)}"
        current = mapped
    return to_text(current)


class AutomatonChecker(Checker):
    name = "automaton"

    def __init__(self, config_path: str | None):
        self.automata = parse_automaton_file(
            read_config(config_path, self.name), config_path)

    def check_unit(self, unit: TranslationUnit,
                   services: Services) -> list[ErrorTrace]:
        traces: list[ErrorTrace] = []
        for automaton in self.automata:
            traces.extend(_run_automaton(automaton, unit))
        return traces


def _is_call_graph_root(unit: TranslationUnit, function: str) -> bool:
    """True when no *other* defined function calls this one."""
    return all(edge.caller == function
               for edge in unit.call_graph.by_callee.get(function, []))


def _run_automaton(automaton: AutomatonDef,
                   unit: TranslationUnit) -> list[ErrorTrace]:
    traces: list[ErrorTrace] = []
    emitted: set[tuple[tuple[str, ...], str, str]] = set()

    def emit(key: tuple[str, ...], message: str, location: SourceLocation,
             steps: tuple[TraceStep, ...]) -> None:
        dedup = (key, message, str(location))
        if dedup in emitted:
            return
        emitted.add(dedup)
        traces.append(ErrorTrace(
            checker="automaton",
            importance=Importance.ERROR,
            message=message,
            steps=steps,
        ))

    # every calling context of a CFG node shares its matches
    events = node_events(PatternIndex(automaton.patterns), match_node,
                         lambda *match: match)
    for entry in unit.functions:
        graph = build_supergraph(unit, entry)

        def transfer(super_key, in_map: _InstMap) -> _InstMap:
            node = graph.cfg_node(super_key)
            return _transfer(automaton, unit, node, super_key[0],
                             events(node), in_map, emit)

        in_maps = forward_fixpoint(
            graph.entry, {}, lambda super_key: graph.succs.get(super_key, ()),
            transfer, _merge)

        if not _is_call_graph_root(unit, entry):
            continue
        exit_map = in_maps.get(graph.exit, {})
        exit_node = graph.cfg_node(graph.exit)
        for key in sorted(exit_map):
            inst = exit_map[key]
            for state in list(inst.states):
                template = automaton.exit_errors.get(state)
                if template is None:
                    continue
                message = render_message(template, inst.texts)
                steps = inst.states[state] + (
                    TraceStep(exit_node.location, message),)
                emit(key, message, exit_node.location, steps)
    return traces


def _transfer(automaton: AutomatonDef, unit: TranslationUnit,
              node: CfgNode, frames: Context,
              events: list[tuple[Pattern, AstNode, Bindings]],
              in_map: _InstMap, emit) -> _InstMap:
    if not events:
        return in_map
    out = dict(in_map)
    for pattern, subnode, bindings in events:
        texts = {name: map_binding_text(expr, frames, unit)
                 for name, expr in bindings.items()}
        key = tuple(sorted(texts.values()))
        inst = out.get(key)
        if inst is None:
            inst = _Instance(texts, {automaton.start: ()})
        new_states: dict[str, tuple[TraceStep, ...]] = {}
        for state, witness in inst.states.items():
            if state == _ABSENT:
                # first sight on this path: created in the start state
                state, witness = automaton.start, ()
            template = automaton.errors.get((state, pattern.name))
            if template is not None:
                message = render_message(template, texts)
                steps = witness + (TraceStep(node.location, message),)
                emit(key, message, node.location, steps)
                new_states.setdefault(state, witness)
                continue
            target = automaton.transitions.get((state, pattern.name))
            if target is not None:
                step = TraceStep(node.location, to_text(subnode))
                new_states.setdefault(target, witness + (step,))
            else:
                new_states.setdefault(state, witness)
        out[key] = _Instance(inst.texts, new_states)
    return out
