"""Checker plugin interface and registry.

A checker examines one translation unit at a time and returns error
traces. Checkers hold no cross-unit mutable state, which is what lets
the engine stream units through a bounded cache without changing any
checker's output.
"""

from __future__ import annotations

import importlib.resources
import shlex
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import AstNode
from cbugscan.ir.units import TranslationUnit, UnitManager
from cbugscan.patterns import Bindings, Pattern, PatternIndex
from cbugscan.report import ErrorTrace

Event = TypeVar("Event")
Key = TypeVar("Key", bound=Hashable)
Fact = TypeVar("Fact")


@dataclass(eq=False)
class Services:
    """What the engine offers a running checker."""
    unit_manager: UnitManager
    report_diagnostic: Callable[[str], None] = lambda _message: None


class Checker(ABC):
    """Base class for analyses; subclasses set `name`."""

    name = "checker"

    @abstractmethod
    def check_unit(self, unit: TranslationUnit,
                   services: Services) -> list[ErrorTrace]:
        """Analyze one unit; return its findings."""


def read_config(path: str | None, checker_name: str) -> str:
    """The text of a checker's config file, which is required."""
    if path is None:
        raise ConfigError(f"{checker_name} checker requires a config file")
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def config_lines(text: str,
                 source: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, shell-style words) for each line of
    a config text that has words; `#` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            words = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from exc
        if words:
            yield lineno, raw.strip(), words


def node_events(
        index: PatternIndex, unit: TranslationUnit,
        match: Callable[[Pattern, AstNode], Bindings | None],
        event: Callable[[Pattern, AstNode, Bindings], Event],
) -> dict[int, list[Event]]:
    """Each CFG node's events by node id, one `event(pattern, subnode,
    bindings)` per match under the node in evaluation order (preorder,
    then index order); a node without a match has no entry.

    The matches are read from the unit's match table, every node's at
    once, reachable or not, so a fixpoint or a calling context that
    revisits a node looks its events up. Checkers pass their own
    module's `match_node`, looked up at the call.
    """
    return {owner: [event(*hit) for hit in hits]
            for owner, hits in index.matches(unit.match_table, match).items()
            if owner is not None}


def forward_fixpoint(
        start: Key, initial: Fact,
        successors: Callable[[Key], Iterable[Key]],
        transfer: Callable[[Key, Fact], Fact],
        join: Callable[[Fact, Fact], Fact | None],
) -> dict[Key, Fact]:
    """The in-fact of every key reachable from `start`, by one FIFO
    worklist (Kildall, POPL'73). `transfer(key, in_fact)` is the key's
    out-fact. The first fact to reach a key is stored as it is; later
    ones go through `join(old, incoming)`, which returns the joined fact
    or None when `incoming` adds nothing, and only a joined fact queues
    the key again. Facts are never mutated, so keys may share one."""
    facts = {start: initial}
    work = deque([start])
    while work:
        key = work.popleft()
        out = transfer(key, facts[key])
        for succ in successors(key):
            if succ not in facts:
                facts[succ] = out
            else:
                joined = join(facts[succ], out)
                if joined is None:
                    continue
                facts[succ] = joined
            work.append(succ)
    return facts


@dataclass(frozen=True)
class CheckerDescriptor:
    name: str
    factory: Callable[[str | None], Checker]
    default_config: str | None = None  # bundled resource name, if any


class CheckerRegistry:
    def __init__(self) -> None:
        self._entries: dict[str, CheckerDescriptor] = {}

    def register(self, descriptor: CheckerDescriptor) -> None:
        if descriptor.name in self._entries:
            raise ConfigError(
                f"checker {descriptor.name!r} registered twice")
        self._entries[descriptor.name] = descriptor

    def names(self) -> list[str]:
        return sorted(self._entries)

    def create(self, name: str, config_path: str | None = None) -> Checker:
        descriptor = self._entries.get(name)
        if descriptor is None:
            known = ", ".join(self.names())
            raise ConfigError(f"unknown checker {name!r} (known: {known})")
        if config_path is None and descriptor.default_config is not None:
            resource = importlib.resources.files("cbugscan.configs")
            config_path = str(resource / descriptor.default_config)
        return descriptor.factory(config_path)
