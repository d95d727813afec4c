"""Checker plugin interface and registry.

A checker examines one translation unit at a time and returns error
traces. Checkers hold no cross-unit mutable state, which is what lets
the engine stream units through a bounded cache without changing any
checker's output. What they share is kept on the unit: `matches`
matches each pattern once per unit, whichever checker asks, and keeps
its hits there by the pattern's shape. `read_directives` reads every
config, given a checker's `take(words)`, and locates its errors; the
lock checkers read their lock lines with `LockLines`, whose
`node_events` gives each CFG node's (kind, key, location) events, given
a checker's lock key.
"""

from __future__ import annotations

import os
import shlex
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Hashable, Iterable, TypeVar

from cbugscan.config import read_text
from cbugscan.errors import ConfigError, PatternError
from cbugscan.frontend.ast_nodes import AstNode, SourceLocation
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import Bindings, Pattern, compile_pattern, pattern_hits
from cbugscan.report import ErrorTrace

Key = TypeVar("Key", bound=Hashable)
Fact = TypeVar("Fact")

ACCESS, LOCK, UNLOCK = "access", "lock", "unlock"
# (ACCESS, LOCK or UNLOCK, lock key or accessed text, location)
LockEvent = tuple[str, str, SourceLocation]


@dataclass(eq=False)
class Services:
    """What the engine offers a running checker."""
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
    return read_text(path)


def read_directives(text: str, source: str,
                    take: Callable[[list[str]], bool]) -> None:
    """Pass each config line's shell-style words, if any, to `take`; `#`
    starts a comment. A line `take` refuses is `SOURCE:LINE: cannot parse
    'LINE'`; a PatternError or ValueError it raises is `SOURCE:LINE:
    message`, and a ConfigError it raises is passed on as it is."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            words = shlex.split(raw, comments=True)
            if words and not take(words):
                raise ValueError(f"cannot parse {raw.strip()!r}")
        except (PatternError, ValueError) as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from exc


def config_number(text: str, name: str, convert: Callable = int,
                  valid: Callable = lambda value: value >= 1,
                  rule: str = "at least 1"):
    """`convert(text)`, the value of directive `name`; a ValueError, `bad
    NAME` if that fails and `NAME must be RULE` if it is not `valid`."""
    try:
        value = convert(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad {name}") from None
    if not valid(value):
        raise ValueError(f"{name} must be {rule}")
    return value


@dataclass
class LockLines:
    """The patterns of a config's lock lines, which lockstat and thread
    share: `lock P unlock Q`, `lock P` and `unlock Q`. On a pair line
    where Q has no metavariables, nothing is bound to name the lock by,
    so Q releases every lock that P took in the unit."""
    locks: list[Pattern] = field(default_factory=list)
    unlocks: list[Pattern] = field(default_factory=list)
    releases: dict[Pattern, Pattern] = field(default_factory=dict)

    def read_lock_line(self, words: list[str]) -> bool:
        """Take a config line's words if they are a lock line."""
        if words[0] == "lock" and len(words) == 4 and words[2] == "unlock":
            lock, unlock = compile_pattern(words[1]), compile_pattern(words[3])
            self.locks.append(lock)
            self.unlocks.append(unlock)
            if not unlock.metavar_names():
                self.releases[unlock] = lock
        elif words[0] == "lock" and len(words) == 2:
            self.locks.append(compile_pattern(words[1]))
        elif words[0] == "unlock" and len(words) == 2:
            self.unlocks.append(compile_pattern(words[1]))
        else:
            return False
        return True

    def node_events(
            self, unit: TranslationUnit,
            match: Callable[[Pattern, AstNode], Bindings | None],
            key: Callable[[Pattern, Bindings, AstNode], str],
            accesses: Iterable[Pattern] = (),
    ) -> dict[int, list[LockEvent]]:
        """Each CFG node's events by node id, in `matches` order over the
        `accesses`, then the locks, then the unlocks: one (ACCESS, LOCK or
        UNLOCK, key, subnode location) per key of a match. A match's key
        is `key(pattern, bindings, subnode)`, except that an unlock
        releasing its line's lock has every key that lock took at a CFG
        node of the unit, in sorted order."""
        kinds = {**dict.fromkeys(accesses, ACCESS),
                 **dict.fromkeys(self.locks, LOCK),
                 **dict.fromkeys(self.unlocks, UNLOCK)}
        found = {owner: hits for owner, hits in
                 matches(list(kinds), unit, match).items() if owner is not None}
        taken: dict[Pattern, set[str]] = {
            lock: set() for lock in self.releases.values()}
        for hits in found.values():
            for pattern, subnode, bindings in hits:
                if pattern in taken:
                    taken[pattern].add(key(pattern, bindings, subnode))
        events: dict[int, list[LockEvent]] = {}
        for owner, hits in found.items():
            out = events[owner] = []
            for pattern, subnode, bindings in hits:
                lock = self.releases.get(pattern)
                keys = (sorted(taken[lock]) if lock is not None
                        else (key(pattern, bindings, subnode),))
                out.extend((kinds[pattern], each, subnode.location)
                           for each in keys)
        return events


def matches(patterns: list[Pattern], unit: TranslationUnit,
            match: Callable[[Pattern, AstNode], Bindings | None],
            ) -> dict[int | None, list[tuple[Pattern, AstNode, Bindings]]]:
    """Every match of `patterns` in a unit, as (pattern, subnode,
    bindings), by the id of the CFG node whose tree holds the subnode
    (None outside every CFG node): subnodes in preorder, each subnode's
    patterns in list order.

    A pattern's hits are read from the unit's match table once
    (`patterns.pattern_hits`) and kept on the unit by `Pattern.shape`,
    so a pattern is matched once per unit, however many checkers or
    configs name it; `match` is called only for shapes not yet kept.
    Checkers pass their own module's `match_node`, looked up at the call."""
    found: dict[int | None, list] = {}
    for order, pattern in enumerate(patterns):
        hits = unit.hits_by_shape.get(pattern.shape)
        if hits is None:
            hits = unit.hits_by_shape[pattern.shape] = pattern_hits(
                unit.match_table, pattern, match)
        for owner, position, subnode, bindings in hits:
            found.setdefault(owner, []).append(
                (position, order, pattern, subnode, bindings))
    return {owner: [hit[2:] for hit in sorted(hits, key=itemgetter(0, 1))]
            for owner, hits in found.items()}


def forward_fixpoint(
        start: Key, initial: Fact,
        successors: Callable[[Key], Iterable[Key]],
        transfer: Callable[[Key, Fact], Fact | None],
        join: Callable[[Fact, Fact], Fact | None],
) -> dict[Key, Fact]:
    """The in-fact of every key reachable from `start`, by one FIFO
    worklist (Kildall, POPL'73). `transfer(key, in_fact)` is the key's
    out-fact, or None when no path leaves the key (a call that never
    returns): its successors are then reached only through other keys.
    The first fact to reach a key is stored as it is; later ones go
    through `join(old, incoming)`, which returns the joined fact or None
    when `incoming` adds nothing, and only a joined fact queues the key
    again. Facts are never mutated, so keys may share one."""
    facts = {start: initial}
    work = deque([start])
    while work:
        key = work.popleft()
        out = transfer(key, facts[key])
        if out is None:
            continue
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


# the bundled configs: files in the package's `configs` directory
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")


@dataclass(frozen=True)
class CheckerDescriptor:
    """A checker's name, how to create it, and its bundled config."""
    name: str
    factory: Callable[[str | None], Checker]
    default_config: str | None = None  # a file name in CONFIGS, if any


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
            config_path = os.path.join(CONFIGS, descriptor.default_config)
        return descriptor.factory(config_path)
