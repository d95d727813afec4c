"""Statistical lock-usage checker.

Counts, per variable, how often each lock is held when the variable is
accessed. When a variable is protected by some lock in at least a
threshold share of its accesses but not in all of them, the minority
unlocked sites are likely bugs and get reported. A variable or a lock is
the text of its access path (`ast_nodes.Path`), so `(*p).f` and `p->f`
are one variable.

Held-lock sets are must-hold information: a forward fixpoint per CFG
intersecting at joins, so "unlocked" means no path reaches the access
with the lock held. The analysis is local to one function's CFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from cbugscan.checkers.base import (
    ACCESS,
    LOCK,
    Checker,
    LockEvent,
    LockLines,
    Services,
    config_number,
    forward_fixpoint,
    read_config,
    read_directives,
)
from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import AstNode, SourceLocation, to_path
from cbugscan.ir.cfg import Cfg
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import (
    Bindings,
    Pattern,
    compile_pattern,
    first_binding,
    match_node,
    pattern_kinds,
)
from cbugscan.report import ErrorTrace, Importance, TraceStep


@dataclass
class LockstatConfig(LockLines):
    """lockstat's config: lock lines, access patterns, the threshold."""
    accesses: list[Pattern] = field(default_factory=list)
    threshold: Fraction = Fraction(7, 10)
    min_samples: int = 5


def parse_lockstat_config(text: str, source: str = "<lockstat>") -> LockstatConfig:
    config = LockstatConfig()
    given: set[str] = set()  # each directive that holds one value, read

    def take(words: list[str]) -> bool:
        if config.read_lock_line(words):
            return True
        if len(words) != 2:
            return False
        directive, value = words
        if directive == "access":
            config.accesses.append(compile_pattern(value))
            return True
        if directive in given:
            raise ValueError(f"duplicate {directive}")
        if directive == "threshold":
            config.threshold = config_number(value, "threshold", Fraction,
                                             lambda v: 0 < v <= 1, "in (0, 1]")
        elif directive == "min-samples":
            config.min_samples = config_number(value, "min-samples")
        else:
            return False
        given.add(directive)
        return True

    read_directives(text, source, take)
    if not config.accesses:
        raise ConfigError(f"{source}: no access patterns configured")
    return config


def should_report(locked: int, total: int, threshold: Fraction,
                  min_samples: int) -> bool:
    """The report decision, exact rational arithmetic (no float rounding)."""
    if total < min_samples or locked >= total:
        return False
    return Fraction(locked, total) >= threshold


def text_key(pattern: Pattern, bindings: Bindings, node: AstNode) -> str:
    """A match's lock key or accessed variable: the access path
    (`to_path`) its pattern's first metavariable binds, or the matched
    node's when it has none, as text."""
    return to_path(first_binding(pattern, bindings, node)).text()


@dataclass
class _Access:
    """A variable access and the locks held there."""
    variable: str
    location: SourceLocation
    held: frozenset[str]


class LockstatChecker(Checker):
    name = "lockstat"

    def __init__(self, config_path: str | None):
        self.config = parse_lockstat_config(
            read_config(config_path, self.name), config_path)
        self.kinds = pattern_kinds([*self.config.locks, *self.config.unlocks,
                                    *self.config.accesses])

    def check_unit(self, unit: TranslationUnit,
                   services: Services) -> list[ErrorTrace]:
        # Statistics aggregate over the whole unit; the held-set
        # computation itself is per function.
        accesses: list[_Access] = []
        events = self.config.node_events(unit, match_node, text_key,
                                         self.config.accesses)
        for name in unit.functions:
            accesses.extend(self._collect_accesses(unit.cfgs[name], events))
        return self._report(accesses)

    # -- per-function analysis -------------------------------------------

    @staticmethod
    def _apply(events: list[LockEvent], in_set: frozenset[str],
               record=None) -> frozenset[str]:
        """The held set after a node's events, starting from `in_set`;
        each access is passed to `record` with the set held at it. A node
        without events passes `in_set` on as it is."""
        if not events:
            return in_set
        held = set(in_set)
        for kind, text, location in events:
            if kind is ACCESS:
                if record is not None:
                    record(_Access(text, location, frozenset(held)))
            elif kind is LOCK:
                held.add(text)
            else:
                held.discard(text)
        return frozenset(held)

    def _collect_accesses(self, cfg: Cfg, events: dict[int, list[LockEvent]],
                          ) -> list[_Access]:
        # Must-hold fixpoint. Unvisited nodes are implicitly TOP: the
        # first set to arrive is taken as it is, later ones narrow it by
        # intersection, which converges to the same fixpoint as
        # initializing every non-entry node to the full lock universe.
        in_sets = forward_fixpoint(
            cfg.entry, frozenset(), cfg.succs.get,
            lambda node_id, held: self._apply(events.get(node_id, ()), held),
            lambda old, new: None if old <= new else old & new)

        accesses: list[_Access] = []
        for node_id in sorted(in_sets):
            self._apply(events.get(node_id, ()), in_sets[node_id],
                        accesses.append)
        return accesses

    def _report(self, accesses: list[_Access]) -> list[ErrorTrace]:
        by_variable: dict[str, list[_Access]] = {}
        for access in accesses:
            by_variable.setdefault(access.variable, []).append(access)

        traces = []
        for variable in sorted(by_variable):
            sites = by_variable[variable]
            total = len(sites)
            locks = sorted({key for site in sites for key in site.held})
            for lock in locks:
                locked = sum(1 for site in sites if lock in site.held)
                if not should_report(locked, total, self.config.threshold,
                                     self.config.min_samples):
                    continue
                message = (f"variable {variable} accessed without lock {lock} "
                           f"held; {lock} held at {locked} of {total} accesses")
                for site in sites:
                    if lock in site.held:
                        continue
                    traces.append(ErrorTrace(
                        checker="lockstat",
                        importance=Importance.ERROR,
                        message=message,
                        steps=(TraceStep(
                            site.location,
                            f"access to {variable} without {lock}"),),
                    ))
        return traces
