"""Statistical lock-usage checker.

Counts, per variable, how often each lock is held when the variable is
accessed. When a variable is protected by some lock in at least a
threshold share of its accesses but not in all of them, the minority
unlocked sites are likely bugs and get reported.

Held-lock sets are must-hold information: a forward fixpoint per CFG
intersecting at joins, so "unlocked" means no path reaches the access
with the lock held. The analysis is local to one function's CFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from cbugscan.checkers.base import (
    Checker,
    LockLines,
    Services,
    config_lines,
    forward_fixpoint,
    read_config,
)
from cbugscan.errors import ConfigError, PatternError
from cbugscan.frontend.ast_nodes import SourceLocation, statement_text
from cbugscan.ir.cfg import Cfg
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import (
    Pattern,
    compile_pattern,
    first_binding,
    match_node,
)
from cbugscan.report import ErrorTrace, Importance, TraceStep


@dataclass
class LockstatConfig(LockLines):
    """lockstat's config: lock lines, access patterns, the threshold."""
    accesses: list[Pattern] = field(default_factory=list)
    threshold: Fraction = Fraction(7, 10)
    min_samples: int = 5

    @cached_property
    def kinds(self) -> dict[Pattern, str]:
        """Each pattern's event kind, in config order: accesses, locks,
        unlocks."""
        return {**dict.fromkeys(self.accesses, _ACCESS),
                **dict.fromkeys(self.locks, _LOCK),
                **dict.fromkeys(self.unlocks, _UNLOCK)}


def parse_lockstat_config(text: str, source: str = "<lockstat>") -> LockstatConfig:
    config = LockstatConfig()
    try:
        for lineno, line, parts in config_lines(text, source):
            directive = parts[0]
            if config.read_lock_line(parts):
                continue
            if directive == "access" and len(parts) == 2:
                config.accesses.append(compile_pattern(parts[1]))
            elif directive == "threshold" and len(parts) == 2:
                try:
                    config.threshold = Fraction(parts[1])
                except (ValueError, ZeroDivisionError) as exc:
                    raise ConfigError(f"{source}:{lineno}: bad threshold") from exc
                if not 0 < config.threshold <= 1:
                    raise ConfigError(f"{source}:{lineno}: threshold must be in (0, 1]")
            elif directive == "min-samples" and len(parts) == 2:
                try:
                    config.min_samples = int(parts[1])
                except ValueError as exc:
                    raise ConfigError(f"{source}:{lineno}: bad min-samples") from exc
                if config.min_samples < 1:
                    raise ConfigError(
                        f"{source}:{lineno}: min-samples must be at least 1")
            else:
                raise ConfigError(f"{source}:{lineno}: cannot parse {line!r}")
    except PatternError as exc:
        raise ConfigError(f"{source}:{lineno}: {exc}") from exc
    if not config.accesses:
        raise ConfigError(f"{source}: no access patterns configured")
    return config


def should_report(locked: int, total: int, threshold: Fraction,
                  min_samples: int) -> bool:
    """The report decision, exact rational arithmetic (no float rounding)."""
    if total < min_samples or locked >= total:
        return False
    return Fraction(locked, total) >= threshold


@dataclass
class _Access:
    """A variable access and the locks held there."""
    variable: str
    location: SourceLocation
    held: frozenset[str]


_ACCESS, _LOCK, _UNLOCK = "access", "lock", "unlock"
# (_ACCESS, _LOCK or _UNLOCK, text bound by the pattern, location)
_Event = tuple[str, str, SourceLocation]


class LockstatChecker(Checker):
    name = "lockstat"

    def __init__(self, config_path: str | None):
        self.config = parse_lockstat_config(
            read_config(config_path, self.name), config_path)

    def check_unit(self, unit: TranslationUnit,
                   services: Services) -> list[ErrorTrace]:
        # Statistics aggregate over the whole unit; the held-set
        # computation itself is per function.
        accesses: list[_Access] = []
        events = self._node_events(unit)
        for name in unit.functions:
            accesses.extend(self._collect_accesses(unit.cfgs[name], events))
        return self._report(accesses)

    # -- per-function analysis -------------------------------------------

    def _node_events(self, unit: TranslationUnit) -> dict[int, list[_Event]]:
        """Each CFG node's accesses and lock/unlock events, by node id
        (see `checkers.base.LockLines.node_events`)."""
        kinds = self.config.kinds
        return self.config.node_events(
            list(kinds), unit, match_node,
            lambda pattern, bindings, subnode: statement_text(
                first_binding(pattern, bindings, subnode)),
            lambda pattern, key, subnode: (
                kinds[pattern], key, subnode.location))

    @staticmethod
    def _apply(events: list[_Event], in_set: frozenset[str],
               record=None) -> frozenset[str]:
        """The held set after a node's events, starting from `in_set`;
        each access is passed to `record` with the set held at it. A node
        without events passes `in_set` on as it is."""
        if not events:
            return in_set
        held = set(in_set)
        for kind, text, location in events:
            if kind is _ACCESS:
                if record is not None:
                    record(_Access(text, location, frozenset(held)))
            elif kind is _LOCK:
                held.add(text)
            else:
                held.discard(text)
        return frozenset(held)

    def _collect_accesses(self, cfg: Cfg, events: dict[int, list[_Event]],
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
