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

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from cbugscan.checkers.base import Checker, Services, config_lines, read_config
from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import AstNode, SourceLocation, iter_tree, to_text
from cbugscan.ir.cfg import Cfg
from cbugscan.ir.units import TranslationUnit
from cbugscan.patterns import Pattern, compile_pattern, first_binding, match_node
from cbugscan.report import ErrorTrace, Importance, TraceStep


@dataclass
class LockstatConfig:
    accesses: list[Pattern] = field(default_factory=list)
    locks: list[Pattern] = field(default_factory=list)
    unlocks: list[Pattern] = field(default_factory=list)
    threshold: Fraction = Fraction(7, 10)
    min_samples: int = 5


def parse_lockstat_config(text: str, source: str = "<lockstat>") -> LockstatConfig:
    config = LockstatConfig()
    for lineno, line, parts in config_lines(text, source):
        directive = parts[0]
        if directive == "access" and len(parts) == 2:
            config.accesses.append(compile_pattern(parts[1]))
        elif directive == "lock" and len(parts) == 4 and parts[2] == "unlock":
            config.locks.append(compile_pattern(parts[1]))
            config.unlocks.append(compile_pattern(parts[3]))
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
        else:
            raise ConfigError(f"{source}:{lineno}: cannot parse {line!r}")
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
    variable: str
    location: SourceLocation
    held: frozenset[str]


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
        for name in unit.functions:
            accesses.extend(self._collect_accesses(unit.cfgs[name]))
        return self._report(accesses)

    # -- per-function analysis -------------------------------------------

    def _walk_node(self, ast: AstNode, held: set[str],
                   record) -> None:
        """One preorder pass over a node's AST: record accesses against
        the running held set, then apply lock/unlock events in place."""
        for subnode in iter_tree(ast):
            if record is not None:
                for pattern in self.config.accesses:
                    bindings = match_node(pattern, subnode)
                    if bindings is not None:
                        record(_Access(
                            to_text(first_binding(pattern, bindings, subnode)),
                            subnode.location, frozenset(held)))
            for pattern in self.config.locks:
                bindings = match_node(pattern, subnode)
                if bindings is not None:
                    held.add(to_text(first_binding(pattern, bindings, subnode)))
            for pattern in self.config.unlocks:
                bindings = match_node(pattern, subnode)
                if bindings is not None:
                    held.discard(to_text(first_binding(pattern, bindings, subnode)))

    def _collect_accesses(self, cfg: Cfg) -> list[_Access]:
        # Must-hold fixpoint. Unvisited nodes are implicitly TOP: the
        # first propagation copies the incoming set, later ones narrow
        # it by intersection, which converges to the same fixpoint as
        # initializing every non-entry node to the full lock universe.
        in_sets: dict[int, set[str]] = {cfg.entry: set()}
        reachable: set[int] = {cfg.entry}
        work = deque([cfg.entry])
        while work:
            node_id = work.popleft()
            node = cfg.nodes[node_id]
            out = set(in_sets[node_id])
            if node.ast_ref is not None:
                self._walk_node(node.ast_ref, out, record=None)
            for edge in cfg.successors(node_id):
                succ = edge.target
                if succ not in reachable:
                    reachable.add(succ)
                    in_sets[succ] = set(out)
                    work.append(succ)
                else:
                    narrowed = in_sets[succ] & out
                    if narrowed != in_sets[succ]:
                        in_sets[succ] = narrowed
                        work.append(succ)

        accesses: list[_Access] = []
        for node_id in sorted(reachable):
            node = cfg.nodes[node_id]
            if node.ast_ref is None:
                continue
            held = set(in_sets[node_id])
            self._walk_node(node.ast_ref, held, record=accesses.append)
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
