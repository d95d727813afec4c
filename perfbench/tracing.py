"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions at each module boundary
of cbugscan with timing wrappers, under the names their callers look them
up by (the checkers call `match_node` and `build_supergraph` through
their own module attributes, `cbugscan.ir.units` calls `parse`,
`build_cfg` and `build_call_graph` through its own, and so on). Every wrapped call records a span (name, parent span, start, end)
in memory; a layer's self time is its span's duration minus the time
covered by its child spans, so the self times of all spans under a job
add up to the job's duration. Pattern matching is only counted, not
timed: it runs inside the checkers' fixpoints millions of times and its
time stays in the checkers' self time.
"""

from __future__ import annotations

import collections
import time

from cbugscan import engine
from cbugscan import report
from cbugscan.checkers import automaton, lockstat, threads
from cbugscan.checkers.automaton import AutomatonChecker
from cbugscan.checkers.lockstat import LockstatChecker
from cbugscan.checkers.reach import ReachChecker
from cbugscan.checkers.threads import ThreadChecker
from cbugscan.frontend import parser
from cbugscan.frontend.ast_nodes import AstNode
from cbugscan.ir import units

JOB_SPAN = "engine.run_job"
EXPORT_SPAN = "report.export_json"

# span name -> the per-layer metric that reports its self time
SELF_TIME_METRICS = {
    JOB_SPAN: "engine.self_s",
    "frontend.preprocess.read": "frontend.preprocess.read_s",
    "frontend.lexer.lex": "frontend.lexer.lex_s",
    "frontend.parser.parse": "frontend.parser.parse_s",
    "ir.cfg.build": "ir.cfg.build_s",
    "ir.callgraph.build": "ir.callgraph.build_s",
    "ir.units.load": "ir.units.build_s",
    "traverse.supergraph": "traverse.supergraph_s",
    "checkers.automaton.check": "checkers.automaton.check_s",
    "checkers.lockstat.check": "checkers.lockstat.check_s",
    "checkers.thread.check": "checkers.thread.check_s",
    "checkers.reach.check": "checkers.reach.check_s",
    "report.normalize": "report.normalize_s",
    EXPORT_SPAN: "report.export_json_s",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "children")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent       # index of the parent span, -1 for roots
        self.start = start
        self.end = start
        self.children = 0.0        # time covered by direct child spans

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.children


class Tracer:
    """Spans and counters of one traced round; `reset()` between rounds."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.supergraph_nodes_max = 0
        self.ast_roots: list[AstNode] = []
        self.managers: list[units.UnitManager] = []

    # -- wrapping ------------------------------------------------------------

    def _timed(self, fn, name: str, observe=None):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent, clock())
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    self.spans[parent].children += span.end - span.start
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counted_match(self, fn):
        def match_node(pattern, node):
            bindings = fn(pattern, node)
            counts = self.counts
            counts["patterns.match_calls"] += 1
            if bindings is not None:
                counts["patterns.match_hits"] += 1
            return bindings

        return match_node

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def install(self) -> None:
        def tokens(result):
            self._count("frontend.lexer.tokens", len(result))

        def supergraph(graph):
            nodes = len(graph.succs)
            self._count("traverse.supergraph_builds")
            self._count("traverse.supergraph_nodes", nodes)
            self.supergraph_nodes_max = max(self.supergraph_nodes_max, nodes)

        def findings(checker_name):
            def observe(result):
                self._count(f"checkers.{checker_name}.findings", len(result))
            return observe

        original_manager = engine.UnitManager

        def unit_manager(*args, **kwargs):
            manager = original_manager(*args, **kwargs)
            self.managers.append(manager)
            return manager

        timed = self._timed
        self._patch(engine, "run_job", timed(engine.run_job, JOB_SPAN))
        self._patch(engine, "UnitManager", unit_manager)
        self._patch(engine, "load_unit",
                    timed(engine.load_unit, "ir.units.load"))
        self._patch(engine, "normalize", timed(
            engine.normalize, "report.normalize",
            lambda result: self._count("report.findings", len(result))))
        self._patch(report, "export_json",
                    timed(report.export_json, EXPORT_SPAN))
        self._patch(units, "preprocess_source", timed(
            units.preprocess_source, "frontend.preprocess.read"))
        self._patch(units, "parse", timed(
            units.parse, "frontend.parser.parse",
            lambda root: self.ast_roots.append(root)))
        self._patch(parser, "tokenize",
                    timed(parser.tokenize, "frontend.lexer.lex", tokens))
        self._patch(units, "build_cfg", timed(
            units.build_cfg, "ir.cfg.build",
            lambda cfg: self._count("ir.cfg.nodes", len(cfg.nodes))))
        self._patch(units, "build_call_graph", timed(
            units.build_call_graph, "ir.callgraph.build",
            lambda graph: self._count("ir.callgraph.edges",
                                      len(graph.edges))))
        for module in (automaton, threads):
            self._patch(module, "build_supergraph", timed(
                module.build_supergraph, "traverse.supergraph", supergraph))
        for module in (automaton, lockstat, threads):
            self._patch(module, "match_node",
                        self._counted_match(module.match_node))
        for cls in (AutomatonChecker, LockstatChecker, ThreadChecker,
                    ReachChecker):
            self._patch(cls, "check_unit", timed(
                cls.check_unit, f"checkers.{cls.name}.check",
                findings(cls.name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def job_time(self) -> float:
        """Summed duration of the round's `run_job` calls."""
        return sum(s.end - s.start for s in self.spans
                   if s.name == JOB_SPAN and s.parent < 0)

    def self_times(self) -> dict[str, float]:
        totals = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for span in self.spans:
            totals[SELF_TIME_METRICS[span.name]] += span.self_time
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of the round, self times and counts."""
        metrics: dict[str, float] = dict(self.self_times())
        counts = self.counts
        metrics.update({key: counts[key] for key in (
            "frontend.lexer.tokens", "ir.cfg.nodes", "ir.callgraph.edges",
            "traverse.supergraph_builds", "traverse.supergraph_nodes",
            "patterns.match_calls", "patterns.match_hits",
            "report.findings",
            "checkers.automaton.findings", "checkers.lockstat.findings",
            "checkers.thread.findings", "checkers.reach.findings")})
        metrics["traverse.supergraph_nodes_max"] = self.supergraph_nodes_max
        metrics["frontend.lexer.tokens_per_s"] = _ratio(
            counts["frontend.lexer.tokens"], metrics["frontend.lexer.lex_s"])
        metrics["patterns.match_hit_ratio"] = _ratio(
            counts["patterns.match_hits"], counts["patterns.match_calls"])
        metrics["frontend.parser.ast_nodes"] = sum(
            _tree_size(root) for root in self.ast_roots)
        metrics["ir.units.loads"] = sum(m.total_loads for m in self.managers)
        metrics["ir.units.max_resident"] = max(
            (m.max_resident for m in self.managers), default=0)
        metrics["trace.job_s"] = self.job_time()
        return metrics

    def span_records(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "parent": s.parent,
                 "start": s.start - origin, "end": s.end - origin}
                for s in self.spans]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tree_size(root: AstNode) -> int:
    size, stack = 0, [root]
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(node.children)
    return size
