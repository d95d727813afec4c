"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the tool, end to end, and
prints a single PASS line summarizing the verified behavior.  The tests
deliberately re-derive expectations from first principles (independent
oracles, exhaustive grids, byte comparisons) rather than trusting the
implementation's own intermediate results.
"""

import collections
import glob
import json
import os
import textwrap
import time
from fractions import Fraction

import pytest

from cbugscan.checkers import builtin_registry
from cbugscan.checkers.base import Services
from cbugscan.checkers.automaton import AutomatonChecker
from cbugscan.checkers.lockstat import LockstatChecker, should_report
from cbugscan.checkers.reach import ReachChecker
from cbugscan.cli import main
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import make_loader, run_job
from cbugscan.frontend import iter_tree, to_text
from cbugscan.ir import CfgNodeKind, UnitManager, build_unit_from_text, load_unit
from cbugscan.patterns import match_node
from cbugscan.pointsto import (
    collect_constraints,
    constraint_variables,
    shapiro_horowitz,
    steensgaard,
)
from cbugscan.report import CheckerStats, Importance, export_json, normalize

from oracles import andersen, run_automaton_on_paths
from test_automaton import LOCK_CONFIG, ORACLE_FIXTURES
from test_pointsto import SANDWICH_FIXTURES, constraints_of

TESTS_DIR = os.path.dirname(__file__)
CORPUS_DIR = os.path.join(TESTS_DIR, "corpus")
ALL_CHECKERS = [("automaton", None), ("lockstat", None),
                ("reach", None), ("thread", None)]

with open(os.path.join(CORPUS_DIR, "manifest.json")) as fh:
    MANIFEST = json.load(fh)


def corpus(name):
    return os.path.join(CORPUS_DIR, name)


def corpus_sources():
    return sorted(glob.glob(os.path.join(CORPUS_DIR, "*.c")))


def services():
    return Services(unit_manager=UnitManager(load_unit))


def run_checker(name, path):
    checker = builtin_registry().create(name, None)
    return checker.check_unit(load_unit(path), services())


def corpus_job(checkers, budget=None):
    job = AnalysisJob(
        sources=[SourceDescriptor(p) for p in corpus_sources()],
        checkers=list(checkers),
        memory_units=budget,
    )
    manager = UnitManager(make_loader(job), budget)
    result = run_job(job, unit_manager=manager)
    assert result.diagnostics == []
    return result, manager


def reaches_exit_avoiding(cfg, start, forbidden):
    """True if cfg.exit is reachable from start without visiting forbidden."""
    seen, stack = set(), [start]
    while stack:
        node = stack.pop()
        if node in seen or node == forbidden:
            continue
        seen.add(node)
        if node == cfg.exit:
            return True
        stack.extend(cfg.succs[node])
    return False


# -- 1: lock left held on an early-return path -------------------------------------

def test_criterion_01_exit_state_error():
    started = time.perf_counter()
    buggy = run_checker("automaton", corpus("a01_lock_held_at_exit.c"))
    balanced = run_checker("automaton", corpus("c01_balanced_guard.c"))
    elapsed = time.perf_counter() - started

    assert len(buggy) == 1
    trace = buggy[0]
    assert trace.message == "lock &slot->ctrl->crit_sect held at exit"
    assert trace.importance is Importance.ERROR
    first, last = trace.steps[0], trace.steps[-1]
    assert (first.location.line, first.location.column) == (12, 5)
    assert first.description == "mutex_lock(&slot->ctrl->crit_sect)"
    assert last.location.line == 19  # the function exit

    # The witness path runs through the guard's true branch: from the
    # true edge the exit is reachable without ever passing the unlock,
    # while the false edge cannot avoid it.
    unit = load_unit(corpus("a01_lock_held_at_exit.c"))
    cfg = unit.cfgs["set_lock_status"]
    unlock_node, = [n.id for n in cfg.nodes.values()
                    if n.ast_ref is not None
                    and any(sub.kind.value == "Identifier"
                            and sub.text == "mutex_unlock"
                            for sub in iter_tree(n.ast_ref))]
    guard, = [n for n in cfg.nodes.values()
              if n.location.line == 13 and n.kind is CfgNodeKind.CONDITION]
    on_true, on_false = cfg.succs[guard.id]
    assert reaches_exit_avoiding(cfg, on_true, unlock_node)
    assert not reaches_exit_avoiding(cfg, on_false, unlock_node)

    assert balanced == []
    assert elapsed < 1.0
    print("[criterion 01] PASS - early-return fixture: one lock-held-at-exit "
          "error through the true branch; balanced fixture clean; "
          f"{elapsed:.3f}s")


# -- 2: three-lock circular dependency ----------------------------------------------

def test_criterion_02_three_lock_cycle():
    started = time.perf_counter()
    traces = run_checker("thread", corpus("t01_three_lock_cycle.c"))
    elapsed = time.perf_counter() - started

    assert len(traces) == 1
    trace = traces[0]
    assert trace.message == (
        "circular lock dependency: ecryptfs_daemon_hash_mux <- "
        "ecryptfs_msg_ctx_lists_mux <- msg_ctx->mux <- "
        "ecryptfs_daemon_hash_mux")
    assert trace.importance is Importance.ERROR
    # Edge directions, one acquired/acquired-while pair per edge.
    assert [s.description for s in trace.steps] == [
        "ecryptfs_daemon_hash_mux acquired (ecryptfs_send_message)",
        "ecryptfs_msg_ctx_lists_mux acquired while "
        "ecryptfs_daemon_hash_mux held (ecryptfs_send_message)",
        "ecryptfs_msg_ctx_lists_mux acquired (ecryptfs_wait_for_response)",
        "msg_ctx->mux acquired while ecryptfs_msg_ctx_lists_mux held "
        "(ecryptfs_wait_for_response)",
        "msg_ctx->mux acquired (ecryptfs_process_response)",
        "ecryptfs_daemon_hash_mux acquired while msg_ctx->mux held "
        "(ecryptfs_process_response)",
    ]
    assert elapsed < 1.0
    print("[criterion 02] PASS - messaging fixture: one circular lock "
          f"dependency over three locks with correct edges; {elapsed:.3f}s")


# -- 3: stray semicolon plus unreachable code ---------------------------------------

def test_criterion_03_semicolon_and_unreachable(tmp_path, capsys):
    traces = run_checker("reach", corpus("r02_semicolon_guard.c"))
    by_message = collections.Counter(
        (t.message, t.importance.value) for t in traces)
    assert by_message == {("superfluous semicolon", "warning"): 1,
                          ("unreachable code", "error"): 1}

    out_path = tmp_path / "filtered.json"
    code = main(["check", corpus("r02_semicolon_guard.c"),
                 "--checker", "reach", "--min-importance", "error",
                 "--format", "json", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 1
    filtered = json.loads(out_path.read_text())
    assert [f["message"] for f in filtered] == ["unreachable code"]
    print("[criterion 03] PASS - guard-semicolon fixture: one warning plus "
          "one error; --min-importance error keeps only the error")


# -- 4: lockstat report threshold ----------------------------------------------------

def test_criterion_04_lockstat_threshold():
    threshold, min_samples = Fraction(7, 10), 5
    grid = [(locked, total)
            for total in range(0, 13) for locked in range(0, total + 1)]
    assert len(grid) == 91  # exhaustive over total <= 12
    for locked, total in grid:
        expected = (total >= min_samples and locked < total
                    and locked * 10 >= total * 7)
        assert should_report(locked, total, threshold, min_samples) \
            == expected, (locked, total)

    traces = run_checker("lockstat", corpus("l01_nine_of_ten.c"))
    assert len(traces) == 1
    assert traces[0].message == ("variable p->used accessed without lock "
                                 "&pool_mux held; &pool_mux held at 9 of "
                                 "10 accesses")
    print("[criterion 04] PASS - 91-cell threshold grid matches the "
          "rational-arithmetic rule; 9-of-10 fixture yields one report")


# -- 5: points-to precision sandwich -------------------------------------------------

def test_criterion_05_points_to_sandwich():
    assert len(SANDWICH_FIXTURES) >= 10
    for body in SANDWICH_FIXTURES:
        cs = constraints_of(body)
        n = len(constraint_variables(cs))
        assert n <= 8, body
        oracle = andersen(cs)
        coarse = steensgaard(cs)
        for k in (1, 2, 4, n):
            mid = shapiro_horowitz(cs, k)
            for var in oracle:
                assert oracle[var] <= mid[var] <= coarse[var], (body, k, var)
        assert shapiro_horowitz(cs, 1) == coarse, body
        assert shapiro_horowitz(cs, n) == oracle, body
    print(f"[criterion 05] PASS - {len(SANDWICH_FIXTURES)} fixtures: "
          "oracle <= per-k sets <= unification result; k=1 and k=N hit "
          "the endpoints exactly")


# -- 6: memory budget never changes results ------------------------------------------

def test_criterion_06_streaming_invisible():
    tight, tight_manager = corpus_job(ALL_CHECKERS, budget=1)
    roomy, roomy_manager = corpus_job(ALL_CHECKERS, budget=None)
    assert tight_manager.max_resident <= 1
    assert roomy_manager.max_resident == len(corpus_sources())
    assert export_json(tight.traces) == export_json(roomy.traces)
    print("[criterion 06] PASS - budget-1 and unlimited corpus runs emit "
          "byte-identical JSON; budget-1 kept at most one unit resident")


# -- 7: fixpoint equals the all-paths oracle -----------------------------------------

@pytest.mark.parametrize("source", ORACLE_FIXTURES)
def test_criterion_07_fixpoint_vs_paths(source, tmp_path):
    config = tmp_path / "auto.conf"
    config.write_text(LOCK_CONFIG)
    checker = AutomatonChecker(str(config))
    automaton, = checker.automata
    unit = build_unit_from_text(textwrap.dedent(source), "t.c")
    cfg = unit.cfgs["f"]
    assert len(cfg.nodes) <= 12

    def node_events(node):
        events = []
        for subnode in iter_tree(node.ast_ref):
            for pattern in automaton.patterns:
                bindings = match_node(pattern, subnode)
                if bindings is not None:
                    texts = {n: to_text(e) for n, e in bindings.items()}
                    events.append((pattern.name,
                                   tuple(sorted(texts.values())), texts))
        return events

    expected = run_automaton_on_paths(automaton, cfg, node_events)
    traces = checker.check_unit(unit, services())
    actual = {(str(t.steps[-1].location), t.message) for t in traces}
    assert actual == expected
    print("[criterion 07] PASS - fixpoint (location, message) set equals "
          f"the all-paths enumeration on a {len(cfg.nodes)}-node graph")


# -- 8: triage ratio arithmetic -------------------------------------------------------

@pytest.mark.parametrize("found,real,false_positive,ratio", [
    (266, 65, 143, "31.3%"),
    (86, 48, 37, "56.5%"),
    (35, 16, 18, "47.1%"),
    (13, 6, 7, "46.2%"),
    (20, 9, 11, "45.0%"),
    (31, 31, 0, "100.0%"),
])
def test_criterion_08_ratio_rows(found, real, false_positive, ratio):
    stats = CheckerStats(found=found, real=real,
                         false_positive=false_positive,
                         unclassified=found - real - false_positive)
    assert stats.ratio() == ratio
    print(f"[criterion 08] PASS - {real}/{real + false_positive} "
          f"classified renders as {ratio}")


# -- 9: checker isolation and determinism --------------------------------------------

def test_criterion_09_isolation_and_determinism():
    combined, _ = corpus_job(ALL_CHECKERS)
    union = []
    for spec in ALL_CHECKERS:
        single, _ = corpus_job([spec])
        union.extend(single.traces)
    assert export_json(combined.traces) == export_json(normalize(union))

    rerun, _ = corpus_job(ALL_CHECKERS)
    assert export_json(combined.traces) == export_json(rerun.traces)
    print("[criterion 09] PASS - four-checker corpus report equals the "
          "union of single-checker runs; rerun is byte-identical")


# -- 10: every planted bug is found ---------------------------------------------------

def test_criterion_10_no_false_negatives():
    planted = {name: groups for name, groups in MANIFEST.items() if groups}
    assert len(planted) >= 20

    missed = []
    for name, groups in sorted(planted.items()):
        actual = collections.Counter()
        for spec in ALL_CHECKERS:
            for trace in run_checker(spec[0], corpus(name)):
                actual[(trace.checker, trace.importance.value,
                        trace.message)] += 1
        for group in groups:
            key = (group["checker"], group["importance"], group["message"])
            if actual[key] < group["count"]:
                missed.append((name, key))
    assert missed == []
    print(f"[criterion 10] PASS - all {len(planted)} planted bugs "
          "reported; zero false negatives across the corpus")
