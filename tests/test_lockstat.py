import textwrap
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbugscan.checkers.base import Services
from cbugscan.checkers.lockstat import (
    LockstatChecker,
    parse_lockstat_config,
    should_report,
    text_key,
)
from cbugscan.errors import ConfigError
from cbugscan.frontend import iter_tree, to_text
from cbugscan.ir import build_unit_from_text
from cbugscan.patterns import compile_pattern, match_node
from cbugscan.report import Importance

from oracles import must_held_by_paths

BASIC_CONFIG = """
access "use(%V)"
lock "lock(%L)" unlock "unlock(%L)"
"""


def run(source, tmp_path, config_text=BASIC_CONFIG):
    config = tmp_path / "lockstat.conf"
    config.write_text(config_text)
    checker = LockstatChecker(str(config))
    unit = build_unit_from_text(textwrap.dedent(source), "t.c")
    services = Services()
    return checker.check_unit(unit, services)


# -- config parsing ---------------------------------------------------------------

def test_parse_full_config():
    config = parse_lockstat_config(
        'access "use(%V)"\n'
        '# a comment line\n'
        'lock "lock(%L)" unlock "unlock(%L)"\n'
        'threshold 4/5\n'
        'min-samples 3\n'
    )
    assert len(config.accesses) == 1
    assert len(config.locks) == 1
    assert len(config.unlocks) == 1
    assert config.threshold == Fraction(4, 5)
    assert config.min_samples == 3


def test_defaults():
    config = parse_lockstat_config('access "use(%V)"')
    assert config.threshold == Fraction(7, 10)
    assert config.min_samples == 5
    assert config.locks == [] and config.unlocks == []


@pytest.mark.parametrize("text", [
    "",
    'lock "l(%X)" unlock "u(%X)"',
    'access "use(%V)"\nthreshold 0',
    'access "use(%V)"\nthreshold 2',
    'access "use(%V)"\nthreshold abc',
    'access "use(%V)"\nthreshold 7/0',
    'access "use(%V)"\nmin-samples many',
    'access "use(%V)"\nmin-samples -4',
    'access "use(%V)"\nmin-samples 0',
    'access "use(%V)"\nlock "l(%X)" "u(%X)"',
    'access "use(%V)"\nfrobnicate 1',
    'access "use(%V)"\naccess "oops',
])
def test_bad_configs(text):
    with pytest.raises(ConfigError):
        parse_lockstat_config(text)


def test_checker_requires_config_file(tmp_path):
    with pytest.raises(ConfigError):
        LockstatChecker(None)
    with pytest.raises(ConfigError):
        LockstatChecker(str(tmp_path / "missing.conf"))


# -- the report decision ----------------------------------------------------------

# Every (locked, total) pair that reports under the default 7/10 threshold
# and 5-sample minimum, for totals up to 12.
REPORTING_PAIRS = {
    (4, 5),
    (5, 6),
    (5, 7), (6, 7),
    (6, 8), (7, 8),
    (7, 9), (8, 9),
    (7, 10), (8, 10), (9, 10),
    (8, 11), (9, 11), (10, 11),
    (9, 12), (10, 12), (11, 12),
}


def test_should_report_exhaustive_grid():
    threshold = Fraction(7, 10)
    seen = set()
    for total in range(0, 13):
        for locked in range(0, total + 1):
            got = should_report(locked, total, threshold, 5)
            # cross-multiplied integer restatement of the same rule
            want = total >= 5 and locked < total and locked * 10 >= total * 7
            assert got == want, (locked, total)
            if got:
                seen.add((locked, total))
    assert seen == REPORTING_PAIRS


def test_threshold_is_inclusive():
    assert should_report(7, 10, Fraction(7, 10), 5)
    assert not should_report(6, 10, Fraction(7, 10), 5)


def test_fully_locked_never_reports():
    assert not should_report(10, 10, Fraction(7, 10), 5)
    assert not should_report(5, 5, Fraction(1, 2), 1)


def test_min_samples_gate():
    assert not should_report(3, 4, Fraction(7, 10), 5)
    assert should_report(3, 4, Fraction(7, 10), 4)


def test_no_float_rounding_at_boundary():
    # 0.7 as a float under-represents 7/10; exact arithmetic must not.
    assert should_report(7, 10, Fraction(7, 10), 1)
    assert should_report(7_000_001, 10_000_000, Fraction(7, 10), 1)
    assert not should_report(6_999_999, 10_000_000, Fraction(7, 10), 1)


@given(
    locked=st.integers(min_value=0, max_value=12),
    extra=st.integers(min_value=0, max_value=12),
    scale=st.integers(min_value=1, max_value=5),
)
def test_decision_is_scale_invariant(locked, extra, scale):
    total = locked + extra
    if total == 0:
        return
    threshold = Fraction(7, 10)
    assert should_report(locked, total, threshold, 1) == \
        should_report(locked * scale, total * scale, threshold, 1)


# -- end-to-end detection ---------------------------------------------------------

def test_nine_of_ten_reports_once(tmp_path):
    uses = "use(v); " * 9
    traces = run(f"""
        void f(void) {{
            lock(&m);
            {uses}
            unlock(&m);
            use(v);
        }}
    """, tmp_path)
    assert len(traces) == 1
    trace = traces[0]
    assert trace.checker == "lockstat"
    assert trace.importance is Importance.ERROR
    assert trace.message == ("variable v accessed without lock &m held; "
                             "&m held at 9 of 10 accesses")
    assert len(trace.steps) == 1
    assert trace.steps[0].description == "access to v without &m"
    assert trace.steps[0].location.line == 6


def test_seven_of_ten_boundary_reports_each_unlocked_site(tmp_path):
    traces = run("""
        void f(void) {
            lock(&m);
            use(v); use(v); use(v); use(v); use(v); use(v); use(v);
            unlock(&m);
            use(v);
            use(v);
            use(v);
        }
    """, tmp_path)
    assert len(traces) == 3
    assert {t.steps[0].location.line for t in traces} == {6, 7, 8}
    assert all("held at 7 of 10 accesses" in t.message for t in traces)


def test_six_of_ten_is_quiet(tmp_path):
    traces = run("""
        void f(void) {
            lock(&m);
            use(v); use(v); use(v); use(v); use(v); use(v);
            unlock(&m);
            use(v); use(v); use(v); use(v);
        }
    """, tmp_path)
    assert traces == []


def test_always_locked_is_quiet(tmp_path):
    uses = "use(v); " * 10
    traces = run(f"""
        void f(void) {{
            lock(&m);
            {uses}
            unlock(&m);
        }}
    """, tmp_path)
    assert traces == []


def test_below_min_samples_is_quiet(tmp_path):
    traces = run("""
        void f(void) {
            lock(&m);
            use(v); use(v); use(v);
            unlock(&m);
            use(v);
        }
    """, tmp_path)
    assert traces == []


def test_statistics_aggregate_across_functions(tmp_path):
    # 4 + 3 locked accesses and one unlocked one, spread over two
    # functions: individually below min-samples, together 7 of 8.
    traces = run("""
        void f(void) {
            lock(&m);
            use(v); use(v); use(v); use(v);
            unlock(&m);
        }
        void g(void) {
            lock(&m);
            use(v); use(v); use(v);
            unlock(&m);
            use(v);
        }
    """, tmp_path)
    assert len(traces) == 1
    assert "held at 7 of 8 accesses" in traces[0].message
    assert traces[0].steps[0].location.line == 11


def test_held_sets_do_not_leak_between_functions(tmp_path):
    # f leaves &m held at exit; g's accesses must still start unlocked.
    uses = "use(v); " * 7
    traces = run(f"""
        void f(void) {{
            lock(&m);
            {uses}
        }}
        void g(void) {{
            use(v); use(v); use(v);
        }}
    """, tmp_path)
    assert len(traces) == 3
    assert all("held at 7 of 10" in t.message for t in traces)


def test_per_lock_ratios_are_independent(tmp_path):
    # &a covers 5 of 6 accesses, &b only 4 of 6: just &a is reported.
    traces = run("""
        void f(void) {
            lock(&a);
            lock(&b);
            use(v); use(v); use(v); use(v);
            unlock(&b);
            use(v);
            unlock(&a);
            use(v);
        }
    """, tmp_path)
    assert len(traces) == 1
    assert "lock &a held" in traces[0].message
    assert "&b" not in traces[0].message
    assert traces[0].steps[0].location.line == 9


def test_variables_are_distinguished(tmp_path):
    # v misses the lock once; w is always locked.
    traces = run("""
        void f(void) {
            lock(&m);
            use(v); use(v); use(v); use(v);
            use(w); use(w); use(w); use(w); use(w);
            unlock(&m);
            use(v);
        }
    """, tmp_path)
    assert len(traces) == 1
    assert traces[0].message.startswith("variable v ")


def test_traces_sorted_by_variable(tmp_path):
    traces = run("""
        void f(void) {
            lock(&m);
            use(b); use(b); use(b); use(b);
            use(a); use(a); use(a); use(a);
            unlock(&m);
            use(b);
            use(a);
        }
    """, tmp_path)
    assert [t.message.split()[1] for t in traces] == ["a", "b"]


def test_member_expression_keys(tmp_path):
    uses = "use(d->cnt); " * 4
    traces = run(f"""
        void f(void) {{
            lock(&d->mux);
            {uses}
            unlock(&d->mux);
            use(d->cnt);
        }}
    """, tmp_path)
    assert len(traces) == 1
    assert traces[0].message == (
        "variable d->cnt accessed without lock &d->mux held; "
        "&d->mux held at 4 of 5 accesses")


def test_spellings_of_one_field_are_one_variable(tmp_path):
    # `(*p).used` is p->used: nine locked writes of either spelling
    config = ('access "%V = %E"\n'
              'lock "mutex_lock(%L)" unlock "mutex_unlock(%L)"\n')
    locked = "".join(
        f"void f{i}(struct s *p) {{ mutex_lock(&m); "
        f"{'p->used' if i % 2 else '(*p).used'} = {i}; mutex_unlock(&m); }}\n"
        for i in range(9))
    traces = run(locked + "void g(struct s *p) { p->used = 9; }\n", tmp_path,
                 config_text=config)
    assert [t.message for t in traces] == [
        "variable p->used accessed without lock &m held; "
        "&m held at 9 of 10 accesses"]


def test_access_pattern_without_metavar_uses_node_text(tmp_path):
    config = """
    access "g_count"
    lock "lock(%L)" unlock "unlock(%L)"
    min-samples 2
    """
    traces = run("""
        void f(void) {
            lock(&m);
            g_count;
            g_count;
            g_count;
            unlock(&m);
            g_count;
        }
    """, tmp_path, config_text=config)
    assert len(traces) == 1
    assert traces[0].message.startswith("variable g_count ")


def test_statement_patterns_key_by_statement_text(tmp_path):
    config = """
    access "%V = %E;"
    lock "big_lock();" unlock "big_unlock();"
    """
    locked = "".join(f"void f{i}(void) {{ big_lock(); x = {i}; big_unlock(); }}\n"
                     for i in range(8))
    traces = run(locked + "void g(void) { x = 9; }\n", tmp_path,
                 config_text=config)
    assert [t.message for t in traces] == [
        "variable x accessed without lock big_lock(); held; "
        "big_lock(); held at 8 of 9 accesses"]
    assert traces[0].steps[0].location.line == 9


def test_metavariable_free_unlock_releases_its_lines_lock(tmp_path):
    config = """
    access "%V = %E;"
    lock "big_lock();" unlock "big_unlock();"
    threshold 0.5
    min-samples 1
    """
    traces = run("""
        void a(void) { big_lock(); x = 1; big_unlock(); }
        void b(void) { big_lock(); big_unlock(); x = 2; }
    """, tmp_path, config_text=config)
    assert [t.message for t in traces] == [
        "variable x accessed without lock big_lock(); held; "
        "big_lock(); held at 1 of 2 accesses"]
    assert traces[0].steps[0].location.line == 3


def test_metavariable_free_unlock_releases_every_key_its_lock_took(tmp_path):
    config = """
    access "%V = %E;"
    lock "spin_lock(%X)" unlock "unlock_all()"
    lock "lock(%L)" unlock "unlock(%L)"
    threshold 0.5
    min-samples 1
    """
    traces = run("""
        void a(void) { lock(&m); spin_lock(&s); spin_lock(&t); x = 1; unlock_all(); unlock(&m); }
        void b(void) { lock(&m); spin_lock(&s); spin_lock(&t); unlock_all(); x = 2; unlock(&m); }
    """, tmp_path, config_text=config)
    assert [t.message for t in traces] == [
        "variable x accessed without lock &s held; &s held at 1 of 2 accesses",
        "variable x accessed without lock &t held; &t held at 1 of 2 accesses"]
    assert [t.steps[0].location.line for t in traces] == [3, 3]


def test_lone_lock_and_unlock_lines(tmp_path):
    config = parse_lockstat_config(
        'access "use(%V)"\nlock "lock(%L)"\nunlock "unlock(%L)"\n')
    assert len(config.locks) == 1 and len(config.unlocks) == 1
    traces = run("""
        void f(void) { lock(&m); use(v); use(v); use(v); use(v); unlock(&m);
                       use(v); }
    """, tmp_path, config_text='access "use(%V)"\nlock "lock(%L)"\n'
                               'unlock "unlock(%L)"\n')
    assert [t.steps[0].location.line for t in traces] == [3]


def test_branch_join_drops_uncertain_locks(tmp_path):
    # The lock is taken on only one branch, so after the join it does
    # not count as held and all five accesses are unlocked: no minority
    # to report.
    traces = run("""
        void f(int c) {
            if (c) {
                lock(&m);
            } else {
                step();
            }
            use(v); use(v); use(v); use(v); use(v);
        }
    """, tmp_path)
    assert traces == []


def test_loop_body_lock_does_not_reach_loop_head(tmp_path):
    # First iteration arrives without the lock, so the loop-head access
    # is never must-held; taking the lock late in the body cannot make
    # the earlier access count as protected.
    traces = run("""
        void f(int c) {
            lock(&m);
            use(v); use(v); use(v); use(v);
            unlock(&m);
            while (c) {
                use(v);
                lock(&m);
                unlock(&m);
            }
        }
    """, tmp_path)
    assert len(traces) == 1
    assert "held at 4 of 5 accesses" in traces[0].message
    assert traces[0].steps[0].location.line == 7


# -- held sets against the all-paths oracle ----------------------------------------

HELD_ORACLE_SOURCES = [
    """
    void f(void) {
        use(v);
        lock(&m);
        use(v);
        unlock(&m);
        use(v);
    }
    """,
    """
    void f(int c) {
        lock(&m);
        if (c) {
            unlock(&m);
        } else {
            use(v);
        }
        use(v);
    }
    """,
    """
    void f(int c, int d) {
        if (c) {
            lock(&a);
        } else {
            lock(&a);
            lock(&b);
        }
        use(v);
        if (d) {
            unlock(&b);
        }
        use(v);
        unlock(&a);
        use(v);
    }
    """,
    """
    void f(int c) {
        lock(&a);
        lock(&b);
        use(v);
        if (c) {
            unlock(&a);
            use(v);
        }
        use(v);
        unlock(&b);
    }
    """,
]

LOCK_PATTERN = compile_pattern("lock(%L)")
UNLOCK_PATTERN = compile_pattern("unlock(%L)")
USE_PATTERN = compile_pattern("use(%V)")


@pytest.mark.parametrize("source", HELD_ORACLE_SOURCES)
def test_held_sets_match_path_enumeration(source, tmp_path):
    unit = build_unit_from_text(textwrap.dedent(source), "t.c")
    cfg = unit.cfgs["f"]

    events = {}
    access_nodes = {}
    for nid, node in cfg.nodes.items():
        if node.ast_ref is None:
            continue
        for sub in iter_tree(node.ast_ref):
            for pattern, op in ((LOCK_PATTERN, "lock"),
                                (UNLOCK_PATTERN, "unlock")):
                bindings = match_node(pattern, sub)
                if bindings is not None:
                    key = to_text(bindings["L"])
                    events.setdefault(nid, []).append((op, key))
            if match_node(USE_PATTERN, sub) is not None:
                access_nodes[str(sub.location)] = nid
    oracle_held = must_held_by_paths(cfg.succs, cfg.entry, cfg.exit, events)

    config = tmp_path / "lockstat.conf"
    config.write_text(BASIC_CONFIG)
    checker = LockstatChecker(str(config))
    accesses = checker._collect_accesses(cfg, checker.config.node_events(
        unit, match_node, text_key, checker.config.accesses))
    assert len(accesses) == len(access_nodes)
    for access in accesses:
        node_id = access_nodes[str(access.location)]
        assert access.held == oracle_held[node_id], str(access.location)
