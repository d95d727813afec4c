import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dead_leaders_by_inversion

from cbugscan.checkers.base import Services
from cbugscan.checkers.reach import (
    ReachChecker,
    dead_leaders,
    superfluous_semicolons,
)
from cbugscan.errors import ConfigError
from cbugscan.ir import build_unit_from_text
from cbugscan.report import Importance


def run(source):
    checker = ReachChecker(None)
    unit = build_unit_from_text(textwrap.dedent(source), "t.c")
    services = Services()
    return checker.check_unit(unit, services)


def cfg_of(source, name="f"):
    return build_unit_from_text(textwrap.dedent(source), "t.c").cfgs[name]


# -- configuration ----------------------------------------------------------------

def test_takes_no_config_file(tmp_path):
    ReachChecker(None)  # fine
    config = tmp_path / "reach.conf"
    config.write_text("anything\n")
    with pytest.raises(ConfigError) as info:
        ReachChecker(str(config))
    assert "no config" in str(info.value)


# -- dead code --------------------------------------------------------------------

def test_code_after_return_is_reported_once():
    traces = run("""
        void f(void) {
            return;
            cleanup();
        }
    """)
    assert len(traces) == 1
    assert traces[0].message == "unreachable code"
    assert traces[0].importance is Importance.ERROR
    assert traces[0].steps[0].location.line == 4
    assert traces[0].steps[0].description == "cleanup();"


def test_straight_line_dead_run_collapses_to_leader():
    traces = run("""
        void f(void) {
            return;
            a();
            b();
            c();
        }
    """)
    assert len(traces) == 1
    assert traces[0].steps[0].location.line == 4


def test_separate_dead_regions_report_separately():
    traces = run("""
        void f(int c) {
            if (c) {
                return;
                a();
            } else {
                return;
                b();
            }
        }
    """)
    assert len(traces) == 2
    assert [t.steps[0].location.line for t in traces] == [5, 8]


def test_code_after_infinite_loop():
    traces = run("""
        void f(void) {
            while (1) {
                step();
            }
            done();
            more();
        }
    """)
    assert len(traces) == 1
    assert traces[0].steps[0].location.line == 6
    assert traces[0].steps[0].description == "done();"


def test_dead_branch_of_constant_condition():
    traces = run("""
        void f(void) {
            if (0) {
                never();
            }
            always();
        }
    """)
    assert len(traces) == 1
    assert traces[0].steps[0].description == "never();"


def test_pure_dead_cycle_promotes_first_by_location():
    cfg = cfg_of("""
        void f(void) {
            return;
        spin:
            step();
            goto spin;
        }
    """)
    leaders = dead_leaders(cfg)
    assert len(leaders) == 1
    assert cfg.nodes[leaders[0]].location.line == 5


# -- dead runs against an oracle ----------------------------------------------------

LABELS = 3


@st.composite
def jumpy_statements(draw, depth, in_loop, labels):
    """One statement of a body that jumps a lot: returns, gotos to
    labels L0..L2, breaks and continues in loops, and branches and loops
    on `c` or on a literal, so dead runs, dead branches and dead cycles
    come up often. A statement may take the next free label."""
    kinds = ["call", "call", "return", "goto"]
    if in_loop:
        kinds += ["break", "continue"]
    if depth < 3:
        kinds += ["if", "while", "for"]
    kind = draw(st.sampled_from(kinds))
    if kind == "call":
        text = draw(st.sampled_from(["a();", "b();", "c = c - 1;", ";"]))
    elif kind == "goto":
        text = f"goto L{draw(st.integers(0, LABELS - 1))};"
    elif kind in ("return", "break", "continue"):
        text = f"{kind};"
    else:
        cond = draw(st.sampled_from(["c", "0", "1"]))
        body = draw(jumpy_blocks(depth + 1, in_loop or kind != "if", labels))
        if kind == "if":
            text = f"if ({cond}) {{ {body} }}"
            if draw(st.booleans()):
                orelse = draw(jumpy_blocks(depth + 1, in_loop, labels))
                text += f" else {{ {orelse} }}"
        elif kind == "while":
            text = f"while ({cond}) {{ {body} }}"
        else:
            header = draw(st.sampled_from(
                [";;", "c = 0; c; c = c + 1", f"; {cond}; "]))
            text = f"for ({header}) {{ {body} }}"
    if len(labels) < LABELS and draw(st.booleans()):
        labels.append(f"L{len(labels)}")
        text = f"{labels[-1]}: {text}"
    return text


@st.composite
def jumpy_blocks(draw, depth, in_loop, labels):
    return " ".join(draw(st.lists(
        jumpy_statements(depth, in_loop, labels), max_size=4)))


@st.composite
def jumpy_functions(draw):
    labels: list[str] = []
    body = draw(jumpy_blocks(0, False, labels))
    # labels the body left free go first, where they add no dead node
    free = " ".join(f"L{i}: ;" for i in range(len(labels), LABELS))
    return f"void f(int c) {{ {free} {body} }}\n"


@settings(max_examples=400, deadline=None)
@given(jumpy_functions())
def test_dead_leaders_match_a_full_inversion_of_succs(source):
    cfg = build_unit_from_text(source, "t.c").cfgs["f"]
    assert dead_leaders(cfg) == dead_leaders_by_inversion(cfg)


def test_leaders_sorted_by_location():
    cfg = cfg_of("""
        void f(int c) {
            if (c) {
                return;
                late();
            } else {
                return;
                early();
            }
        }
    """)
    leaders = dead_leaders(cfg)
    lines = [cfg.nodes[n].location.line for n in leaders]
    assert lines == sorted(lines) == [5, 8]


def test_fully_reachable_function_is_quiet():
    traces = run("""
        void f(int c) {
            if (c) {
                a();
            } else {
                b();
            }
            c();
        }
    """)
    assert traces == []


def test_goto_rescues_code_after_return():
    traces = run("""
        void f(int c) {
            if (c) {
                goto out;
            }
            return;
        out:
            cleanup();
        }
    """)
    assert traces == []


# -- superfluous semicolons ---------------------------------------------------------

def test_semicolon_as_if_body_warns():
    traces = run("""
        void f(int c) {
            if (c);
            step();
        }
    """)
    assert len(traces) == 1
    assert traces[0].message == "superfluous semicolon"
    assert traces[0].importance is Importance.WARNING
    assert traces[0].steps[0].location.line == 3
    assert traces[0].steps[0].description == "empty statement as sole body"


@pytest.mark.parametrize("header", [
    "while (c)",
    "for (i = 0; i < 5; i = i + 1)",
])
def test_semicolon_as_loop_body_warns(header):
    traces = run(f"""
        void f(int c, int i) {{
            {header};
            step();
        }}
    """)
    assert len(traces) == 1
    assert traces[0].message == "superfluous semicolon"


def test_if_with_else_branch_is_not_flagged():
    # `if (c); else x();` is deliberate-looking enough to leave alone:
    # the author clearly saw both branches.
    traces = run("""
        void f(int c) {
            if (c);
            else step();
        }
    """)
    assert [t for t in traces if t.message == "superfluous semicolon"] == []


def test_empty_compound_body_is_not_flagged():
    traces = run("""
        void f(int c) {
            if (c) { }
            while (c) { }
        }
    """)
    assert traces == []


def test_standalone_empty_statement_is_not_flagged():
    traces = run("""
        void f(void) {
            ;
            step();
        }
    """)
    assert traces == []


def test_semicolon_then_return_gives_warning_and_error():
    traces = run("""
        void f(int cond) {
            if (cond);
            return;
            x = 1;
        }
    """)
    by_importance = {t.importance for t in traces}
    assert by_importance == {Importance.ERROR, Importance.WARNING}
    assert len(traces) == 2
    errors = [t for t in traces if t.importance is Importance.ERROR]
    assert errors[0].message == "unreachable code"
    assert errors[0].steps[0].location.line == 5


def test_superfluous_semicolon_helper_finds_nested_bodies():
    unit = build_unit_from_text(textwrap.dedent("""
        void f(int a, int b) {
            if (a)
                while (b);
        }
    """), "t.c")
    found = superfluous_semicolons(unit.match_table)
    assert len(found) == 1
    assert found[0].location.line == 4
