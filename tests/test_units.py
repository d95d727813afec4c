import textwrap

import pytest
from hypothesis import given, strategies as st

from cbugscan.errors import ConfigError, FrontendError
from cbugscan.ir import UnitManager, build_unit_from_text, load_unit

from oracles import LruOracle


def write_sources(tmp_path, count=5):
    paths = []
    for i in range(count):
        p = tmp_path / f"u{i}.c"
        p.write_text(f"void fn{i}() {{ work{i}(); }}\n")
        paths.append(str(p))
    return paths


# -- translation unit construction ----------------------------------------------

def test_unit_indexes_functions_and_globals():
    unit = build_unit_from_text(textwrap.dedent("""
        int counter;
        struct dev *gdev;
        void f(int a) { int x; a = x; }
        int g() { return 0; }
    """), "t.c")
    assert list(unit.functions) == ["f", "g"]
    assert set(unit.cfgs) == {"f", "g"}
    assert unit.func_params["f"] == ["a"]
    assert unit.func_locals["f"] == {"a": "int", "x": "int"}


def test_unit_builds_for_a_3000_term_sum():
    # the sum's left spine is deeper than Python's recursion limit
    sum_ = " + ".join(["x"] * 3000)
    unit = build_unit_from_text(
        f"void f(int x) {{ int y; x = {sum_}; g(h(x)); }}\n", "t.c")
    assert unit.func_locals["f"] == {"x": "int", "y": "int"}
    assert [e.callee for e in unit.call_graph.edges
            if e.caller == "f"] == ["h", "g"]


def test_second_definition_of_a_function_is_an_error():
    # the first body would otherwise be dropped without a word
    with pytest.raises(FrontendError) as info:
        build_unit_from_text("int m;\nvoid f(void) { mutex_lock(&m); }\n"
                             "void f(void) { }\n", "t.c")
    assert str(info.value) == "t.c:3:1: redefinition of function 'f'"


def test_load_unit_reads_file(tmp_path):
    p = tmp_path / "m.c"
    p.write_text("void hello() {}\n")
    unit = load_unit(str(p))
    assert unit.path == str(p)
    assert "hello" in unit.functions


def test_load_unit_propagates_parse_error(tmp_path):
    p = tmp_path / "bad.c"
    p.write_text("void f() { x += 1; }\n")
    with pytest.raises(FrontendError):
        load_unit(str(p))


# -- unit manager ------------------------------------------------------------------

def test_budget_must_be_positive():
    with pytest.raises(ConfigError):
        UnitManager(load_unit, budget=0)
    with pytest.raises(ConfigError):
        UnitManager(load_unit, budget=-2)


def test_unlimited_budget_keeps_everything(tmp_path):
    paths = write_sources(tmp_path, 4)
    mgr = UnitManager(load_unit)
    for p in paths:
        mgr.get(p)
    assert mgr.resident_paths() == paths
    assert mgr.total_loads == 4
    assert mgr.max_resident == 4


def test_hit_does_not_reload(tmp_path):
    paths = write_sources(tmp_path, 2)
    mgr = UnitManager(load_unit)
    first = mgr.get(paths[0])
    again = mgr.get(paths[0])
    assert first is again
    assert mgr.load_counts[paths[0]] == 1


def test_eviction_is_least_recently_used(tmp_path):
    a, b, c = write_sources(tmp_path, 3)
    mgr = UnitManager(load_unit, budget=2)
    mgr.get(a)
    mgr.get(b)
    mgr.get(a)      # refresh a; b is now oldest
    mgr.get(c)      # evicts b
    assert mgr.resident_paths() == [a, c]
    mgr.get(b)      # reload
    assert mgr.load_counts[b] == 2


def test_max_resident_respects_budget(tmp_path):
    paths = write_sources(tmp_path, 5)
    mgr = UnitManager(load_unit, budget=1)
    for p in paths + list(reversed(paths)):
        mgr.get(p)
    assert mgr.max_resident == 1
    assert mgr.total_loads == 9  # last path still resident on the way back


def test_reload_returns_equivalent_unit(tmp_path):
    (p,) = write_sources(tmp_path, 1)
    mgr = UnitManager(load_unit, budget=1)
    before = mgr.get(p)
    mgr.get(str(tmp_path / "u0.c"))  # same path; still a hit
    other = tmp_path / "z.c"
    other.write_text("void z() {}\n")
    mgr.get(str(other))              # evicts p
    after = mgr.get(p)
    assert before is not after
    assert list(before.functions) == list(after.functions)


@given(
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    accesses=st.lists(st.integers(min_value=0, max_value=5),
                      min_size=1, max_size=40),
)
def test_manager_counters_match_lru_oracle(budget, accesses):
    loaded = []

    def fake_loader(path, flags=(), command=None):
        loaded.append(path)
        return object()

    mgr = UnitManager(fake_loader, budget=budget)
    oracle = LruOracle(budget)
    for idx in accesses:
        key = f"file{idx}.c"
        mgr.get(key)
        oracle.get(key)
    assert mgr.total_loads == sum(oracle.loads.values())
    assert dict(mgr.load_counts) == oracle.loads
    assert mgr.max_resident == oracle.max_resident
    assert mgr.resident_paths() == oracle.resident
