"""Each lock checker matches a (pattern, AST subnode) pair at most once
per check_unit, however many calling contexts reach the subnode, and a
pattern shape is matched on a subnode once per unit, however many
checkers name it; the checkers share one match table and one
supergraph per unit."""

import collections
import textwrap

import pytest

from cbugscan import patterns
from cbugscan.checkers import automaton, builtin_registry, lockstat, threads
from cbugscan.checkers.base import Services
from cbugscan.frontend import iter_tree
from cbugscan.ir import build_unit_from_text, units


def fan_out_chain(depth=4, fan_out=3):
    """f0 calls f1 `fan_out` times, f1 calls f2 as often, and so on; each
    level takes its own lock around the calls and writes a global."""
    functions = [f"""
        void f{depth - 1}(int *p) {{
            mutex_lock(&m{depth - 1});
            shared = *p;
            mutex_unlock(&m{depth - 1});
            spin_lock(&s);
            spin_unlock(&s);
        }}"""]
    for level in range(depth - 2, -1, -1):
        calls = "\n".join(f"            f{level + 1}(p);"
                          for _ in range(fan_out))
        functions.append(f"""
        void f{level}(int *p) {{
            mutex_lock(&m{level});
            shared = {level};
{calls}
            mutex_unlock(&m{level});
        }}""")
    source = "int shared;\n" + "\n".join(functions)
    return build_unit_from_text(textwrap.dedent(source), "chain.c")


@pytest.mark.parametrize("name", ["automaton", "thread", "lockstat"])
def test_each_pattern_subnode_pair_matched_once(name, monkeypatch):
    attempts = collections.Counter()
    for module in (automaton, threads, lockstat):
        original = module.match_node

        def counted(pattern, node, original=original):
            attempts[pattern, node] += 1
            return original(pattern, node)

        monkeypatch.setattr(module, "match_node", counted)

    checker = builtin_registry().create(name)
    checker.check_unit(fan_out_chain(),
                       Services())
    assert attempts  # the checker did match something
    repeated = [(p.name, str(n.location), count)
                for (p, n), count in attempts.items() if count > 1]
    assert repeated == []


def test_each_shape_subnode_pair_matched_once_across_checkers(monkeypatch):
    attempts = collections.Counter()
    for module in (automaton, threads, lockstat):
        original = module.match_node

        def counted(pattern, node, original=original):
            shape = tuple((sub.kind, sub.text, len(sub.children))
                          for sub in iter_tree(pattern.tree))
            attempts[shape, node] += 1
            return original(pattern, node)

        monkeypatch.setattr(module, "match_node", counted)

    unit = fan_out_chain()
    registry = builtin_registry()
    for name in ("automaton", "thread", "lockstat"):
        registry.create(name).check_unit(
            unit, Services())
    assert attempts  # the checkers did match something
    repeated = [(str(n.location), count)
                for (_, n), count in attempts.items() if count > 1]
    assert repeated == []


def services():
    return Services()


def test_match_table_is_built_once_per_unit(monkeypatch):
    builds = []
    original = patterns.build_match_table

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(patterns, "build_match_table", counted)
    monkeypatch.setattr(units, "build_match_table", counted)
    unit = fan_out_chain()
    assert len(builds) == 1
    registry = builtin_registry()
    for name in ("automaton", "lockstat", "thread"):
        registry.create(name).check_unit(unit, services())
    thread = registry.create("thread")
    assert threads.find_thread_entries(unit, thread.config, services())
    assert len(builds) == 1


def test_supergraph_is_computed_once_per_unit(monkeypatch):
    graphs = []
    for module in (automaton, threads):
        original = module.build_supergraph

        def recorded(unit, original=original):
            graphs.append(original(unit))
            return graphs[-1]

        monkeypatch.setattr(module, "build_supergraph", recorded)
    unit = fan_out_chain()
    registry = builtin_registry()
    for name in ("automaton", "thread", "automaton"):
        registry.create(name).check_unit(unit, services())
    assert len(graphs) == 3  # each check_unit still asks for it
    assert graphs[0] is graphs[1] is graphs[2] is unit.call_graph
    assert graphs[0].calls  # the graph of the chain, with its calls


def test_the_call_graph_is_built_once_per_unit_load(monkeypatch, tmp_path):
    built = []
    original = units.build_call_graph

    def counted(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(units, "build_call_graph", counted)
    paths = []
    for name, callee in (("a.c", "g"), ("b.c", "h")):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(
            f"void {callee}(int *p) {{ mutex_lock(p); }}\n"
            f"void f(void) {{ {callee}(&m); {callee}(&m); }}\n")
    manager = units.UnitManager(units.load_unit, budget=1)
    registry = builtin_registry()
    for path in (paths[0], paths[1], paths[0]):
        unit = manager.get(path)
        for name in ("automaton", "lockstat", "thread", "reach"):
            registry.create(name).check_unit(unit, services())
        assert unit.call_graph is built[-1]
        assert unit.call_graph.calls  # f's two calls, with their actuals
    assert len(built) == manager.total_loads == 3
