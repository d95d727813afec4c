"""The shared worklist solver, `checkers.base.forward_fixpoint`, against
the path-enumerating oracles on small generated graphs with lock and
unlock events."""

from hypothesis import given, strategies as st

from cbugscan.checkers.base import forward_fixpoint

from oracles import bfs_reachable, enumerate_paths, must_held_by_paths

_LOCKS = ("a", "b", "c")
# locks twice as often as unlocks, so facts differ between paths
_events = st.lists(st.tuples(st.sampled_from(("lock", "lock", "unlock")),
                             st.sampled_from(_LOCKS)), max_size=2)


@st.composite
def _graphs(draw):
    """Any edges among up to 7 nodes, cycles and self-loops included."""
    n = draw(st.integers(min_value=1, max_value=7))
    return {node: draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                max_size=3, unique=True))
            for node in range(n)}


@st.composite
def _dags(draw):
    """Acyclic graphs over nodes 0..n-1 whose exit is n-1; every other
    node has a successor, so every node reachable from 0 lies on a
    path to the exit. Each node carries lock/unlock events."""
    n = draw(st.integers(min_value=1, max_value=8))
    succs = {node: draw(st.lists(st.integers(min_value=node + 1,
                                             max_value=n - 1),
                                 min_size=1, max_size=3, unique=True))
             for node in range(n - 1)}
    events = {node: draw(_events) for node in range(n)}
    return succs, n - 1, events


def _held_after(events, held):
    held = set(held)
    for op, key in events:
        if op == "lock":
            held.add(key)
        else:
            held.discard(key)
    return frozenset(held)


def _solve_held(succs, events, join):
    return forward_fixpoint(
        0, frozenset(), lambda node: succs.get(node, []),
        lambda node, held: _held_after(events.get(node, []), held), join)


@given(_graphs())
def test_keys_are_the_reachable_nodes(succs):
    facts = forward_fixpoint(0, True, lambda node: succs[node],
                             lambda _node, fact: fact, lambda _old, _new: None)
    assert set(facts) == bfs_reachable(succs, 0)


@given(_dags())
def test_union_join_is_the_union_over_paths(dag):
    succs, exit_id, events = dag
    expected: dict[int, set[str]] = {}
    for path in enumerate_paths(succs, 0, exit_id):
        held: frozenset[str] = frozenset()
        for node in path:
            expected.setdefault(node, set()).update(held)
            held = _held_after(events[node], held)
    may = _solve_held(succs, events,
                      lambda old, new: None if new <= old else old | new)
    assert {node: set(held) for node, held in may.items()} == expected


@given(_dags())
def test_intersection_join_is_the_must_hold_oracle(dag):
    succs, exit_id, events = dag
    must = _solve_held(succs, events,
                       lambda old, new: None if old <= new else old & new)
    assert ({node: set(held) for node, held in must.items()}
            == must_held_by_paths(succs, 0, exit_id, events))


@given(_graphs())
def test_no_change_from_join_stops_propagation(succs):
    transferred: list[int] = []

    def transfer(node, fact):
        transferred.append(node)
        return fact

    facts = forward_fixpoint(0, True, lambda node: succs[node], transfer,
                             lambda _old, _new: None)
    # every key is transferred once, on the visit that found it
    assert sorted(transferred) == sorted(facts)


def test_a_joined_fact_queues_the_key_again():
    # 0 -> 1 -> 2 -> 1: the back edge widens 1, then 2, once each
    succs = {0: [1], 1: [2], 2: [1]}
    transferred: list[int] = []

    def transfer(node, held):
        transferred.append(node)
        return held | {node}

    facts = forward_fixpoint(
        0, frozenset(), lambda node: succs[node], transfer,
        lambda old, new: None if new <= old else old | new)
    assert transferred == [0, 1, 2, 1, 2]
    assert facts == {0: frozenset(), 1: {0, 1, 2}, 2: {0, 1, 2}}


def test_transfer_none_stops_at_the_key():
    # 1 never lets a path leave: 2 is reached through 3 alone, 4 not at all
    succs = {0: [1, 3], 1: [2, 4], 3: [2]}

    def transfer(node, paths):
        return None if node == 1 else frozenset(path + (node,) for path in paths)

    facts = forward_fixpoint(
        0, frozenset({()}), lambda node: succs.get(node, []), transfer,
        lambda old, new: None if new <= old else old | new)
    assert set(facts) == {0, 1, 2, 3}
    assert facts[1] == {(0,)}
    assert facts[2] == {(0, 3)}
