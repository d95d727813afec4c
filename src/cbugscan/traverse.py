"""The per-unit interprocedural graph and the one summary solver.

`build_supergraph(unit)` returns the unit's supergraph, which is its
call graph (`ir.callgraph.build_call_graph`, built with the unit): the
CFGs of every function the unit defines as one graph, each node's calls
to those functions, and the components of those calls, callees before
callers. Both interprocedural checkers fetch the graph through it.

Calls are not expanded into the graph. The interprocedural checkers
compute one summary per function and apply a callee's summary at each
node that calls it: the functional approach of Sharir & Pnueli (1981).
`solve_summaries` is the one solver: it solves `sccs` callees first and
iterates a recursive component until its summaries stop changing, so
there is no call-depth bound; a checker only says how to summarize one
function, how to join two summaries, and where iteration starts. It
also keeps the one record of the calls each function's walk applies.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

from cbugscan.ir.callgraph import SuperGraph
from cbugscan.ir.units import TranslationUnit

Summary = TypeVar("Summary")


def build_supergraph(unit: TranslationUnit) -> SuperGraph:
    """The unit's supergraph: its call graph, built with the unit."""
    return unit.call_graph


# -- summaries, bottom-up ----------------------------------------------------------

class _Unsolved(Exception):
    """A summary of a lower component is asked for and not solved yet."""


def solve_summaries(graph: SuperGraph,
                    summarize: Callable[[str, Hashable, Callable], Summary],
                    join: Callable[[Summary, Summary], Summary],
                    bottom: Summary
                    ) -> tuple[dict[tuple[str, Hashable], Summary], dict]:
    """Every function's summary by (function, variant), the base variant
    `()` and every other one asked for; `summarize(fn, variant, summary_of)`
    computes one, reading a callee's as `summary_of(callee, variant=())`;
    and by function, the callees it asked summaries of, first asked first.

    Components are solved callees first. A recursive one starts from
    `bottom` and its summaries become `join(old, summarize(...))` until
    none changes; a summary of it that is asked for joins in. A summary
    of a lower component that is asked for and not solved yet is solved
    first, then the asking attempt is made again; attempts wait on an
    explicit stack, so long chains of requests take no recursion. Every
    round and attempt adds to the record; none walks further than the last."""
    solved: dict[tuple[str, Hashable], Summary] = {}
    applied: dict[str, dict[str, None]] = {fn: {} for fn in graph.scc_of}
    asking: dict[str, None] = {}  # the record of the function summarized
    members: dict = {}  # the keys of the recursive component iterated
    current = -1        # and its index

    def summary_of(fn: str, variant: Hashable = ()) -> Summary:
        asking[fn] = None
        found = solved.get((fn, variant))
        if found is None:
            if graph.scc_of[fn] != current:
                raise _Unsolved((fn, variant))
            members[fn, variant] = None
            found = solved[fn, variant] = bottom
        return found

    def solve(keys: list[tuple[str, Hashable]]) -> None:
        nonlocal current, asking
        if keys[0][0] not in graph.recursive:
            asking = applied[keys[0][0]]
            solved[keys[0]] = summarize(*keys[0], summary_of)
            return
        current = graph.scc_of[keys[0][0]]
        members.update(dict.fromkeys(keys))
        solved.update(dict.fromkeys(keys, bottom))
        try:
            changed = True
            while changed:
                known = len(members)
                changed = False
                for key in list(members):
                    asking = applied[key[0]]
                    new = join(solved[key], summarize(*key, summary_of))
                    if new != solved[key]:
                        solved[key] = new
                        changed = True
                changed = changed or len(members) != known
        except _Unsolved:
            for key in members:
                del solved[key]
            raise
        finally:
            current = -1
            members.clear()

    for scc in graph.sccs:
        pending = [[(fn, ()) for fn in scc]]
        while pending:
            try:
                solve(pending[-1])
            except _Unsolved as unsolved:
                pending.append(list(unsolved.args))
            else:
                pending.pop()
    return solved, applied
