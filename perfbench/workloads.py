"""Seeded generators for the benchmark's C workloads.

Each generator returns a list of `Source` records: a file name, the C
text, and the file's known answer, i.e. the findings the generator
planted, as (checker, importance, message) -> count. Answers are derived
from what was planted, never by running the analyzer. The same
(workload, seed, params) always gives byte-identical sources and
answers; the seed changes names, constants and the placement of planted
bugs, while the shape and amount of work stay fixed.

Workloads:

- `wide`: many files of flat, intraprocedural locking code. Every call
  goes to a function the unit does not define, so each function is its
  own call-graph root and every supergraph is a single CFG.
- `deep`: small files of call chains with fan-out, leaks planted at known
  call depths, and lock-order inversions reached through calls. One file
  holds a leak planted below the analyzer's call-depth cut.
- `nest`: functions with deep `if`/`while` nesting and long expressions,
  plus two hostile files with the shapes known to exhaust the analyzer's
  recursion (about 400 nested `if`s, a 3000-term sum).
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"

# Generator parameters of each workload at benchmark size.
PARAMS = {
    "wide": {"files": 8, "functions": 40},
    "deep": {"chains": [[5, 3], [4, 4], [3, 5]],
             "leak_depths": [[8, 5], [6, 3], [7, 2]],
             "inversion_depths": [1, 4, 2], "cut_depth": 8, "beyond_cut": 2},
    "nest": {"files": 3, "functions": 8, "depth": 24, "terms": 160,
             "hostile_if_depth": 400, "hostile_terms": 3000},
}

# Small sizes for the benchmark's own tests.
SMALL_PARAMS = {
    "wide": {"files": 2, "functions": 16},
    "deep": {"chains": [[3, 2], [2, 3]], "leak_depths": [[8, 2], [3]],
             "inversion_depths": [1, 3], "cut_depth": 8, "beyond_cut": 2},
    "nest": {"files": 1, "functions": 6, "depth": 6, "terms": 20,
             "hostile_if_depth": 400, "hostile_terms": 3000},
}

_EXTERNALS = ["log_event", "notify", "stat_bump", "trace_point", "io_submit",
              "queue_push", "cache_touch", "audit", "wake_waiters", "refill"]


@dataclass
class Source:
    name: str
    text: str
    answer: Counter = field(default_factory=Counter)
    # hostile files carry a shape known to exhaust the analyzer's
    # recursion; they are analyzed in a job of their own
    hostile: bool = False

    @property
    def lines(self) -> int:
        return self.text.count("\n")


def held_at_exit(lock: str) -> tuple[str, str, str]:
    return ("automaton", ERROR, f"lock {lock} held at exit")


def double_lock(lock: str) -> tuple[str, str, str]:
    return ("automaton", ERROR, f"double lock of {lock}")


def unlocked_access(variable: str, lock: str, locked: int,
                    total: int) -> tuple[str, str, str]:
    return ("lockstat", ERROR,
            f"variable {variable} accessed without lock {lock} held; "
            f"{lock} held at {locked} of {total} accesses")


def lock_cycle(a: str, b: str) -> tuple[str, str, str]:
    first, second = sorted((a, b))
    return ("thread", ERROR,
            f"circular lock dependency: {first} <- {second} <- {first}")


UNREACHABLE = ("reach", ERROR, "unreachable code")
SEMICOLON = ("reach", WARNING, "superfluous semicolon")


def _ext(rng: random.Random) -> str:
    return rng.choice(_EXTERNALS)


def _function(name: str, params: str, body: list[str]) -> str:
    lines = [f"void {name}({params}) {{"] + _indent(body) + ["}"]
    return "\n".join(lines) + "\n"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


# -- wide ------------------------------------------------------------------

def _wide_file(rng: random.Random, tag: str, functions: int) -> Source:
    locks = sorted(f"{tag}_mx{i}" for i in range(4))
    stat_lock = f"{tag}_stat_mx"
    answer: Counter = Counter()
    planted = ["leak", "leak", "dlock", "dlock", "dead", "dead", "semi", "semi"]
    stat = ["stat_w", "stat_w", "stat_w", "stat_u"]
    nested = ["nested"] * (functions // 5)
    guards = ["guard"] * max(0, functions - len(planted) - len(stat) - len(nested))
    kinds = planted + stat + nested + guards
    rng.shuffle(kinds)

    stat_var = f"st->cnt_{tag}"
    answer[unlocked_access(stat_var, f"&{stat_lock}", 9, 10)] += 1

    out = [f"/* generated: wide file {tag} */\n"]
    for k, kind in enumerate(kinds):
        name = f"{tag}_{kind}_{k}"
        c, t, n = f"c{k}", f"t{k}", rng.randint(2, 90)
        lock = f"&{rng.choice(locks)}"
        if kind == "stat_w":
            body = [f"mutex_lock(&{stat_lock});"]
            body += [f"{stat_var} = {stat_var} + {c};"] * 3
            body += [f"mutex_unlock(&{stat_lock});", f"{_ext(rng)}({c});"]
            out.append(_function(name, f"struct stats *st, int {c}", body))
            continue
        if kind == "stat_u":
            body = [f"{_ext(rng)}({c});", f"{stat_var} = 0;"]
            out.append(_function(name, f"struct stats *st, int {c}", body))
            continue
        body = [f"int {t};", f"{t} = {_ext(rng)}({c});"]
        if kind == "guard":
            body += [f"mutex_lock({lock});",
                     f"o->f{k} = {t} + {n};",
                     f"{_ext(rng)}(o, {t});",
                     f"mutex_unlock({lock});",
                     f"while ({c} > {n}) {{",
                     f"    {c} = {c} - 1;",
                     f"    {_ext(rng)}({c});",
                     "}"]
        elif kind == "nested":
            outer, inner = sorted(rng.sample(locks, 2))
            body += [f"mutex_lock(&{outer});",
                     f"o->f{k} = {t};",
                     f"if ({c} > {n}) {{",
                     f"    mutex_lock(&{inner});",
                     f"    o->g{k} = {t} + {c};",
                     f"    {_ext(rng)}(o);",
                     f"    mutex_unlock(&{inner});",
                     "}",
                     f"mutex_unlock(&{outer});"]
        elif kind == "leak":
            body += [f"mutex_lock({lock});",
                     f"o->f{k} = {t};",
                     f"if ({c} > {n}) {{",
                     f"    {_ext(rng)}(o);",
                     "    return;",
                     "}",
                     f"mutex_unlock({lock});"]
            answer[held_at_exit(lock)] += 1
        elif kind == "dlock":
            body += [f"mutex_lock({lock});",
                     f"o->f{k} = {t};",
                     f"{_ext(rng)}({c});",
                     f"mutex_lock({lock});",
                     f"o->g{k} = {t} + 1;",
                     f"mutex_unlock({lock});"]
            answer[double_lock(lock)] += 1
        elif kind == "dead":
            body += [f"if ({c} > {n}) {{",
                     f"    o->f{k} = {t};",
                     "    return;",
                     f"    o->g{k} = {t} + 2;",
                     f"    {_ext(rng)}(o);",
                     "}",
                     f"{_ext(rng)}(o, {t});"]
            answer[UNREACHABLE] += 1
        elif kind == "semi":
            body += [f"if ({c} == {n});",
                     f"mutex_lock({lock});",
                     f"o->f{k} = {t} - {c};",
                     f"mutex_unlock({lock});"]
            answer[SEMICOLON] += 1
        out.append(_function(name, f"struct obj *o, int {c}", body))
    return Source(f"{tag}.c", "\n".join(out), answer)


def generate_wide(seed: int, files: int, functions: int) -> list[Source]:
    rng = random.Random(f"wide:{seed}")
    return [_wide_file(rng, f"w{i:02d}", functions) for i in range(files)]


# -- deep ------------------------------------------------------------------

def _fanout_chain(rng: random.Random, prefix: str, depth: int,
                  fanout: int) -> list[str]:
    """Levels 0..depth; each level holds its own lock while calling the
    next level `fanout` times. Balanced and acyclic: no finding."""
    out = []
    for level in range(depth + 1):
        body = [f"mutex_lock(&{prefix}_lv{level});",
                f"p->w{level} = p->w{level} + {rng.randint(1, 9)};"]
        if level < depth:
            body += [f"{prefix}_{level + 1}(p->next);"] * fanout
        else:
            body.append(f"{_ext(rng)}(p);")
        body.append(f"mutex_unlock(&{prefix}_lv{level});")
        out.append(_function(f"{prefix}_{level}", "struct node *p", body))
    return out


def _leak_chain(rng: random.Random, prefix: str, depth: int) -> list[str]:
    """Fan-out-1 chain whose last function takes a lock and returns with
    it held; the root (level 0) is the only call-graph root."""
    out = []
    for level in range(depth + 1):
        if level < depth:
            body = [f"{_ext(rng)}(v);", f"{prefix}_{level + 1}(v);"]
        else:
            body = [f"mutex_lock(&{prefix}_mx);", f"{_ext(rng)}(v);"]
        out.append(_function(f"{prefix}_{level}", "int v", body))
    return out


def _inversion(rng: random.Random, prefix: str, depth: int) -> list[str]:
    """Two roots taking locks a and b in opposite orders; the inner lock
    is taken `depth` calls below each root."""
    out = []
    for side, held, taken in (("a", "oa", "ob"), ("b", "ob", "oa")):
        out.append(_function(f"{prefix}_{side}0", "int v", [
            f"mutex_lock(&{prefix}_{held});",
            f"{prefix}_{side}1(v);",
            f"mutex_unlock(&{prefix}_{held});"]))
        for level in range(1, depth):
            out.append(_function(f"{prefix}_{side}{level}", "int v", [
                f"{_ext(rng)}(v);", f"{prefix}_{side}{level + 1}(v);"]))
        out.append(_function(f"{prefix}_{side}{depth}", "int v", [
            f"mutex_lock(&{prefix}_{taken});",
            f"{_ext(rng)}(v);",
            f"mutex_unlock(&{prefix}_{taken});"]))
    return out


def generate_deep(seed: int, chains: list, leak_depths: list,
                  inversion_depths: list, cut_depth: int,
                  beyond_cut: int) -> list[Source]:
    """One file per fan-out chain (depth, fan-out), each with leak chains
    of the given depths and one inversion at the given depth, plus one
    file whose leak lies `beyond_cut` calls below the call-depth cut."""
    rng = random.Random(f"deep:{seed}")
    sources = []
    for i, (depth, fanout) in enumerate(chains):
        tag = f"d{i:02d}"
        answer: Counter = Counter()
        parts = _fanout_chain(rng, f"{tag}_fo", depth, fanout)
        for j, leak_depth in enumerate(leak_depths[i]):
            prefix = f"{tag}_lk{j}"
            parts += _leak_chain(rng, prefix, leak_depth)
            answer[held_at_exit(f"&{prefix}_mx")] += 1
        prefix = f"{tag}_inv"
        parts += _inversion(rng, prefix, inversion_depths[i])
        answer[lock_cycle(f"{prefix}_oa", f"{prefix}_ob")] += 1
        rng.shuffle(parts)
        text = f"/* generated: deep file {tag} */\n\n" + "\n".join(parts)
        sources.append(Source(f"{tag}.c", text, answer))

    # A leak planted below the call-depth cut: a sound analysis reports
    # it, the depth-bounded supergraph does not.
    prefix = "dcut_lk"
    parts = _leak_chain(rng, prefix, cut_depth + beyond_cut)
    rng.shuffle(parts)
    text = "/* generated: deep file dcut, leak below the call-depth cut */\n\n"
    sources.append(Source("dcut.c", text + "\n".join(parts),
                          Counter({held_at_exit(f"&{prefix}_mx"): 1})))
    return sources


# -- nest ------------------------------------------------------------------

def _long_sum(rng: random.Random, target: str, k: int, terms: int) -> str:
    parts = [target]
    for i in range(terms - 1):
        op = rng.choice("+-")
        shape = i % 4
        if shape == 0:
            parts.append(f"{op} a{k} * {rng.randint(2, 9)}")
        elif shape == 1:
            parts.append(f"{op} {_ext(rng)}(b{k})")
        elif shape == 2:
            parts.append(f"{op} r->m{rng.randint(0, 9)}")
        else:
            parts.append(f"{op} {rng.randint(1, 99)}")
    return f"{target} = " + " ".join(parts) + ";"


def _nest_function(rng: random.Random, name: str, k: int, kind: str,
                   depth: int, terms: int, tag: str,
                   answer: Counter) -> str:
    """A function whose body nests `depth` levels of if/while around a
    long sum; `kind` picks what is planted at the innermost level."""
    v = f"v{k}"
    innermost = [_long_sum(rng, v, k, terms)]
    lock = None
    if kind == "guarded":
        lock = f"&{tag}_nm{k % 3}"
    elif kind == "leak":
        leaked = f"&{tag}_lk{k}"
        innermost.append(f"mutex_lock({leaked});")
        answer[held_at_exit(leaked)] += 1
    elif kind == "dead":
        innermost += ["return;", f"{v} = {v} + 2;"]
        answer[UNREACHABLE] += 1
    elif kind == "semi":
        innermost.insert(0, f"if (a{k} == {rng.randint(3, 40)});")
        answer[SEMICOLON] += 1
    elif kind in ("stat_w", "stat_u"):
        stat_var = f"r->hits_{tag}"
        innermost += [f"{stat_var} = {stat_var} + 1;"] * (
            3 if kind == "stat_w" else 1)
        if kind == "stat_w":
            lock = f"&{tag}_stat_mx"

    # a leaked lock inside a loop would also be a double lock
    loops_allowed = kind != "leak"
    block = innermost
    for level in reversed(range(depth)):
        n = rng.randint(1, 50)
        if loops_allowed and level % 3 == 1:
            head = f"while (b{k} > {n}) {{"
            step = [f"b{k} = b{k} - 1;"]
        else:
            head = f"if (a{k} > {n}) {{"
            step = [f"{v} = {v} + {level};"]
        block = [head] + _indent(step + block) + ["}"]
    body = [f"int {v};"]
    if lock:
        body.append(f"mutex_lock({lock});")
    body += [f"{v} = a{k};"] + block + [f"{_ext(rng)}({v});"]
    if lock:
        body.append(f"mutex_unlock({lock});")
    return _function(name, f"struct rec *r, int a{k}, int b{k}", body)


def _hostile(rng: random.Random, tag: str, shape: str, size: int) -> Source:
    leaked = f"&{tag}_mx"
    leak = _function(f"{tag}_leak", "int v",
                     [f"mutex_lock({leaked});", f"{_ext(rng)}(v);"])
    if shape == "if":
        # unindented: the shape under test is the nesting, not whitespace
        block = ([f"if (x > {level}) {{" for level in range(size)]
                 + ["x = x + 1;"] + ["}"] * size)
        deep = _function(f"{tag}_nested", "int x", block)
    else:
        deep = _function(f"{tag}_sum", "int x",
                         ["x = " + " + ".join(["x"] * size) + ";"])
    text = f"/* generated: hostile nest file {tag} ({shape}, {size}) */\n\n"
    return Source(f"{tag}.c", text + leak + "\n" + deep,
                  Counter({held_at_exit(leaked): 1}), hostile=True)


def generate_nest(seed: int, files: int, functions: int, depth: int,
                  terms: int, hostile_if_depth: int,
                  hostile_terms: int) -> list[Source]:
    rng = random.Random(f"nest:{seed}")
    sources = []
    for i in range(files):
        tag = f"n{i:02d}"
        answer: Counter = Counter()
        planted = ["leak", "dead", "semi", "stat_w", "stat_w", "stat_w",
                   "stat_u"]
        kinds = planted + ["guarded"] * max(0, functions - len(planted))
        rng.shuffle(kinds)
        answer[unlocked_access(f"r->hits_{tag}", f"&{tag}_stat_mx", 9, 10)] += 1
        parts = [_nest_function(rng, f"{tag}_{kind}_{k}", k, kind, depth,
                                terms, tag, answer)
                 for k, kind in enumerate(kinds)]
        text = f"/* generated: nest file {tag} */\n\n" + "\n".join(parts)
        sources.append(Source(f"{tag}.c", text, answer))
    sources.append(_hostile(rng, "nx_if", "if", hostile_if_depth))
    sources.append(_hostile(rng, "nx_sum", "sum", hostile_terms))
    return sources


GENERATORS = {"wide": generate_wide, "deep": generate_deep,
              "nest": generate_nest}


def generate(workload: str, seed: int,
             params: dict | None = None) -> list[Source]:
    params = PARAMS[workload] if params is None else params
    return GENERATORS[workload](seed, **params)


def write_workload(sources: list[Source], directory: str) -> str:
    """Write the sources and a manifest of their answers; returns the
    manifest path. The directory must exist and is assumed empty."""
    manifest = []
    for source in sources:
        with open(os.path.join(directory, source.name), "w",
                  encoding="utf-8", newline="\n") as handle:
            handle.write(source.text)
        manifest.append({
            "file": source.name,
            "lines": source.lines,
            "hostile": source.hostile,
            "answer": sorted([*key, count]
                             for key, count in source.answer.items()),
        })
    path = os.path.join(directory, "answers.json")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
