#!/usr/bin/env python3
"""Check that two source trees of cbugscan report the same on C files.

    python3 scripts/compare_reports.py OLD_SRC NEW_SRC [FILE...]

OLD_SRC and NEW_SRC are each a checkout, its `src` directory, or a git
revision of this repository (such as `HEAD`), which is exported with
`git archive` into a temporary directory. For each tree, a fresh
interpreter runs all four checkers with their bundled configs over
every FILE, one job per file, and then over each group of files as one
multi-file job, and prints the JSON report (findings, witness steps,
ids), the console report and the diagnostics of every job; the console
report is rendered without reading an id, the path of a check that is
not exported. After each one-file job it also prints the file's syntax
tree as `cbugscan dump-ast` does (`dump_sexpr`), or the message and
location of the `FrontendError` that parsing it raises, and the CFG
of every function as DOT, as `cbugscan dump-cfg` does (`cfg_to_dot`),
or the `FrontendError` that building the unit raises, and then, under a
`graph:` line, the unit's call graph: each of `unit.call_graph.edges`
as its caller, node id, callee and whether it is external, each call of
`build_supergraph(unit).calls` as its node id, callee and actuals'
`Path.text()`, the components `sccs`, and `recursive` sorted, and then,
under a `summaries:` line, the bundled automaton's function summaries
over the unit (`automaton._Summaries(...).solved`): for each (function,
variant) in sorted order its `returns`, `keys` and `dead`, then, per
entry state, each key's exit states with their witness steps
(`location description`, joined by `; `) and each error's message,
location and witness steps. So the two frontends, CFG layers, call
graphs and summaries are compared tree for tree, graph for graph and
witness for witness, not only by what the checkers report. Before the
jobs, the config parsers of the automaton, lockstat and thread checkers
each read every text of `BAD_CONFIGS`, malformed configs that reach
every error the config reader and their directives raise, repeated
single-value directives included, and the `ConfigError` each raises is
printed, so config error texts are compared too. Where more than one CPU
is usable, the engine splits a multi-file job into shards that forked
workers check, so the groups exercise the shards. The two outputs are
split at the config block and at each job's `== PATHS` header line and
compared part by part (`job_diffs`): for the config block and each job
whose lines differ, its name (`differs: PATHS`, generated files' paths
shown from the temporary directory) and the first 40 lines of its own
unified diff are printed, then a last line `N of M jobs differ`, and
the exit code is 1; otherwise it is 0. Given FILEs
form one group. Without FILE, the files are `tests/corpus/*.c`, the
wide, deep and nest workloads of seeds 1-10, which
`perfbench/workloads.py` writes into a directory per workload and seed
under a temporary directory, and, when `cpp` is on PATH, each corpus
file as `cpp` writes it, line markers kept, so the lexer's line-marker
path is compared too; without `cpp` that set is skipped, and a line
says so. The programs of `CALL_PROBES`, `ALIAS_PROBES`, `THREAD_PROBES`
and `LEXER_PROBES` are written into a directory each, for what neither
the corpus nor the workloads hold: `CALL_PROBES` are small programs
around calls that never return, where a checker must know what such a
call cuts off and what it does not, and around cycles of calls (one no
other function calls, one entered from outside, one that only a dead
call closes), where the automaton must know which functions to judge at
exit, and around a callee's own storage (its local's or formal's
address, also passed down to a further callee), which dies at the
callee's return and is judged at its exit; `ALIAS_PROBES` pass one
object under two names, so that two of a callee's keys become one key
of the caller and the automaton solves a variant summary of the callee
with those keys merged, which no corpus file or workload does, and one
passes it to a pointer-valued local, whose key keeps the callee's
terms; the `deref_` ones fill a formal's hole under `*` with an address,
where `*&x` is `x`, and the `fold_` ones spell one object two ways, each
written so or made by filling a formal at a call, where `*&x`, `(&x)[0]`,
`&*x` and `&x[0]` are `x`, `(&x)->f` is `x.f` and `(*p).f` is `p->f`:
one access path (`ast_nodes.Path`), so one key.
`THREAD_PROBES` are lock-order graphs whose cycles a search over every
simple path lists slowly: a ladder of locks with 2^15 cycles, which a
search from its first lock must leave without closing any, every order
of 8 locks, and 200 disjoint pairs of locks taken in both orders; and
one deadlock whose lock one function spells `&s->mux` and the other
`&(*s).mux`, one lock `s->mux`.
`LEXER_PROBES` are long generated files full of comments, continued
strings, directives and line markers, which move the lexer's line and
file, and two whose lexical error lies far past a syntax error or a
nest too deep to parse, which the lexical error must still win over.
The groups are then the corpus, each workload directory, the four
probe sets and the `cpp` set.
Standard library only.
"""

import difflib
import glob
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

CHILD = r"""
import json
import sys
from cbugscan.checkers import automaton, builtin_registry
from cbugscan.checkers.automaton import parse_automaton_file
from cbugscan.checkers.lockstat import parse_lockstat_config
from cbugscan.checkers.threads import parse_thread_config
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import run_job
from cbugscan.errors import ConfigError, FrontendError
from cbugscan.frontend import dump_sexpr, parse, preprocess_source
from cbugscan.ir.cfg import cfg_to_dot
from cbugscan.ir.units import load_unit
from cbugscan.report import export_console, export_json
from cbugscan.traverse import build_supergraph

parsers = {"automaton": parse_automaton_file, "lockstat": parse_lockstat_config,
           "thread": parse_thread_config}
request = json.load(sys.stdin)
for text in request["configs"]:
    for name, parse_config in parsers.items():
        try:
            parse_config(text, "c.conf")
            error = "none"
        except ConfigError as err:
            error = str(err)
        sys.stdout.write(f"config {name} {text!r}: {error}\n")
checkers = [(name, None) for name in ("automaton", "lockstat", "thread", "reach")]
auto, = builtin_registry().create("automaton").automata


def steps(witness):
    return "; ".join(f"{step.location} {step.description}"
                     for step in automaton._steps(witness))


for paths in request["jobs"]:
    result = run_job(AnalysisJob(sources=[SourceDescriptor(p) for p in paths],
                                 checkers=checkers))
    sys.stdout.write(f"== {' '.join(paths)}\n" + export_json(result.traces)
                     + export_console(result.traces))
    for diagnostic in result.diagnostics:
        sys.stdout.write(f"diagnostic: {diagnostic}\n")
    if len(paths) == 1:
        try:
            tree = dump_sexpr(parse(preprocess_source(paths[0]), paths[0]))
        except FrontendError as err:
            tree = f"FrontendError: {err.message} at {err.location}"
        sys.stdout.write(f"sexpr: {tree}\n")
        try:
            unit = load_unit(paths[0])
        except FrontendError as err:
            sys.stdout.write(
                f"cfg: FrontendError: {err.message} at {err.location}\n")
            continue
        dot = "\n".join(map(cfg_to_dot, unit.cfgs.values()))
        sys.stdout.write(f"cfg: {dot}\ngraph:\n")
        for edge in unit.call_graph.edges:
            sys.stdout.write(f"edge {edge.caller} {edge.node_id} "
                             f"{edge.callee} {edge.external}\n")
        graph = build_supergraph(unit)
        for node_id, sites in graph.calls.items():
            for callee, actuals in sites:
                sys.stdout.write(f"call {node_id} {callee}"
                                 f"({', '.join(p.text() for p in actuals)})\n")
        sys.stdout.write(f"sccs {graph.sccs}\n"
                         f"recursive {sorted(graph.recursive)}\n"
                         "summaries:\n")
        solved = automaton._Summaries(auto, unit, unit.call_graph).solved
        for fn, variant in sorted(solved):
            summary = solved[fn, variant]
            sys.stdout.write(f"summary {fn} {variant} returns {summary.returns}"
                             f" keys {summary.keys} dead {summary.dead}\n")
            for state, instances in summary.exits.items():
                for key, inst in instances.items():
                    for target, witness in inst.states.items():
                        sys.stdout.write(f"exit {state} {key} {target}: "
                                         f"{steps(witness)}\n")
                for key, errors in summary.errors[state].items():
                    for (message, location), error in errors.items():
                        sys.stdout.write(f"error {state} {key} {message!r} "
                                         f"at {location}: "
                                         f"{steps(error.steps)}\n")
"""

# Each is read by all three config parsers: the reader's own errors,
# then each directive's, then the errors a whole config can have.
AUTOMATON_HEAD = 'automaton a\nstates U L\nstart U\npattern p "f()"\n'
BAD_CONFIGS = [
    "", "# comment only\n", 'x "unterminated\n', "  frobnicate  x  # c\n",
    "states U\n", 'pattern p "f(("\n', "frobnicate\nautomaton a\n",
    "automaton a b\n", "automaton a\nstates\n",
    'automaton a\nstates s\nstart s\npattern p "f(("\n',
    AUTOMATON_HEAD + "transition U p L\n",
    AUTOMATON_HEAD + "transition U p -> L\nerror U p x\n",
    AUTOMATON_HEAD + "error U p x\ntransition U p -> L\n",
    AUTOMATON_HEAD + "error-at-exit L x\nerror-at-exit L y\n",
    AUTOMATON_HEAD + "start L\n", "automaton a\nstates U L U\n",
    "automaton a\nstates U L\nstates L\n",
    AUTOMATON_HEAD + "transition U q -> L\n",
    AUTOMATON_HEAD + "transition U p -> M\n",
    AUTOMATON_HEAD + "error-at-exit M x\n",
    "automaton a\nstart U\nautomaton b\nfrobnicate\n",
    "automaton a\nstates U\nautomaton b\n",
    "automaton a\nstates U\nstart V\n", "automaton a\nstates <absent>\n",
    "access x\nthreshold 7/x\n", "access x\nthreshold 1/0\n",
    "access x\nthreshold 0\n", "access x\nthreshold 1.5\n",
    "access x\nthreshold 1\n", "access x\nthreshold 1/2\nthreshold 1\n",
    "min-samples 2\nmin-samples 3\n", "min-samples five\n", "min-samples 0\n",
    "access x y\n", 'access "f(("\n', "lock x unlock\n",
    'lock "g()" unlock "h()"\n\nlock "f(("\n', 'lock "f()" unlock "g(("\n',
    "unlock x y\n", "lock x\n", "max-cycles 2\nmax-cycles 3\n",
    "max-cycles many\n", "max-cycles 0\n",
    "max-cycles 1 2\n", 'spawn "run(%G)"\n', 'spawn "run(("\n',
    "entry a b\n", "entry a\n",
]
# The probe group's files by name; `die` never returns.
DIE = "void die(void) { for (;;) {} }\n"
CYCLE = ("void a(int c) { mutex_lock(&m); if (c) b(c - 1); }\n"
         "void b(int c) { if (c) a(c); }\n")
CALL_PROBES = {
    # f returns only at its recursion's bottom, which releases g's lock
    "bottom.c": "void f(int c) { if (c) { mutex_unlock(&m); return; } f(c); }\n"
                "void g(void) { mutex_lock(&m); f(1); }\n",
    "die_then_call.c": DIE + "void g(void) { mutex_lock(&m); }\n"
                             "void f(void) { die(); g(); }\n",
    "die_in_args.c": DIE + "void g(void) { mutex_lock(&m); }\n"
                           "void f(void) { use(die(), g()); }\n",
    "die_then_lock.c": DIE + "void h(void) { die(); mutex_lock(&m); }\n",
    "mutual.c": "void a(void) { b(); }\nvoid b(void) { a(); }\n"
                "void k(void) { mutex_lock(&n); }\n"
                "void h(void) { mutex_lock(&m); a(); mutex_unlock(&m); "
                "k(); }\n",
    # a and b call each other, and nothing else calls either
    "cycle.c": CYCLE,
    "cycle_entered.c": CYCLE + "void f(void) { a(1); }\n",
    # f3 returns before its call to f1, which closes no cycle
    "dead_cycle.c": "void f1(void) { mutex_lock(&m); f3(); }\n"
                    "void f3(void) { for (;;) { return; } f1(); }\n"
                    "void f0(void) { f3(); }\n",
    # a callee's own storage dies at its return: each call locks its own
    # x, and the leak is g's, judged at g's exit
    "own_local.c": "void g(void) { struct mutex x; mutex_lock(&x); }\n"
                   "void f(void) { g(); g(); }\n",
    "own_twice.c": "void g(void) { int x; mutex_unlock(&x); } "
                   "void f(void) { g(); }\n",
    "own_through.c": "void h(struct mutex *p) { mutex_lock(p); }\n"
                     "void g(void) { struct mutex x; h(&x); }\n"
                     "void f(void) { g(); g(); }\n",
    "own_formal.c": "void g(struct mutex *p) { mutex_lock(&p); }\n"
                    "void f(void) { g(&m); g(&m); }\n",
}
# The alias group's files by name; each passes one object under two
# names, but the `deref_` ones, where a formal under `*` is given an
# address, and the `fold_` ones, which spell one object two ways.
PAIR = "struct mutex *p, struct mutex *q"
DEREF = ("void h(struct mutex **p) { mutex_lock(*p); }\n"
         "void g(struct mutex *q) { h(&q); }\n")
FIELD = "void h(struct s *p) { mutex_lock(&p->m); }\n"
ALIAS_PROBES = {
    "take_twice.c": f"void take({PAIR}) {{ mutex_lock(p); mutex_lock(q); }}\n"
                    "void f(void) { take(&m, &m); }\n",
    # six calls deep, each passing its pair on
    "chain.c": "".join(f"void f{i}({PAIR}) {{ f{i + 1}(p, q); }}\n"
                       for i in range(5))
               + f"void f5({PAIR}) {{ mutex_lock(p); mutex_unlock(q); "
                 "mutex_unlock(p); }\n"
                 "void root(void) { f0(&a, &a); }\n",
    "recursion.c": f"void f({PAIR}, int c) {{ mutex_lock(p); mutex_lock(q); "
                   "if (c) f(q, q, c - 1); mutex_unlock(q); mutex_unlock(p); }\n"
                   "void root(void) { f(&a, &b, 3); }\n",
    "local.c": f"void g({PAIR}) {{ struct mutex mine; mutex_lock(&mine); "
               "mutex_lock(p); mutex_unlock(q); }\n"
               "void f(void) { g(&m, &m); }\n",
    "three.c": f"void g({PAIR}, struct mutex *r) {{ mutex_lock(p); "
               "mutex_lock(r); mutex_unlock(q); mutex_lock(q); }\n"
               "void f(void) { g(&a, &b, &a); }\n",
    "global.c": "struct mutex m;\n"
                "void g(struct mutex *p) { mutex_lock(p); mutex_lock(&m); }\n"
                "void f(void) { g(&m); mutex_unlock(&m); }\n",
    # through a pointer-valued local, whose key keeps the callee's terms
    "pointer_local.c": "void g(struct mutex *p) { struct mutex *q; q = p; "
                       "mutex_lock(q); }\n"
                       "void f(void) { g(&m); mutex_unlock(&m); }\n",
    # a formal's hole under `*` filled by an address: `*&x` is x itself
    "deref_local.c": "void h(int *p) { mutex_lock(*p); }\n"
                     "void g(void) { int x; h(&x); }\n"
                     "void f(void) { g(); g(); }\n",
    "deref_balanced.c": DEREF + "void f(void) { g(&m); mutex_unlock(&m); }\n",
    "deref_twice.c": DEREF + "void f(void) { g(&m); g(&m); }\n",
    # `*&E` is E and `(&E)->f` is E.f, written so or made by a call
    "fold_deref.c": "void f(void) { mutex_lock(*&m); mutex_unlock(m); }\n",
    "fold_arrow.c": "void f(void) { struct s x; mutex_lock(&(&x)->m); "
                    "mutex_unlock(&x.m); }\n",
    "fold_call.c": FIELD + "void f(void) { h(&a); mutex_unlock(&a.m); }\n",
    "fold_local.c": FIELD + "void g(void) { struct s x; h(&x); }\n"
                            "void f(void) { g(); g(); }\n",
    # `(&E)[0]` is E, written so or made by filling h's hole with &m
    "fold_index.c": "struct mutex x; void f(void) { mutex_lock(&(&x)[0]); "
                    "mutex_unlock(&x); }\n",
    "fold_index_call.c": "void h(struct mutex *p) { mutex_lock(&p[0]); }\n"
                         "void f(void) { h(&m); mutex_unlock(&m); }\n",
    # `&*p` is p, `(*p).m` is p->m and `&a[0]` is a, written so or made by
    # filling h's hole
    "fold_addr_deref.c": "void f(struct mutex *p) { mutex_lock(&*p); "
                         "mutex_unlock(p); }\n",
    "fold_addr_deref_call.c": "void h(struct mutex *p) { mutex_lock(&*p); }\n"
                              "void f(void) { h(&m); mutex_unlock(&m); }\n",
    "fold_deref_field.c": "void f(struct s *p) { mutex_lock(&(*p).m); "
                          "mutex_unlock(&p->m); }\n",
    "fold_deref_field_call.c": "void h(struct s *p) { mutex_lock(&(*p).m); }\n"
                               "void f(void) { h(&x); mutex_unlock(&x.m); }\n",
    "fold_addr_index.c": "void f(void) { struct mutex a[4]; mutex_lock(a); "
                         "mutex_unlock(&a[0]); }\n",
    "fold_addr_index_call.c": "struct mutex a[4];\n"
                              "void h(struct mutex *p) { mutex_lock(&p[0]); }\n"
                              "void f(void) { h(a); mutex_unlock(a); }\n",
}


def ordered(pairs) -> str:
    """One function for each (first, second) of `pairs` that takes the
    first lock, then the second."""
    return "".join(
        f"void o{i}(void) {{ mutex_lock(&{a}); mutex_lock(&{b}); "
        f"mutex_unlock(&{b}); mutex_unlock(&{a}); }}\n"
        for i, (a, b) in enumerate(pairs))


def ladder(n: int) -> str:
    """Locks `a` and `l01x` ordered both ways, then layers 1..n of two
    locks each, both ordered before both of the next layer, and the last
    layer's before `l01x`: 2^(n-1) cycles through the ladder, and a search
    from `a` that leaves them all closes none of them."""
    layers = [(f"l{i:02d}x", f"l{i:02d}y") for i in range(1, n + 1)]
    return ordered([("a", "l01x"), ("l01x", "a")]
                   + [(x, y) for low, high in zip(layers, layers[1:])
                      for x in low for y in high]
                   + [(x, "l01x") for x in layers[-1]])


# The thread group's files by name: lock-order graphs whose cycles a
# search that walks every simple path would list slowly, and a deadlock
# whose lock is spelled two ways.
THREAD_PROBES = {
    "ladder.c": ladder(16),
    "complete.c": ordered((f"k{i}", f"k{j}") for i in range(8)
                          for j in range(8) if i != j),
    "pairs.c": ordered(pair for i in range(200) for pair in (
        (f"p{i}a", f"p{i}b"), (f"p{i}b", f"p{i}a"))),
    # one deadlock, one of its locks spelled `&s->mux` and `&(*s).mux`
    "spellings.c": "void f(struct st *s) { mutex_lock(&big); "
                   "mutex_lock(&s->mux); mutex_unlock(&s->mux); "
                   "mutex_unlock(&big); }\n"
                   "void g(struct st *s) { mutex_lock(&(*s).mux); "
                   "mutex_lock(&big); mutex_unlock(&big); "
                   "mutex_unlock(&(*s).mux); }\n",
}


def _functions_between(between, count: int = 300) -> str:
    """`count` small locking functions, the text `between(i)` before the
    i-th: tens of KB, so that what `between` spans sets the lines and
    files of hundreds of tokens after it."""
    return "".join(
        between(i) + f"void f{i}(int c) {{ mutex_lock(&m{i % 7}); "
        f"if (c) return; mutex_unlock(&m{i % 7}); }}\n"
        for i in range(count))


def _comment(i: int) -> str:
    return "/*" + " comment\n" * (i % 9 + 1) + " */ "


def _string(i: int) -> str:
    return (f'void s{i}(void) {{ log("a\\\n' + "b\\\n" * (i % 5)
            + 'c"); }\n')


def _directive(i: int) -> str:
    return (f'# {i * 10 + 1} "dir/h{i % 3}.h" 2\n', "#pragma once\n",
            f"#line {i + 40}\n")[i % 3]


# The lexer group's files by name. The last two hold a lexical error far
# past an earlier syntax error, or past a nest too deep to parse, so a
# file is lexed to its end before either of those is reported.
FILLER = _functions_between(lambda i: "", 120)
LEXER_PROBES = {
    "comments.c": _functions_between(_comment),
    "strings.c": _functions_between(_string),
    "directives.c": _functions_between(_directive),
    "mixed.c": _functions_between(
        lambda i: (_comment, _string, _directive)[i % 3](i)),
    "syntax_then_lexical.c": "int x = ;\n" + FILLER + "int y = @;\n",
    "nest_then_lexical.c": "void f(int c) {\n" + "if (c) {\n" * 400
                           + "}\n" * 400 + "}\n" + FILLER + "int y = @;\n",
}
SHOWN_LINES = 40
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("wide", "deep", "nest")
SEEDS = range(1, 11)


def package_dir(tree: str) -> str:
    """The directory holding the `cbugscan` package of a tree."""
    src = os.path.join(tree, "src")
    return src if os.path.isdir(os.path.join(src, "cbugscan")) else tree


def checkout(tree: str, directory: str) -> str:
    """`tree` itself when it is a directory; else the git revision
    `tree`, exported into a new directory under `directory`."""
    if os.path.isdir(tree):
        return tree
    archive = subprocess.run(["git", "-C", ROOT, "archive", tree],
                             capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(f"{tree}: not a directory or a git revision\n"
                         + archive.stderr.decode(errors="replace"))
        raise SystemExit(2)
    target = tempfile.mkdtemp(dir=directory)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target, filter="data")
    return target


def report(tree: str, jobs: list[list[str]]) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(package_dir(tree)))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          input=json.dumps({"configs": BAD_CONFIGS,
                                            "jobs": jobs}),
                          capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(f"{tree}: exit {done.returncode}\n{done.stderr}")
        raise SystemExit(2)
    return done.stdout.splitlines()


def default_groups(directory: str) -> list[list[str]]:
    """The corpus files, then each workload and seed written into a
    directory of its own under `directory`, then `CALL_PROBES` written
    into `directory/calls`, `ALIAS_PROBES` into `directory/aliases`,
    `THREAD_PROBES` into `directory/threads` and `LEXER_PROBES` into
    `directory/lexer`, then the corpus files as
    `cpp` writes them, into `directory/cpp`: one group each."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True
    import workloads
    corpus = sorted(glob.glob(os.path.join(ROOT, "tests", "corpus", "*.c")))
    groups = [corpus]
    for workload in WORKLOADS:
        for seed in SEEDS:
            target = os.path.join(directory, f"{workload}{seed}")
            os.mkdir(target)
            sources = workloads.generate(workload, seed)
            workloads.write_workload(sources, target)
            groups.append([os.path.join(target, source.name)
                           for source in sources])
    for name, programs in (("calls", CALL_PROBES), ("aliases", ALIAS_PROBES),
                           ("threads", THREAD_PROBES),
                           ("lexer", LEXER_PROBES)):
        probes = os.path.join(directory, name)
        os.mkdir(probes)
        for file_name, text in programs.items():
            with open(os.path.join(probes, file_name), "w") as out:
                out.write(text)
        groups.append([os.path.join(probes, file_name)
                       for file_name in programs])
    cpp = preprocessed(corpus, os.path.join(directory, "cpp"))
    return groups + [cpp] if cpp else groups


def preprocessed(sources: list[str], target: str) -> list[str]:
    """Each source run through `cpp` into `target`, its line markers
    kept (they name the source by its path from the repository root);
    none when `cpp` is not on PATH."""
    if shutil.which("cpp") is None:
        print("skipped: cpp is not on PATH, so no line-marker files")
        return []
    os.mkdir(target)
    outputs = []
    for source in sources:
        output = os.path.join(target, os.path.basename(source))
        subprocess.run(["cpp", os.path.relpath(source, ROOT), "-o", output],
                       cwd=ROOT, check=True)
        outputs.append(output)
    return outputs


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    old_tree, new_tree, *files = argv
    with tempfile.TemporaryDirectory() as directory:
        return compare(old_tree, new_tree, directory,
                       [files] if files else default_groups(directory))


def compare(old_tree: str, new_tree: str, directory: str,
            groups: list[list[str]]) -> int:
    """Each file of `groups` as a job of its own, then each group of
    more than one file as one job."""
    jobs = [[path] for group in groups for path in group]
    jobs += [group for group in groups if len(group) > 1]
    old = report(checkout(old_tree, directory), jobs)
    new = report(checkout(new_tree, directory), jobs)
    differences = job_diffs(old, new, old_tree, new_tree)
    if not differences:
        print(f"identical: {sum(map(len, groups))} files in {len(jobs)} "
              f"jobs and {len(BAD_CONFIGS)} configs, {len(old)} lines")
        return 0
    # the generated files' paths, shown from the temporary directory
    print("\n".join(differences).replace(directory + os.sep, ""))
    return 1


def split_jobs(lines: list[str]) -> dict[str | None, list[str]]:
    """A report's lines by part: the config block under None, then each
    job under the paths of its `== PATHS` header line."""
    parts: dict[str | None, list[str]] = {None: []}
    part = parts[None]
    for line in lines:
        if line.startswith("== "):
            part = parts[line[3:]] = []
        part.append(line)
    return parts


def job_diffs(old: list[str], new: list[str], old_name: str, new_name: str,
              shown: int = SHOWN_LINES) -> list[str]:
    """What `compare` prints for two reports of one list of jobs: for the
    config block and for each job whose lines differ, its name and the
    first `shown` lines of its own unified diff, then `N of M jobs
    differ`; nothing when the reports are the same."""
    old_parts, new_parts = split_jobs(old), split_jobs(new)
    names = [*old_parts, *(name for name in new_parts if name not in old_parts)]
    out: list[str] = []
    differing = 0
    for name in names:
        before, after = old_parts.get(name, []), new_parts.get(name, [])
        if before == after:
            continue
        differing += name is not None
        diff = list(difflib.unified_diff(before, after, old_name, new_name,
                                         lineterm=""))
        out += [f"differs: {'configs' if name is None else name}",
                *diff[:shown]]
        if len(diff) > shown:
            out.append(f"... {len(diff) - shown} more diff lines")
    if out:
        out.append(f"{differing} of {len(names) - 1} jobs differ")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
