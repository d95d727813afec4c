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
or the `FrontendError` that building the unit raises, so the two
frontends and CFG layers are compared tree for tree and graph for
graph, not only by what the checkers report. Before the jobs, the
config parsers of the automaton, lockstat and thread checkers each
read every text of `BAD_CONFIGS`, malformed configs that reach every
error the config reader and their directives raise, and the
`ConfigError` each raises is printed, so config error texts are
compared too. Where more than one CPU
is usable, the engine splits a multi-file job into shards that forked
workers check, so the groups exercise the shards. The two outputs are
compared line by line: on any difference the first differing lines
are printed and the exit code is 1; otherwise it is 0. Given FILEs
form one group. Without FILE, the files are `tests/corpus/*.c`, the
wide, deep and nest workloads of seeds 1-10, which
`perfbench/workloads.py` writes into a directory per workload and seed
under a temporary directory, and, when `cpp` is on PATH, each corpus
file as `cpp` writes it, line markers kept, so the lexer's line-marker
path is compared too; without `cpp` that set is skipped, and a line
says so. The programs of `CALL_PROBES` and of `ALIAS_PROBES` are
written into a directory each, for what neither the corpus nor the
workloads hold: `CALL_PROBES` are small programs around calls that
never return, where a checker must know what such a call cuts off and
what it does not, and around cycles of calls (one no other function
calls, one entered from outside, one that only a dead call closes),
where the automaton must know which functions to judge at exit;
`ALIAS_PROBES` pass one object under two names, so that two of a
callee's keys become one key of the caller and the automaton solves a
variant summary of the callee with those keys merged, which no corpus
file or workload does. The groups are then the corpus, each workload
directory, the two probe sets and the `cpp` set.
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
            dot = "\n".join(map(cfg_to_dot, load_unit(paths[0]).cfgs.values()))
        except FrontendError as err:
            dot = f"FrontendError: {err.message} at {err.location}"
        sys.stdout.write(f"cfg: {dot}\n")
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
    AUTOMATON_HEAD + "transition U q -> L\n",
    AUTOMATON_HEAD + "transition U p -> M\n",
    AUTOMATON_HEAD + "error-at-exit M x\n",
    "automaton a\nstart U\nautomaton b\nfrobnicate\n",
    "automaton a\nstates U\nautomaton b\n",
    "automaton a\nstates U\nstart V\n", "automaton a\nstates <absent>\n",
    "access x\nthreshold 7/x\n", "access x\nthreshold 1/0\n",
    "access x\nthreshold 0\n", "access x\nthreshold 1.5\n",
    "access x\nthreshold 1\n", "min-samples five\n", "min-samples 0\n",
    "access x y\n", 'access "f(("\n', "lock x unlock\n",
    'lock "g()" unlock "h()"\n\nlock "f(("\n', 'lock "f()" unlock "g(("\n',
    "unlock x y\n", "lock x\n", "max-cycles many\n", "max-cycles 0\n",
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
}
# The alias group's files by name; each passes one object under two names.
PAIR = "struct mutex *p, struct mutex *q"
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
    into `directory/calls` and `ALIAS_PROBES` into `directory/aliases`,
    then the corpus files as `cpp` writes them, into `directory/cpp`:
    one group each."""
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
    for name, programs in (("calls", CALL_PROBES), ("aliases", ALIAS_PROBES)):
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
    if old == new:
        print(f"identical: {sum(map(len, groups))} files in {len(jobs)} "
              f"jobs and {len(BAD_CONFIGS)} configs, {len(old)} lines")
        return 0
    diff = list(difflib.unified_diff(old, new, old_tree, new_tree, lineterm=""))
    print("\n".join(diff[:SHOWN_LINES]))
    if len(diff) > SHOWN_LINES:
        print(f"... {len(diff) - SHOWN_LINES} more diff lines")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
