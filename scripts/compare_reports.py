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
not exported. Where more than one CPU is usable, the engine splits a
multi-file job into shards that forked workers check, so the groups
exercise the shards. The two outputs are
compared line by line: on any difference the first differing lines
are printed and the exit code is 1; otherwise it is 0. Given FILEs
form one group. Without FILE, the files are `tests/corpus/*.c`, the
wide, deep and nest workloads of seeds 1-10, which
`perfbench/workloads.py` writes into a directory per workload and seed
under a temporary directory, and, when `cpp` is on PATH, each corpus
file as `cpp` writes it, line markers kept, so the lexer's line-marker
path is compared too; without `cpp` that set is skipped, and a line
says so. The groups are then the corpus, each workload directory and
the `cpp` set.
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
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import run_job
from cbugscan.report import export_console, export_json

checkers = [(name, None) for name in ("automaton", "lockstat", "thread", "reach")]
for paths in json.load(sys.stdin):
    result = run_job(AnalysisJob(sources=[SourceDescriptor(p) for p in paths],
                                 checkers=checkers))
    sys.stdout.write(f"== {' '.join(paths)}\n" + export_json(result.traces)
                     + export_console(result.traces))
    for diagnostic in result.diagnostics:
        sys.stdout.write(f"diagnostic: {diagnostic}\n")
"""

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
                          input=json.dumps(jobs), capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(f"{tree}: exit {done.returncode}\n{done.stderr}")
        raise SystemExit(2)
    return done.stdout.splitlines()


def default_groups(directory: str) -> list[list[str]]:
    """The corpus files, then each workload and seed written into a
    directory of its own under `directory`, then the corpus files as
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
              f"jobs, {len(old)} lines")
        return 0
    diff = list(difflib.unified_diff(old, new, old_tree, new_tree, lineterm=""))
    print("\n".join(diff[:SHOWN_LINES]))
    if len(diff) > SHOWN_LINES:
        print(f"... {len(diff) - SHOWN_LINES} more diff lines")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
