#!/usr/bin/env python3
"""Check that two source trees of cbugscan report the same on C files.

    python3 scripts/compare_reports.py OLD_SRC NEW_SRC [FILE...]

OLD_SRC and NEW_SRC are each a checkout, its `src` directory, or a git
revision of this repository (such as `HEAD`), which is exported with
`git archive` into a temporary directory. For each tree, a fresh
interpreter runs all four checkers with their bundled configs over
every FILE, one job per file, and prints the JSON report (findings,
witness steps, ids) and the diagnostics. The two outputs are
compared line by line: on any difference the first differing lines are
printed and the exit code is 1; otherwise it is 0. Without FILE, the
files are `tests/corpus/*.c`, the wide, deep and nest workloads of
seeds 1-10, which `perfbench/workloads.py` writes into a temporary
directory, and, when `cpp` is on PATH, each corpus file as `cpp`
writes it, line markers kept, so the lexer's line-marker path is
compared too; without `cpp` that set is skipped, and a line says so.
Standard library only.
"""

import difflib
import glob
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

CHILD = r"""
import sys
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.engine import run_job
from cbugscan.report import export_json

checkers = [(name, None) for name in ("automaton", "lockstat", "thread", "reach")]
for path in sys.argv[1:]:
    result = run_job(AnalysisJob(sources=[SourceDescriptor(path)],
                                 checkers=checkers))
    sys.stdout.write(f"== {path}\n" + export_json(result.traces))
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


def report(tree: str, files: list[str]) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(package_dir(tree)))
    done = subprocess.run([sys.executable, "-c", CHILD, *files], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(f"{tree}: exit {done.returncode}\n{done.stderr}")
        raise SystemExit(2)
    return done.stdout.splitlines()


def default_files(directory: str) -> list[str]:
    """The corpus files, then each workload and seed written into a
    directory of its own under `directory`, then the corpus files as
    `cpp` writes them, into `directory/cpp`."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True
    import workloads
    corpus = sorted(glob.glob(os.path.join(ROOT, "tests", "corpus", "*.c")))
    files = list(corpus)
    for workload in WORKLOADS:
        for seed in SEEDS:
            target = os.path.join(directory, f"{workload}{seed}")
            os.mkdir(target)
            sources = workloads.generate(workload, seed)
            workloads.write_workload(sources, target)
            files += [os.path.join(target, source.name) for source in sources]
    return files + preprocessed(corpus, os.path.join(directory, "cpp"))


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
                       files or default_files(directory))


def compare(old_tree: str, new_tree: str, directory: str,
            files: list[str]) -> int:
    old = report(checkout(old_tree, directory), files)
    new = report(checkout(new_tree, directory), files)
    if old == new:
        print(f"identical: {len(files)} files, {len(old)} lines")
        return 0
    diff = list(difflib.unified_diff(old, new, old_tree, new_tree, lineterm=""))
    print("\n".join(diff[:SHOWN_LINES]))
    if len(diff) > SHOWN_LINES:
        print(f"... {len(diff) - SHOWN_LINES} more diff lines")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
