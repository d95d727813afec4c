#!/usr/bin/env python3
"""Check that two source trees of cbugscan report the same on C files.

    python3 scripts/compare_reports.py OLD_SRC NEW_SRC FILE...

OLD_SRC and NEW_SRC are each a checkout or its `src` directory. For each
tree, a fresh interpreter runs all four checkers with their bundled
configs over every FILE, one job per file, and prints the JSON report
(findings, witness steps, ids) and the diagnostics. The two outputs are
compared line by line: on any difference the first differing lines are
printed and the exit code is 1; otherwise it is 0. Standard library
only.
"""

import difflib
import os
import subprocess
import sys

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


def package_dir(tree: str) -> str:
    """The directory holding the `cbugscan` package of a tree."""
    src = os.path.join(tree, "src")
    return src if os.path.isdir(os.path.join(src, "cbugscan")) else tree


def report(tree: str, files: list[str]) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(package_dir(tree)))
    done = subprocess.run([sys.executable, "-c", CHILD, *files], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(f"{tree}: exit {done.returncode}\n{done.stderr}")
        raise SystemExit(2)
    return done.stdout.splitlines()


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    old_tree, new_tree, *files = argv
    old, new = report(old_tree, files), report(new_tree, files)
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
