"""Fresh-process probes for the benchmark; started by run.py.

    python3 perfbench/child.py setup
        Import cbugscan, create the four checkers with their bundled
        configs, print "ready" and exit. The parent times this from
        process start to the "ready" line.

    python3 perfbench/child.py rss DIR
        Run one round of the workload generated in DIR and print the
        process's peak resident set size in KiB, as the OS reports it.
"""

from __future__ import annotations

import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv: list[str]) -> int:
    import harness

    if argv == ["setup"]:
        harness.make_checkers()
        print("ready", flush=True)
        return 0
    if len(argv) == 2 and argv[0] == "rss":
        manifest = harness.load_manifest(argv[1])
        harness.run_round(harness.make_jobs(argv[1], manifest))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
