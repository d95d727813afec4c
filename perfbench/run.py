#!/usr/bin/env python3
"""cbugscan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {wide,deep,nest} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding `src/` and
`tests/`). The workload is generated from the seed into
`.perfbench_work/<workload>/` together with its known answers, the
planted-bug corpus in `tests/corpus/` is checked against its manifest
and golden report (a mismatch exits 1 without a result), and then:

- `--trace 0` measures the end-to-end metrics with tracing off: set-up
  time of a fresh interpreter (median of the probes), wall time of a
  workload round through `cbugscan.engine.run_job` (all four checkers,
  bundled configs; median over the rounds, each rescaled to the quiet
  machine's speed by a yardstick task timed around it), throughput,
  peak resident memory of a fresh process, and the share of files whose
  findings match their known answer;
- `--trace 1` alternates untraced and traced rounds and reports the
  per-layer metrics of the fastest traced round, plus the tracing
  overhead (fastest traced minus fastest untraced round).

Round times are kept in `.perfbench_work/<workload>/samples.json`, and
the spans of the reported traced round in `trace.json` beside it.

Load is a closed loop with one client: one process runs one round at a
time. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".perfbench_work"

SETUP_REPEATS = 15   # fresh interpreters timed per run for setup_s
RSS_REPEATS = 3      # fresh processes measured per run for peak_rss_mb
MIN_ROUNDS = 5       # timed rounds per run, even when --seconds is short
CHILD_TIMEOUT = 120  # seconds


# About the yardstick's duration while the machine the first numbers were
# taken on (2-vCPU VM, Intel Xeon, Python 3.11.7) was quiet. job_s is
# expressed at that speed; any fixed value would do for comparisons.
YARDSTICK_REF_S = 0.015


class _Node:
    __slots__ = ("kind", "kids")

    def __init__(self, kind: int, kids: tuple):
        self.kind = kind
        self.kids = kids


def yardstick_s() -> float:
    """Time a fixed pure-Python task (objects, tuples, dict updates).

    It gauges how fast the machine runs Python code at this moment. On a
    shared machine that speed swings by up to 1.8x with other tenants'
    load, and cbugscan's rounds swing with it.
    """
    start = time.perf_counter()
    nodes: list[_Node] = []
    table: dict[tuple, int] = {}
    for i in range(20000):
        node = _Node(i % 7, tuple(nodes[-2:]))
        nodes.append(node)
        key = (node.kind, len(node.kids), i % 101)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, median, q3 = quartiles(values)
    return (f"{name:<14} {median:.6g} {unit}  "
            f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g}, "
            f"min {min(values):.6g})")


def run_child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def finish_child(proc: subprocess.Popen, what: str) -> str:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} timed out")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {err.strip()}")
    return out


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter to checkers ready."""
    start = time.perf_counter()
    proc = run_child(["setup"])
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    finish_child(proc, "setup probe")
    if line.strip() != "ready":
        raise BenchError(f"setup probe printed {line!r}")
    return elapsed


def measure_rss(directory: str, repeats: int) -> list[float]:
    """Peak resident set, in MiB, of fresh processes running one round."""
    samples = []
    for _ in range(repeats):
        out = finish_child(run_child(["rss", directory]), "memory probe")
        samples.append(int(out.split()[-1]) / 1024)
    return samples


def prepare(workload: str, seed: int) -> str:
    directory = os.path.join(WORK_DIR, workload)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    workloads.write_workload(workloads.generate(workload, seed), directory)
    return directory


class Tally:
    """File verdicts over all measured rounds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.first: dict[str, str] | None = None
        self.unsteady = False
        self.failures: dict[str, str] = {}

    def add(self, verdicts) -> None:
        statuses = {v.file: v.status for v in verdicts}
        if self.first is None:
            self.first = statuses
        elif statuses != self.first:
            self.unsteady = True
        for verdict in verdicts:
            self.attempted += 1
            if verdict.status != "ok":
                self.failed += 1
                self.failures[verdict.file] = verdict.detail
            if verdict.status == "wrong":
                self.wrong.append(f"{verdict.file}: {verdict.detail}")

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.unsteady

    def report(self) -> list[str]:
        lines = [f"failed_share   {self.failed / self.attempted:.6g} "
                 f"({self.failed} of {self.attempted} file analyses)"]
        for name, detail in sorted(self.failures.items()):
            lines.append(f"  failed file {name}: {detail[:300]}")
        if self.unsteady:
            lines.append("  verdicts differ between rounds")
        return lines


def end_to_end(workload: str, directory: str, seconds: float) -> dict:
    import harness

    manifest = harness.load_manifest(directory)
    jobs = harness.make_jobs(directory, manifest)
    lines = sum(entry["lines"] for entry in manifest)

    rss = measure_rss(directory, RSS_REPEATS)

    # Set-up probes are spread over the timed loop, between rounds, so
    # that they see the same machine conditions as the rounds do.
    tally = Tally()
    harness.run_round(jobs)  # warm-up
    setup, durations, scaled = [], [], []
    deadline = time.perf_counter() + seconds
    while len(durations) < MIN_ROUNDS or time.perf_counter() < deadline:
        if len(setup) < SETUP_REPEATS and len(durations) % 2 == 0:
            setup.append(measure_setup())
        gc.collect()
        before = yardstick_s()
        start = time.perf_counter()
        outcomes = harness.run_round(jobs)
        durations.append(time.perf_counter() - start)
        after = yardstick_s()
        # the round at the quiet machine's speed, judged by the yardstick
        scaled.append(durations[-1] * YARDSTICK_REF_S * 2 / (before + after))
        tally.add(harness.verify_round(directory, manifest, outcomes))
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())

    with open(os.path.join(directory, "samples.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"setup_s": setup, "round_s": durations,
                   "job_s": scaled, "peak_rss_mb": rss}, handle)
    job_s = quartiles(scaled)[1]
    handled = 1 - tally.failed / tally.attempted
    print(f"workload {workload}: {len(manifest)} files, {lines} lines, "
          f"{len(jobs)} run_job calls per round")
    print(describe("setup_s", setup, "s"))
    print(describe("round_s", durations, "s"))
    print(describe("job_s", scaled, "s"))
    print(f"{'lines_per_s':<14} {lines / job_s:.6g} 1/s  ({lines} lines)")
    print(describe("peak_rss_mb", rss, "MiB"))
    print(f"{'handled_share':<14} {handled:.6g}")
    for line in tally.report():
        print(line)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "setup_s": {"value": quartiles(setup)[1], "unit": "s"},
            "job_s": {"value": job_s, "unit": "s"},
            "lines_per_s": {"value": lines / job_s, "unit": "1/s"},
            "peak_rss_mb": {"value": quartiles(rss)[1], "unit": "MiB"},
            "handled_share": {"value": handled, "unit": "ratio"},
        },
    }


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(workload: str, directory: str, seconds: float) -> dict:
    import harness
    import tracing
    from cbugscan import report

    manifest = harness.load_manifest(directory)
    jobs = harness.make_jobs(directory, manifest)
    tracer = tracing.Tracer()
    tally = Tally()

    harness.run_round(jobs)  # warm-up
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        outcomes = harness.run_round(jobs)
        untraced.append(time.perf_counter() - start)
        tally.add(harness.verify_round(directory, manifest, outcomes))

        gc.collect()
        tracer.reset()
        with tracer:
            outcomes = harness.run_round(jobs)
            report.export_json([trace for outcome in outcomes
                                if outcome.result is not None
                                for trace in outcome.result.traces])
        traced.append((tracer.layer_metrics(), tracer.span_records()))
        tally.add(harness.verify_round(directory, manifest, outcomes))

    # As for job_s, the fastest rounds are the ones least disturbed by
    # other load on the machine.
    metrics, spans = min(traced, key=lambda item: item[0]["trace.job_s"])
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - min(untraced)
    with open(os.path.join(directory, "trace.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": workload, "spans": spans}, handle)

    job = metrics["trace.job_s"]
    print(f"workload {workload}: fastest traced round of {len(traced)}, "
          f"{job:.6g} s; fastest untraced round of {len(untraced)}, "
          f"{min(untraced):.6g} s")
    for name in sorted(metrics):
        value = metrics[name]
        share = (f"  {100 * value / job:5.1f}% of traced job_s"
                 if layer_unit(name) == "s" and name not in (
                     "trace.job_s", "trace.overhead_s",
                     "report.export_json_s") else "")
        print(f"{name:<34} {value:.6g} {layer_unit(name)}{share}")
    for line in tally.report():
        print(line)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": layer_unit(name)}
                    for name, value in sorted(metrics.items())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cbugscan", "engine.py")):
        sys.stderr.write(f"no cbugscan sources under {ROOT}/src\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # cbugscan is importable only now; harness and tracing import it
    import cbugscan
    import harness

    if not os.path.abspath(cbugscan.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        sys.stderr.write(f"imported cbugscan from {cbugscan.__file__}, "
                         f"not from this checkout\n")
        return 2

    try:
        problems = harness.check_corpus(ROOT)
        if problems:
            raise BenchError("corpus golden check failed:\n  "
                             + "\n  ".join(problems))
        print("corpus golden check: ok")
        directory = prepare(args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        result = measure(args.workload, directory, args.seconds)
    except (BenchError, OSError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
