"""Running generated workloads through `cbugscan.engine.run_job` and
checking every file's findings against its known answer.

A workload round is the set of `run_job` calls that covers all of a
workload's files: one job over the regular files, plus one job per
hostile file, so that a crash on a hostile shape fails that file alone
and never aborts the timing of the rest.
"""

from __future__ import annotations

import collections
import glob
import json
import os
import re
from dataclasses import dataclass

from cbugscan import engine
from cbugscan.checkers import builtin_registry
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.report import export_json

CHECKERS = ("automaton", "lockstat", "thread", "reach")


def make_checkers() -> list:
    """Instantiate the four checkers with their bundled configs."""
    registry = builtin_registry()
    return [registry.create(name) for name in CHECKERS]


def load_manifest(directory: str) -> list[dict]:
    with open(os.path.join(directory, "answers.json"), encoding="utf-8") as fh:
        return json.load(fh)


def make_jobs(directory: str, manifest: list[dict]) -> list[AnalysisJob]:
    """One job over the regular files, then one per hostile file."""
    def job(entries: list[dict]) -> AnalysisJob:
        return AnalysisJob(
            sources=[SourceDescriptor(os.path.join(directory, e["file"]))
                     for e in entries],
            checkers=[(name, None) for name in CHECKERS])

    regular = [e for e in manifest if not e["hostile"]]
    hostile = [e for e in manifest if e["hostile"]]
    return ([job(regular)] if regular else []) + [job([e]) for e in hostile]


@dataclass
class JobOutcome:
    paths: list[str]
    result: engine.JobResult | None
    error: str | None = None


def run_round(jobs: list[AnalysisJob]) -> list[JobOutcome]:
    """Run every job of a round; an exception escaping `run_job` is
    recorded against that job's files instead of propagating."""
    outcomes = []
    for job in jobs:
        paths = [d.path for d in job.sources]
        try:
            outcomes.append(JobOutcome(paths, engine.run_job(job)))
        except Exception as exc:  # a crash fails the job's files only
            outcomes.append(JobOutcome(paths, None,
                                       f"{type(exc).__name__}: {exc}"))
    return outcomes


@dataclass
class FileVerdict:
    """`status` is "ok"; "failed" for a missed finding, a crash or an
    unplanned diagnostic; or "wrong" for a finding that was not planted."""
    file: str
    status: str
    detail: str = ""


def _located(diagnostic: str, path: str) -> bool:
    return re.search(re.escape(path) + r":\d+:\d+", diagnostic) is not None


def verify_round(directory: str, manifest: list[dict],
                 outcomes: list[JobOutcome]) -> list[FileVerdict]:
    """Compare each file's findings with its known answer, as multisets
    of (checker, importance, message)."""
    by_path = {}
    for outcome in outcomes:
        for path in outcome.paths:
            by_path[path] = outcome
    verdicts = []
    for entry in manifest:
        path = os.path.join(directory, entry["file"])
        want = collections.Counter(
            {(c, i, m): n for c, i, m, n in entry["answer"]})
        outcome = by_path[path]
        if outcome.result is None:
            verdicts.append(FileVerdict(entry["file"], "failed",
                                        f"job raised {outcome.error}"))
            continue
        got = collections.Counter(
            (t.checker, t.importance.value, t.message)
            for t in outcome.result.traces
            if t.steps[0].location.file == path)
        diagnostics = [d for d in outcome.result.diagnostics if path in d]
        extra = got - want
        if extra:
            verdicts.append(FileVerdict(entry["file"], "wrong",
                                        f"unplanned findings {sorted(extra)}"))
        elif got == want and not diagnostics:
            verdicts.append(FileVerdict(entry["file"], "ok"))
        elif entry["hostile"] and any(_located(d, path) for d in diagnostics):
            verdicts.append(FileVerdict(entry["file"], "ok",
                                        "located diagnostic"))
        else:
            missed = want - got
            verdicts.append(FileVerdict(
                entry["file"], "failed",
                f"missed {sorted(missed)}; diagnostics {diagnostics}"))
    return verdicts


def check_corpus(root: str) -> list[str]:
    """Check tests/corpus against its manifest and the golden report.

    Returns the list of mismatches (empty when everything matches).
    Runs from the tests directory, as the golden report's relative paths
    require, and restores the working directory afterwards.
    """
    tests = os.path.join(root, "tests")
    with open(os.path.join(tests, "corpus", "manifest.json"),
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(tests, "golden", "corpus_report.json"),
              encoding="utf-8") as fh:
        golden = fh.read()
    problems = []
    previous = os.getcwd()
    os.chdir(tests)
    try:
        names = sorted(os.path.basename(p)
                       for p in glob.glob(os.path.join("corpus", "*.c")))
        if names != sorted(manifest):
            problems.append("corpus files differ from manifest.json")
        result = engine.run_job(AnalysisJob(
            sources=[SourceDescriptor(os.path.join("corpus", n))
                     for n in names],
            checkers=[(name, None) for name in CHECKERS]))
    finally:
        os.chdir(previous)
    if result.diagnostics:
        problems.append(f"corpus diagnostics: {result.diagnostics}")
    if export_json(result.traces) != golden:
        problems.append("corpus report differs from golden/corpus_report.json")
    for name in names:
        got = collections.Counter(
            (t.checker, t.importance.value, t.message)
            for t in result.traces
            if t.steps[0].location.file == os.path.join("corpus", name))
        want = collections.Counter(
            {(g["checker"], g["importance"], g["message"]): g["count"]
             for g in manifest.get(name, [])})
        if got != want:
            problems.append(f"{name}: findings differ from manifest.json")
    return problems
