"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, ROOT
import harness
import tracing
import workloads

# Files the analyzer is known to get wrong: a leak below the call-depth
# cut, and the two shapes that exhaust its recursion. A fix may turn
# them into passes; nothing else may fail.
KNOWN_FAILURES = {"dcut.c", "nx_if.c", "nx_sum.c"}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def materialize(workload, seed, directory):
    os.makedirs(directory, exist_ok=True)
    workloads.write_workload(
        workloads.generate(workload, seed, workloads.SMALL_PARAMS[workload]),
        str(directory))
    manifest = harness.load_manifest(str(directory))
    return manifest, harness.make_jobs(str(directory), manifest)


def read_tree(directory):
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", sorted(workloads.PARAMS))
def test_same_seed_gives_identical_sources_and_answers(workload, tmp_path):
    materialize(workload, 7, tmp_path / "a")
    materialize(workload, 7, tmp_path / "b")
    materialize(workload, 8, tmp_path / "c")
    first = read_tree(tmp_path / "a")
    assert "answers.json" in first
    assert first == read_tree(tmp_path / "b")
    assert first != read_tree(tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(workloads.PARAMS))
def test_seed_changes_names_not_amount_of_work(workload):
    one = workloads.generate(workload, 1, workloads.SMALL_PARAMS[workload])
    two = workloads.generate(workload, 2, workloads.SMALL_PARAMS[workload])
    assert [s.name for s in one] == [s.name for s in two]
    assert [sum(s.answer.values()) for s in one] == \
        [sum(s.answer.values()) for s in two]


@pytest.mark.parametrize("workload", sorted(workloads.PARAMS))
def test_known_answers_at_small_size(workload, tmp_path):
    manifest, jobs = materialize(workload, 3, tmp_path)
    assert all(entry["answer"] for entry in manifest)
    verdicts = harness.verify_round(str(tmp_path), manifest,
                                    harness.run_round(jobs))
    assert len(verdicts) == len(manifest)
    assert [v for v in verdicts if v.status == "wrong"] == []
    failed = {v.file for v in verdicts if v.status == "failed"}
    assert failed <= KNOWN_FAILURES


def test_verification_flags_missed_and_unplanned_findings(tmp_path):
    manifest, jobs = materialize("wide", 3, tmp_path)
    outcomes = harness.run_round(jobs)
    entry = manifest[0]
    planted = entry["answer"][0]
    entry["answer"] = entry["answer"][1:]
    manifest[1]["answer"] = manifest[1]["answer"] + [
        ["reach", "error", "unreachable code", 5]]
    verdicts = {v.file: v.status
                for v in harness.verify_round(str(tmp_path), manifest,
                                              outcomes)}
    assert verdicts[entry["file"]] == "wrong", planted
    assert verdicts[manifest[1]["file"]] == "failed"


def test_corpus_matches_golden_report():
    assert harness.check_corpus(ROOT) == []


def test_traced_self_times_add_up_to_job_time(tmp_path):
    _, jobs = materialize("deep", 3, tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        harness.run_round(jobs)
    metrics = tracer.layer_metrics()
    self_total = sum(tracer.self_times().values())
    assert math.isclose(self_total, metrics["trace.job_s"], rel_tol=1e-9)
    assert metrics["engine.self_s"] > 0
    assert metrics["traverse.supergraph_builds"] > 0
    assert metrics["ir.units.loads"] == metrics["ir.units.max_resident"] == 3


def test_tracer_restores_every_wrapped_function(tmp_path):
    from cbugscan import engine
    from cbugscan.checkers import automaton

    before = (engine.run_job, automaton.match_node,
              automaton.AutomatonChecker.check_unit)
    with tracing.Tracer():
        assert engine.run_job is not before[0]
    assert (engine.run_job, automaton.match_node,
            automaton.AutomatonChecker.check_unit) == before


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    _, jobs = materialize("nest", 3, tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        harness.run_round(jobs)
    names = set(tracer.layer_metrics()) | {"trace.overhead_s"}
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}


def test_benchmark_file_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.PARAMS)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
