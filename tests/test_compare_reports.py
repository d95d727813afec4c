"""`scripts/compare_reports.py`'s comparison of two reports, job by job,
on made-up report lines."""

import os
import runpy

SCRIPT = runpy.run_path(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts", "compare_reports.py"))
job_diffs = SCRIPT["job_diffs"]
split_jobs = SCRIPT["split_jobs"]

REPORT = ["config automaton '': none", "config lockstat '': none",
          "== a.c", "[]", "sexpr: (A)",
          "== b.c", "one", "two",
          "== a.c b.c", "[]"]


def changed(lines, old, new):
    return [new if line == old else line for line in lines]


def test_a_report_splits_at_the_config_block_and_each_job():
    parts = split_jobs(REPORT)
    assert list(parts) == [None, "a.c", "b.c", "a.c b.c"]
    assert parts[None] == REPORT[:2]
    assert parts["b.c"] == ["== b.c", "one", "two"]


def test_the_same_reports_give_nothing():
    assert job_diffs(REPORT, list(REPORT), "old", "new") == []


def test_each_job_that_differs_is_named_with_its_own_diff():
    new = changed(changed(REPORT, "two", "three"), "sexpr: (A)", "sexpr: (B)")
    out = job_diffs(REPORT, new, "old", "new")
    assert out[0] == "differs: a.c"
    assert "-sexpr: (A)" in out and "+sexpr: (B)" in out
    named = [line for line in out if line.startswith("differs: ")]
    assert named == ["differs: a.c", "differs: b.c"]
    b_diff = out[out.index("differs: b.c"):]
    assert "-two" in b_diff and "+three" in b_diff
    assert "-sexpr: (A)" not in b_diff
    assert out[-1] == "2 of 3 jobs differ"


def test_the_config_block_is_named_and_not_counted_as_a_job():
    new = changed(REPORT, "config lockstat '': none", "config lockstat '': x")
    out = job_diffs(REPORT, new, "old", "new")
    assert out[0] == "differs: configs"
    assert out[-1] == "0 of 3 jobs differ"


def test_the_cap_is_per_job():
    old = ["== a.c", *map(str, range(50)), "== b.c", "x"]
    new = ["== a.c", *(f"{i}'" for i in range(50)), "== b.c", "y"]
    out = job_diffs(old, new, "old", "new", shown=6)
    first = out[:out.index("differs: b.c")]
    assert len(first) == 1 + 6 + 1
    assert first[-1].startswith("... ") and first[-1].endswith(
        " more diff lines")
    assert "-x" in out and "+y" in out
    assert out[-1] == "2 of 2 jobs differ"


def test_a_job_only_one_report_holds_differs():
    out = job_diffs(REPORT, REPORT[:-2], "old", "new")
    assert [line for line in out if line.startswith("differs: ")] == [
        "differs: a.c b.c"]
    assert out[-1] == "1 of 3 jobs differ"
