"""The value contract of the frontend's records: finding ids hash the
text of locations, and reports sort by them."""

import pytest

from cbugscan.frontend import SourceLocation, tokenize
from cbugscan.report import (
    ErrorTrace,
    Importance,
    TraceStep,
    export_json,
    traces_from_json,
)


def test_location_text_is_file_line_column():
    loc = SourceLocation("dir/a.c", 12, 7)
    assert str(loc) == "dir/a.c:12:7"
    assert f"{loc}" == "dir/a.c:12:7"
    assert f"at {loc}." == "at dir/a.c:12:7."


def test_locations_sort_by_file_then_line_then_column():
    locations = [SourceLocation("b.c", 1, 1), SourceLocation("a.c", 10, 2),
                 SourceLocation("a.c", 2, 5), SourceLocation("a.c", 2, 3)]
    assert [str(loc) for loc in sorted(locations)] == [
        "a.c:2:3", "a.c:2:5", "a.c:10:2", "b.c:1:1"]


def test_equal_locations_hash_equal():
    first, second = SourceLocation("a.c", 3, 4), SourceLocation("a.c", 3, 4)
    assert first == second and hash(first) == hash(second)
    assert len({first, second, SourceLocation("a.c", 3, 5)}) == 2


def test_records_are_immutable():
    token = tokenize("x", "t.c")[0]
    assert token == ("ident", "x", SourceLocation("t.c", 1, 1))
    with pytest.raises(TypeError):
        token[1] = "y"
    with pytest.raises(AttributeError):
        token[2].line = 2


def test_json_report_rebuilds_equal_locations():
    steps = (TraceStep(SourceLocation("b.c", 9, 1), "held"),
             TraceStep(SourceLocation("a.c", 10, 2), "taken"))
    trace = ErrorTrace("thread", Importance.ERROR, "cycle", steps)
    (read,) = traces_from_json(export_json([trace]))
    assert [step.location for step in read.steps] == [
        step.location for step in steps]
    assert all(type(step.location) is SourceLocation for step in read.steps)
    assert read == trace and read.id == trace.id
