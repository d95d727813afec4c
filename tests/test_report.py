import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import full_key_normalize

from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import SourceLocation
from cbugscan.report import (
    EXPORTERS,
    CheckerStats,
    ErrorTrace,
    Importance,
    TraceStep,
    Triage,
    TriageDb,
    export_console,
    export_json,
    export_xml,
    format_statistics,
    message_frequencies,
    normalize,
    statistics_by_checker,
    trace_to_dict,
    traces_from_json,
)


def make_trace(checker="automaton", message="double lock of &m",
               file="a.c", line=3, column=5,
               importance=Importance.ERROR, triage=Triage.UNCLASSIFIED,
               description="mutex_lock(&m)"):
    return ErrorTrace(
        checker=checker,
        importance=importance,
        message=message,
        steps=(
            TraceStep(SourceLocation(file, line, column), description),
            TraceStep(SourceLocation(file, line + 1, column), message),
        ),
        triage=triage,
    )


# -- trace ids --------------------------------------------------------------------

def test_id_frozen_value():
    assert make_trace().id == "799a11ff3b3f4946"


def test_id_is_16_hex_chars():
    assert len(make_trace().id) == 16
    int(make_trace().id, 16)


def test_id_ignores_presentation_fields():
    base = make_trace()
    assert make_trace(importance=Importance.WARNING).id == base.id
    assert make_trace(triage=Triage.REAL).id == base.id
    assert make_trace(description="other words").id == base.id


def test_id_tracks_content_fields():
    base = make_trace()
    assert make_trace(message="double lock of &n").id != base.id
    assert make_trace(checker="thread").id != base.id
    assert make_trace(line=9).id != base.id
    assert make_trace(file="b.c").id != base.id


def test_primary_location_is_last_step():
    trace = make_trace(line=3)
    assert trace.primary_location == SourceLocation("a.c", 4, 5)


# -- ordering ---------------------------------------------------------------------

def test_normalize_sorts_by_location_then_checker():
    early = make_trace(line=1)
    late = make_trace(line=50)
    other_file = make_trace(file="b.c", line=1)
    reach = make_trace(checker="reach", line=1)
    ordered = normalize([other_file, late, reach, early])
    assert ordered == [early, reach, late, other_file]


@given(st.permutations(range(6)))
def test_normalize_is_input_order_independent(order):
    traces = [make_trace(line=5), make_trace(line=2), make_trace(line=9),
              make_trace(checker="reach", line=2),
              make_trace(file="z.c", line=1),
              make_trace(message="another", line=2)]
    shuffled = [traces[i] for i in order]
    assert normalize(shuffled) == normalize(traces)


locations = st.builds(SourceLocation, st.sampled_from(["a.c", "b.c"]),
                      st.integers(1, 3), st.integers(1, 2))
trace_steps = st.builds(TraceStep, locations, st.sampled_from(["x", "y"]))
traces = st.builds(
    ErrorTrace, checker=st.sampled_from(["reach", "thread"]),
    importance=st.sampled_from(Importance),
    message=st.sampled_from(["m", "n"]),
    steps=st.lists(trace_steps, min_size=1, max_size=3).map(tuple))


@st.composite
def traces_with_ties(draw):
    """Traces, some of which tie with an earlier one on location,
    checker and message while their other steps differ."""
    drawn = draw(st.lists(traces, min_size=1, max_size=8))
    for tied in draw(st.lists(st.sampled_from(drawn), max_size=6)):
        earlier = draw(st.lists(trace_steps, max_size=2))
        drawn.append(replace(tied, steps=(*earlier, tied.steps[-1]),
                             importance=draw(st.sampled_from(Importance))))
    return draw(st.permutations(drawn))


@given(traces_with_ties())
def test_normalize_orders_as_the_full_key_does(drawn):
    assert normalize(drawn) == full_key_normalize(drawn)


def test_normalize_reads_ids_only_of_ties(monkeypatch):
    alone = [make_trace(line=2), make_trace(checker="x"), make_trace(line=1)]
    # both end at a.c:4:5 and differ in their first step
    tied = [make_trace(description="a"),
            replace(make_trace(), steps=make_trace().steps[1:])]
    read = []
    real_id = ErrorTrace.id
    monkeypatch.setattr(ErrorTrace, "id", property(
        lambda trace: read.append(trace) or real_id.fget(trace)))
    assert normalize(alone) == [alone[2], alone[0], alone[1]]
    assert read == []
    normalize(alone + tied)
    assert sorted(map(id, read)) == sorted(map(id, tied))


# -- JSON -------------------------------------------------------------------------

def test_json_round_trip():
    traces = [
        make_trace(),
        make_trace(checker="reach", message="unreachable code",
                   importance=Importance.WARNING, triage=Triage.REAL),
    ]
    restored = traces_from_json(export_json(traces))
    assert restored == traces


def test_json_shape():
    text = export_json([make_trace()])
    assert text.endswith("\n")
    data = json.loads(text)
    assert isinstance(data, list)
    entry = data[0]
    assert entry["id"] == "799a11ff3b3f4946"
    assert entry["checker"] == "automaton"
    assert entry["importance"] == "error"
    assert entry["triage"] == "unclassified"
    assert entry["steps"][0] == {
        "file": "a.c", "line": 3, "column": 5,
        "description": "mutex_lock(&m)",
    }


def test_json_is_deterministic():
    traces = [make_trace(), make_trace(checker="reach")]
    assert export_json(traces) == export_json(traces)


def test_trace_dict_id_matches_property():
    trace = make_trace()
    assert trace_to_dict(trace)["id"] == trace.id


def test_triage_defaults_when_absent():
    entry = trace_to_dict(make_trace())
    del entry["triage"]
    restored = traces_from_json(json.dumps([entry]))
    assert restored[0].triage is Triage.UNCLASSIFIED


@pytest.mark.parametrize("text", [
    "not json",
    '{"traces": []}',
    '[{"checker": "a"}]',
    '[{"checker": "a", "importance": "catastrophic", "message": "m", "steps": []}]',
    '[{"checker": "a", "importance": "error", "message": "m", '
    '"steps": [{"file": "f"}]}]',
])
def test_malformed_reports_rejected(text):
    with pytest.raises(ConfigError):
        traces_from_json(text)


# -- other exporters ----------------------------------------------------------------

def test_exporter_registry():
    assert set(EXPORTERS) == {"json", "xml", "console"}


def test_xml_shape():
    text = export_xml([make_trace(message="a < b & c")])
    assert text.startswith("<errors>")
    assert "a &lt; b &amp; c" in text
    assert 'file="a.c"' in text and 'line="3"' in text and 'col="5"' in text
    assert 'checker="automaton"' in text
    assert text.endswith("\n")


def test_console_empty():
    assert export_console([]) == "no errors found.\n"


def test_console_format():
    text = export_console([make_trace()])
    lines = text.splitlines()
    assert lines[0] == "ERROR [automaton] double lock of &m (a.c:4)"
    assert lines[1] == "  1. a.c:3:5: mutex_lock(&m)"
    assert lines[2] == "  2. a.c:4:5: double lock of &m"


# -- statistics ---------------------------------------------------------------------

@pytest.mark.parametrize("found, real, fp, expected", [
    (266, 65, 143, "31.3%"),
    (86, 48, 37, "56.5%"),
    (35, 16, 18, "47.1%"),
    (13, 6, 7, "46.2%"),
    (20, 9, 11, "45.0%"),
    (31, 31, 0, "100.0%"),
])
def test_real_rate_rows(found, real, fp, expected):
    stats = CheckerStats(found=found, real=real, false_positive=fp,
                         unclassified=found - real - fp)
    assert stats.ratio() == expected


def test_ratio_without_classified_findings():
    assert CheckerStats(found=4, unclassified=4).ratio() == "n/a"


def test_rounding_is_half_up():
    assert CheckerStats(found=8, real=1, false_positive=7).ratio() == "12.5%"
    assert CheckerStats(found=16, real=1, false_positive=15).ratio() == "6.3%"


def test_statistics_by_checker_counts():
    traces = [
        make_trace(triage=Triage.REAL),
        make_trace(line=11, triage=Triage.FALSE_POSITIVE),
        make_trace(line=12),
        make_trace(checker="reach", line=13, triage=Triage.REAL),
    ]
    stats = statistics_by_checker(traces)
    assert stats["automaton"].found == 3
    assert stats["automaton"].real == 1
    assert stats["automaton"].false_positive == 1
    assert stats["automaton"].unclassified == 1
    assert stats["reach"].found == 1
    assert stats["reach"].ratio() == "100.0%"


def test_message_frequencies_order():
    traces = [make_trace(message="bbb"), make_trace(message="aaa", line=9),
              make_trace(message="bbb", line=10),
              make_trace(message="ccc", line=11)]
    assert message_frequencies(traces) == [("bbb", 2), ("aaa", 1), ("ccc", 1)]


def test_format_statistics_layout():
    traces = [make_trace(triage=Triage.REAL),
              make_trace(line=11, triage=Triage.FALSE_POSITIVE)]
    text = format_statistics(traces)
    lines = text.splitlines()
    assert lines[0].startswith("checker")
    assert "automaton" in lines[1]
    assert "50.0%" in lines[1]
    assert "most frequent messages:" in lines
    assert any("double lock of &m" in line for line in lines)


# -- triage journal -----------------------------------------------------------------

def db(tmp_path):
    return TriageDb(str(tmp_path / "triage.db"))


def test_record_and_read_back(tmp_path):
    journal = db(tmp_path)
    journal.record("799a11ff3b3f4946", Triage.REAL)
    journal.record("0000000000000000", Triage.FALSE_POSITIVE)
    assert journal.entries() == {
        "799a11ff3b3f4946": Triage.REAL,
        "0000000000000000": Triage.FALSE_POSITIVE,
    }


def test_latest_verdict_wins(tmp_path):
    journal = db(tmp_path)
    journal.record("x", Triage.REAL)
    journal.record("x", Triage.FALSE_POSITIVE)
    assert journal.entries() == {"x": Triage.FALSE_POSITIVE}


def test_missing_journal_is_empty(tmp_path):
    assert db(tmp_path).entries() == {}


def test_apply_stamps_matching_traces(tmp_path):
    journal = db(tmp_path)
    trace = make_trace()
    other = make_trace(checker="reach")
    journal.record(trace.id, Triage.REAL)
    stamped = journal.apply([trace, other])
    assert stamped[0].triage is Triage.REAL
    assert stamped[1].triage is Triage.UNCLASSIFIED
    assert stamped[0].id == trace.id  # id unaffected by the verdict


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "triage.db"
    path.write_text("\n\nabc\treal\t2026-08-16T00:00:00+00:00\n\n")
    assert TriageDb(str(path)).entries() == {"abc": Triage.REAL}


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "triage.db"
    path.write_text("justonefield\n")
    with pytest.raises(ConfigError) as info:
        TriageDb(str(path)).entries()
    assert "malformed triage entry" in str(info.value)


def test_unknown_status_rejected(tmp_path):
    path = tmp_path / "triage.db"
    path.write_text("abc\tmaybe\t2026-08-16T00:00:00+00:00\n")
    with pytest.raises(ConfigError) as info:
        TriageDb(str(path)).entries()
    assert "unknown triage status" in str(info.value)


def test_journal_lines_are_tab_separated(tmp_path):
    journal = db(tmp_path)
    journal.record("abc", Triage.REAL)
    raw = (tmp_path / "triage.db").read_text()
    fields = raw.strip().split("\t")
    assert fields[0] == "abc"
    assert fields[1] == "real"
    assert fields[2].endswith("+00:00")
