"""Error traces, report serialization, triage bookkeeping, statistics.

A finding is an ErrorTrace: an ordered list of source steps ending at
the error location, plus a stable content-derived id. Ids survive
reordering and re-running, which is what lets triage verdicts recorded
against one report carry over to the next run.

An id is a hash, computed only when read: by JSON and XML export, by
triage, and by `normalize` for findings that tie on location, checker
and message. So a check rendered for the console loads `hashlib` only
for such a tie. XML export imports `xml.etree`, and the triage journal
`datetime` and `fcntl`, where they are used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from itertools import groupby

from cbugscan.errors import ConfigError
from cbugscan.frontend.ast_nodes import SourceLocation


class Importance(Enum):
    WARNING = "warning"
    ERROR = "error"


class Triage(Enum):
    UNCLASSIFIED = "unclassified"
    REAL = "real"
    FALSE_POSITIVE = "false-positive"


@dataclass(frozen=True)
class TraceStep:
    """One step of a witness: where it is and what happens there."""
    location: SourceLocation
    description: str


@dataclass(frozen=True)
class ErrorTrace:
    """A finding: a checker's message and its witness steps."""
    checker: str
    importance: Importance
    message: str
    steps: tuple[TraceStep, ...]
    triage: Triage = Triage.UNCLASSIFIED

    @property
    def id(self) -> str:
        import hashlib

        payload = "|".join(
            [self.checker, self.message]
            + [str(step.location) for step in self.steps])
        return hashlib.sha256(
            payload.encode(errors="surrogateescape")).hexdigest()[:16]

    @property
    def primary_location(self) -> SourceLocation:
        return self.steps[-1].location


def normalize(traces: list[ErrorTrace]) -> list[ErrorTrace]:
    """Deterministic report order, independent of discovery order: by
    primary location, checker and message, and by id where findings tie
    on all of those, so ids are computed only for such ties."""
    ordered: list[ErrorTrace] = []
    for _, tied in groupby(sorted(traces, key=_order_key), _order_key):
        tied = list(tied)
        if len(tied) > 1:  # sorting even one item would compute its id
            tied.sort(key=lambda t: t.id)
        ordered += tied
    return ordered


def _order_key(trace: ErrorTrace) -> tuple:
    loc = trace.primary_location
    return loc.file, loc.line, loc.column, trace.checker, trace.message


# -- serialization ---------------------------------------------------------

def trace_to_dict(trace: ErrorTrace) -> dict:
    return {
        "id": trace.id,
        "checker": trace.checker,
        "importance": trace.importance.value,
        "message": trace.message,
        "triage": trace.triage.value,
        "steps": [
            {
                "file": step.location.file,
                "line": step.location.line,
                "column": step.location.column,
                "description": step.description,
            }
            for step in trace.steps
        ],
    }


def export_json(traces: list[ErrorTrace]) -> str:
    data = [trace_to_dict(t) for t in traces]
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def traces_from_json(text: str) -> list[ErrorTrace]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed report: {exc}") from exc
    if not isinstance(data, list):
        raise ConfigError("malformed report: expected a JSON array")
    traces = []
    try:
        for item in data:
            steps = tuple(
                TraceStep(
                    SourceLocation(s["file"], s["line"], s["column"]),
                    s["description"])
                for s in item["steps"])
            traces.append(ErrorTrace(
                checker=item["checker"],
                importance=Importance(item["importance"]),
                message=item["message"],
                steps=steps,
                triage=Triage(item.get("triage", "unclassified")),
            ))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed report entry: {exc}") from exc
    return traces


def export_xml(traces: list[ErrorTrace]) -> str:
    import xml.etree.ElementTree as ET

    root = ET.Element("errors")
    for trace in traces:
        err = ET.SubElement(root, "error", {
            "checker": trace.checker,
            "importance": trace.importance.value,
            "id": trace.id,
        })
        msg = ET.SubElement(err, "msg")
        msg.text = trace.message
        for step in trace.steps:
            el = ET.SubElement(err, "step", {
                "file": step.location.file,
                "line": str(step.location.line),
                "col": str(step.location.column),
            })
            el.text = step.description
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def export_console(traces: list[ErrorTrace]) -> str:
    if not traces:
        return "no errors found.\n"
    lines = []
    for trace in traces:
        loc = trace.primary_location
        lines.append(f"{trace.importance.value.upper()} [{trace.checker}] "
                     f"{trace.message} ({loc.file}:{loc.line})")
        for i, step in enumerate(trace.steps, start=1):
            lines.append(f"  {i}. {step.location}: {step.description}")
    return "\n".join(lines) + "\n"


EXPORTERS = {
    "json": export_json,
    "xml": export_xml,
    "console": export_console,
}


# -- statistics --------------------------------------------------------------

@dataclass
class CheckerStats:
    """One checker's findings, counted by triage verdict."""
    found: int = 0
    real: int = 0
    false_positive: int = 0
    unclassified: int = 0

    def ratio(self) -> str:
        """Share of triaged findings confirmed real, as 'NN.N%'."""
        classified = self.real + self.false_positive
        if classified == 0:
            return "n/a"
        percent = (Decimal(self.real) * 100 / Decimal(classified)).quantize(
            Decimal("0.1"), rounding=ROUND_HALF_UP)
        return f"{percent}%"


def statistics_by_checker(traces: list[ErrorTrace]) -> dict[str, CheckerStats]:
    stats: dict[str, CheckerStats] = {}
    for trace in traces:
        entry = stats.setdefault(trace.checker, CheckerStats())
        entry.found += 1
        if trace.triage is Triage.REAL:
            entry.real += 1
        elif trace.triage is Triage.FALSE_POSITIVE:
            entry.false_positive += 1
        else:
            entry.unclassified += 1
    return stats


def message_frequencies(traces: list[ErrorTrace]) -> list[tuple[str, int]]:
    counts: dict[str, int] = {}
    for trace in traces:
        counts[trace.message] = counts.get(trace.message, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def format_statistics(traces: list[ErrorTrace]) -> str:
    stats = statistics_by_checker(traces)
    lines = ["checker            found  real  false-pos  unclassified  real-rate"]
    for checker in sorted(stats):
        s = stats[checker]
        lines.append(f"{checker:<18} {s.found:>5} {s.real:>5} {s.false_positive:>10} "
                     f"{s.unclassified:>13}  {s.ratio():>9}")
    lines.append("")
    lines.append("most frequent messages:")
    for message, count in message_frequencies(traces)[:10]:
        lines.append(f"  {count:>4}  {message}")
    return "\n".join(lines) + "\n"


# -- triage journal ----------------------------------------------------------

class TriageDb:
    """Append-only triage journal: one `id<TAB>status<TAB>timestamp` line
    per verdict; the latest line for an id wins."""

    def __init__(self, path: str):
        self.path = path

    def record(self, trace_id: str, status: Triage) -> None:
        import fcntl
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).isoformat()
        line = f"{trace_id}\t{status.value}\t{stamp}\n"
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                try:
                    handle.write(line)
                    handle.flush()
                finally:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except OSError as exc:
            raise ConfigError(f"cannot write {self.path}: {exc}") from exc

    def entries(self) -> dict[str, Triage]:
        verdicts: dict[str, Triage] = {}
        try:
            with open(self.path, encoding="utf-8") as handle:
                for raw in handle:
                    raw = raw.rstrip("\n")
                    if not raw.strip():
                        continue
                    parts = raw.split("\t")
                    if len(parts) < 2:
                        raise ConfigError(
                            f"malformed triage entry in {self.path}: {raw!r}")
                    try:
                        verdicts[parts[0]] = Triage(parts[1])
                    except ValueError as exc:
                        raise ConfigError(
                            f"unknown triage status in {self.path}: "
                            f"{parts[1]!r}") from exc
        except FileNotFoundError:
            pass
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {self.path}: {exc}") from exc
        return verdicts

    def apply(self, traces: list[ErrorTrace]) -> list[ErrorTrace]:
        """Stamp journaled verdicts onto matching traces."""
        verdicts = self.entries()
        return [
            replace(t, triage=verdicts[t.id]) if t.id in verdicts else t
            for t in traces
        ]
