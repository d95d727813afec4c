"""The analysis job, and the input files (compilation databases, list
files, directories) that name its sources."""

from __future__ import annotations

import codecs
import json
import os
from dataclasses import dataclass, field

from cbugscan.errors import ConfigError
from cbugscan.report import Importance


@dataclass(frozen=True)
class SourceDescriptor:
    """A source file and the flags its preprocessor command gets."""
    path: str
    flags: tuple[str, ...] = ()


@dataclass
class AnalysisJob:
    """What to check, with which checkers, and how to report it."""
    sources: list[SourceDescriptor] = field(default_factory=list)
    checkers: list[tuple[str, str | None]] = field(default_factory=list)
    memory_units: int | None = None
    output_format: str = "console"
    output_path: str | None = None
    preprocess_command: str | None = None
    min_importance: Importance = Importance.WARNING


def read_text(path: str, what: str = "") -> str:
    """The text of a UTF-8 file, a leading byte order mark dropped.
    One that cannot be read or decoded is a ConfigError:
    `cannot read [WHAT ]PATH: reason`."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(
            f"cannot read {what + ' ' if what else ''}{path}: {exc}") from exc


def load_compilation_database(path: str) -> list[SourceDescriptor]:
    """Read a JSON array of {file, flags} entries.

    A relative `file` is resolved against the database's own directory;
    an absolute one is kept as it is. The flags go to the preprocessor
    unchanged, and it runs in the working directory, so a relative path
    in them (`-Iinc`) is resolved against the working directory, not
    the database's. Duplicate files (by absolute path, so `a.c` and
    `./a.c` are one) keep their first position and spelling but take
    the last entry's flags.
    """
    text = read_text(path, "compilation database")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed compilation database {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ConfigError(f"{path}: compilation database must be a JSON array")
    base = os.path.dirname(path)
    by_file: dict[str, SourceDescriptor] = {}
    for i, entry in enumerate(data):
        if (not isinstance(entry, dict)
                or not isinstance(entry.get("file"), str)
                or not isinstance(entry.get("flags"), list)
                or not all(isinstance(f, str) for f in entry["flags"])):
            raise ConfigError(
                f"{path}: entry {i} needs a string 'file' and a string list 'flags'")
        file = os.path.join(base, entry["file"])  # kept if absolute
        key = os.path.abspath(file)
        spelling = by_file[key].path if key in by_file else file
        by_file[key] = SourceDescriptor(spelling, tuple(entry["flags"]))
    return list(by_file.values())


def expand_directory(path: str, recursive: bool) -> list[str]:
    if not os.path.isdir(path):
        raise ConfigError(f"not a directory: {path}")
    if recursive:
        found = []
        for root, _dirs, files in os.walk(path):
            found.extend(os.path.join(root, f)
                         for f in files if f.endswith(".c"))
        return sorted(found)
    return sorted(
        os.path.join(path, f) for f in os.listdir(path)
        if f.endswith(".c") and os.path.isfile(os.path.join(path, f)))


def read_list_file(path: str) -> list[str]:
    """Its lines but blanks and `#` comments, decoded as file names, a
    leading UTF-8 byte order mark dropped."""
    try:
        with open(path, "rb") as handle:
            text = os.fsdecode(handle.read().removeprefix(codecs.BOM_UTF8))
    except OSError as exc:
        raise ConfigError(f"cannot read list file {path}: {exc}") from exc
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def parse_checker_spec(spec: str) -> tuple[str, str | None]:
    name, sep, config = spec.partition(":")
    if not name:
        raise ConfigError(f"bad checker spec {spec!r}")
    return name, (config if sep else None)
