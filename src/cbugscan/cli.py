"""Command-line interface.

Exit codes: 0 = clean run, 1 = at least one error-importance finding,
2 = usage, configuration, or frontend failure, 3 = internal error: any
other exception, reported as `cbugscan: internal error: TYPE: message`.
"""

from __future__ import annotations

import argparse
import os
import sys

from cbugscan.checkers import builtin_registry
from cbugscan.config import (
    AnalysisJob,
    SourceDescriptor,
    expand_directory,
    load_compilation_database,
    parse_checker_spec,
    read_list_file,
)
from cbugscan.engine import run_job
from cbugscan.errors import CbugscanError, ConfigError
from cbugscan.frontend.ast_nodes import dump_sexpr
from cbugscan.frontend.parser import parse
from cbugscan.frontend.preprocess import preprocess_source
from cbugscan.ir.cfg import cfg_to_dot
from cbugscan.ir.units import load_unit
from cbugscan.report import (
    EXPORTERS,
    Importance,
    Triage,
    TriageDb,
    format_statistics,
    traces_from_json,
)

USAGE = """\
usage: cbugscan COMMAND ...

commands:
  check [--dir D]... [--list F]... [--compdb F]... [FILE]...
        --checker NAME[:CONFIG]... [--memory-units N]
        [--format json|xml|console] [--output PATH] [--preprocess CMD]
        [--recursive] [--min-importance warning|error]
                         run checkers over the given sources
  dump-ast FILE          print the file's syntax tree
  dump-cfg FILE [--function NAME]
                         print control flow graphs as DOT
  report DB [--traces FILE]
                         triage statistics from a journal (+ report file)
  triage DB ID real|false-positive [--report FILE]
                         record a triage verdict for one finding
"""


class CliParser(argparse.ArgumentParser):
    """argparse that reports errors as exceptions instead of exiting."""

    def error(self, message: str):
        raise ConfigError(message)


def check_arg_parser() -> argparse.ArgumentParser:
    parser = CliParser(prog="cbugscan check", add_help=False)
    parser.add_argument("files", nargs="*", metavar="FILE")
    parser.add_argument("--dir", action="append", default=[])
    parser.add_argument("--list", action="append", default=[])
    parser.add_argument("--compdb", action="append", default=[])
    parser.add_argument("--checker", action="append", default=[],
                        metavar="NAME[:CONFIG]")
    parser.add_argument("--memory-units", type=int, default=None)
    parser.add_argument("--format", choices=["json", "xml", "console"],
                        default="console")
    parser.add_argument("--output", default=None)
    parser.add_argument("--preprocess", default=None, metavar="CMD")
    parser.add_argument("--recursive", action="store_true")
    parser.add_argument("--min-importance", choices=["warning", "error"],
                        default="warning")
    return parser


def build_job(argv: list[str]) -> AnalysisJob:
    """Turn `check ...` command-line arguments into a validated job."""
    if not argv or argv[0] != "check":
        raise ConfigError("build_job expects a 'check' command line")
    args = check_arg_parser().parse_args(argv[1:])

    sources: list[SourceDescriptor] = []
    seen_paths: set[str] = set()

    def add(descriptor: SourceDescriptor) -> None:
        if descriptor.path not in seen_paths:
            seen_paths.add(descriptor.path)
            sources.append(descriptor)

    for path in args.files:
        add(SourceDescriptor(path))
    for directory in args.dir:
        for path in expand_directory(directory, args.recursive):
            add(SourceDescriptor(path))
    for list_path in args.list:
        for path in read_list_file(list_path):
            add(SourceDescriptor(path))
    for compdb_path in args.compdb:
        for descriptor in load_compilation_database(compdb_path):
            add(descriptor)

    if not sources:
        raise ConfigError("no source files given")
    for descriptor in sources:
        if not os.path.isfile(descriptor.path):
            raise ConfigError(f"no such source file: {descriptor.path}")

    if not args.checker:
        raise ConfigError("at least one --checker is required")
    registry = builtin_registry()
    checkers: list[tuple[str, str | None]] = []
    for spec in args.checker:
        name, config_path = parse_checker_spec(spec)
        if name not in registry.names():
            known = ", ".join(registry.names())
            raise ConfigError(f"unknown checker {name!r} (known: {known})")
        if any(existing == name for existing, _ in checkers):
            raise ConfigError(f"checker {name!r} listed twice")
        if config_path is not None and not os.path.isfile(config_path):
            raise ConfigError(f"unreadable checker config: {config_path}")
        checkers.append((name, config_path))

    if args.memory_units is not None and args.memory_units < 1:
        raise ConfigError("--memory-units must be at least 1")

    return AnalysisJob(
        sources=sources,
        checkers=checkers,
        memory_units=args.memory_units,
        output_format=args.format,
        output_path=args.output,
        preprocess_command=args.preprocess,
        min_importance=Importance(args.min_importance),
    )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        sys.stderr.write(USAGE)
        return 2
    if argv[0] in ("-h", "--help", "help"):
        sys.stdout.write(USAGE)
        return 0
    command = argv[0]
    try:
        if command == "check":
            return _cmd_check(argv)
        if command == "dump-ast":
            return _cmd_dump_ast(argv[1:])
        if command == "dump-cfg":
            return _cmd_dump_cfg(argv[1:])
        if command == "report":
            return _cmd_report(argv[1:])
        if command == "triage":
            return _cmd_triage(argv[1:])
        sys.stderr.write(f"cbugscan: unknown command {command!r}\n{USAGE}")
        return 2
    except CbugscanError as exc:
        sys.stderr.write(f"cbugscan: {exc}\n")
        return 2
    except Exception as exc:  # a crash is never a finding
        sys.stderr.write(
            f"cbugscan: internal error: {type(exc).__name__}: {exc}\n")
        return 3


def _cmd_check(argv: list[str]) -> int:
    job = build_job(argv)
    result = run_job(job)
    for diagnostic in result.diagnostics:
        sys.stderr.write(f"cbugscan: {diagnostic}\n")
    rendered = EXPORTERS[job.output_format](result.traces)
    if job.output_path:
        try:
            with open(job.output_path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise ConfigError(f"cannot write {job.output_path}: {exc}") from exc
    else:
        sys.stdout.write(rendered)
    return 1 if result.has_errors() else 0


def _cmd_dump_ast(argv: list[str]) -> int:
    parser = CliParser(prog="cbugscan dump-ast", add_help=False)
    parser.add_argument("file")
    args = parser.parse_args(argv)
    text = preprocess_source(args.file)
    sys.stdout.write(dump_sexpr(parse(text, args.file)) + "\n")
    return 0


def _cmd_dump_cfg(argv: list[str]) -> int:
    parser = CliParser(prog="cbugscan dump-cfg", add_help=False)
    parser.add_argument("file")
    parser.add_argument("--function", default=None)
    args = parser.parse_args(argv)
    unit = load_unit(args.file)
    names = list(unit.cfgs)
    if args.function is not None:
        if args.function not in unit.cfgs:
            raise ConfigError(
                f"no function {args.function!r} in {args.file}")
        names = [args.function]
    sys.stdout.write("\n".join(cfg_to_dot(unit.cfgs[n]) for n in names) + "\n")
    return 0


def _cmd_report(argv: list[str]) -> int:
    parser = CliParser(prog="cbugscan report", add_help=False)
    parser.add_argument("db")
    parser.add_argument("--traces", default=None)
    args = parser.parse_args(argv)
    db = TriageDb(args.db)
    if args.traces is None:
        verdicts = db.entries()
        real = sum(1 for v in verdicts.values() if v is Triage.REAL)
        false = sum(1 for v in verdicts.values() if v is Triage.FALSE_POSITIVE)
        sys.stdout.write(
            f"{len(verdicts)} triaged findings: {real} real, "
            f"{false} false positives\n")
        return 0
    try:
        with open(args.traces, encoding="utf-8") as handle:
            traces = traces_from_json(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.traces}: {exc}") from exc
    traces = db.apply(traces)
    sys.stdout.write(format_statistics(traces))
    return 0


def _cmd_triage(argv: list[str]) -> int:
    parser = CliParser(prog="cbugscan triage", add_help=False)
    parser.add_argument("db")
    parser.add_argument("error_id")
    parser.add_argument("status", choices=["real", "false-positive"])
    parser.add_argument("--report", default=None)
    args = parser.parse_args(argv)
    if args.report is not None:
        try:
            with open(args.report, encoding="utf-8") as handle:
                traces = traces_from_json(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.report}: {exc}") from exc
        if all(t.id != args.error_id for t in traces):
            sys.stderr.write(
                f"cbugscan: warning: id {args.error_id} not present in "
                f"{args.report}; recorded anyway\n")
    TriageDb(args.db).record(args.error_id, Triage(args.status))
    return 0


if __name__ == "__main__":
    sys.exit(main())
