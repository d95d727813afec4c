import json
import re
import shutil

import pytest

from cbugscan.cli import build_job, main
from cbugscan.config import (
    SourceDescriptor,
    expand_directory,
    load_compilation_database,
    parse_checker_spec,
    read_list_file,
)
from cbugscan.errors import ConfigError
from cbugscan.report import Importance


def touch(path, text="void f(void) { }\n"):
    path.write_text(text)
    return str(path)


# -- argument and file parsing ------------------------------------------------------

def test_parse_checker_spec():
    assert parse_checker_spec("reach") == ("reach", None)
    assert parse_checker_spec("automaton:/tmp/a.aut") == ("automaton", "/tmp/a.aut")
    with pytest.raises(ConfigError):
        parse_checker_spec(":/tmp/a.aut")


def test_expand_directory_non_recursive(tmp_path):
    touch(tmp_path / "b.c")
    touch(tmp_path / "a.c")
    (tmp_path / "notes.txt").write_text("")
    sub = tmp_path / "sub"
    sub.mkdir()
    touch(sub / "c.c")
    found = expand_directory(str(tmp_path), recursive=False)
    assert [p.rsplit("/", 1)[1] for p in found] == ["a.c", "b.c"]


def test_expand_directory_recursive(tmp_path):
    touch(tmp_path / "a.c")
    sub = tmp_path / "sub"
    sub.mkdir()
    touch(sub / "c.c")
    found = expand_directory(str(tmp_path), recursive=True)
    assert [p.rsplit("/", 1)[1] for p in found] == ["a.c", "c.c"]


def test_expand_directory_rejects_files(tmp_path):
    path = touch(tmp_path / "a.c")
    with pytest.raises(ConfigError):
        expand_directory(path, recursive=False)


def test_read_list_file_skips_comments_and_blanks(tmp_path):
    listing = tmp_path / "files.lst"
    listing.write_text("# header\n\none.c\n  two.c  \n# trailing\n")
    assert read_list_file(str(listing)) == ["one.c", "two.c"]


def test_read_list_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        read_list_file(str(tmp_path / "nope.lst"))


def test_compilation_database_flags(tmp_path):
    db = tmp_path / "compile.json"
    db.write_text(json.dumps([
        {"file": "a.c", "flags": ["-DA=1"]},
        {"file": "b.c", "flags": []},
    ]))
    assert load_compilation_database(str(db)) == [
        SourceDescriptor(str(tmp_path / "a.c"), ("-DA=1",)),
        SourceDescriptor(str(tmp_path / "b.c"), ()),
    ]


def test_compilation_database_duplicate_keeps_position_takes_last_flags(tmp_path):
    db = tmp_path / "compile.json"
    db.write_text(json.dumps([
        {"file": "a.c", "flags": ["-DOLD"]},
        {"file": "b.c", "flags": []},
        {"file": "a.c", "flags": ["-DMID"]},
        {"file": "./a.c", "flags": ["-DNEW"]},
    ]))
    assert load_compilation_database(str(db)) == [
        SourceDescriptor(str(tmp_path / "a.c"), ("-DNEW",)),
        SourceDescriptor(str(tmp_path / "b.c"), ()),
    ]


def test_compilation_database_resolves_files_against_its_directory(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "sub").mkdir()
    touch(tmp_path / "sub" / "a.c")
    (tmp_path / "sub" / "compile.json").write_text(
        json.dumps([{"file": "a.c", "flags": []}]))
    monkeypatch.chdir(tmp_path)
    assert load_compilation_database("sub/compile.json") == [
        SourceDescriptor("sub/a.c")]
    assert main(["check", "--compdb", "sub/compile.json",
                 "--checker", "reach"]) == 0
    assert "no such source file" not in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("cpp") is None, reason="needs a C preprocessor")
def test_compilation_database_flags_resolve_against_the_working_directory(
        tmp_path, monkeypatch, capsys):
    """Only `file` is read from the database's directory: its flags go
    to the preprocessor unchanged, which runs in the working directory."""
    (tmp_path / "sub" / "inc").mkdir(parents=True)
    (tmp_path / "sub" / "inc" / "h.h").write_text("#define TAKE mutex_lock\n")
    touch(tmp_path / "sub" / "a.c",
          '#include "h.h"\nint m;\nvoid f(void) {\n    TAKE(&m);\n}\n')
    database = tmp_path / "sub" / "compile.json"
    monkeypatch.chdir(tmp_path)
    argv = ["check", "--compdb", "sub/compile.json", "--checker", "automaton",
            "--preprocess", "cpp"]
    database.write_text(json.dumps([{"file": "a.c", "flags": ["-Isub/inc"]}]))
    assert main(argv) == 1
    assert capsys.readouterr().out.startswith(
        "ERROR [automaton] lock &m held at exit (sub/a.c:5)\n")
    database.write_text(json.dumps([{"file": "a.c", "flags": ["-Iinc"]}]))
    assert main(argv) == 0
    assert capsys.readouterr().err.startswith(
        "cbugscan: skipping sub/a.c: preprocessor failed for 'sub/a.c'")


@pytest.mark.parametrize("payload", [
    '{"file": "a.c"}',
    '[{"file": "a.c"}]',
    '[{"flags": []}]',
    '[{"file": 3, "flags": []}]',
    '[{"file": "a.c", "flags": "-DX"}]',
    '[{"file": "a.c", "flags": [1]}]',
    '[{"file": "a.c", "flags": []}, {"file": "b.c"}]',
    "not json",
])
def test_compilation_database_validation(tmp_path, payload):
    db = tmp_path / "compile.json"
    db.write_text(payload)
    with pytest.raises(ConfigError, match=re.escape(str(db))):
        load_compilation_database(str(db))


def test_compilation_database_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_compilation_database(str(tmp_path / "nope.json"))


# -- job assembly -------------------------------------------------------------------

def test_build_job_defaults(tmp_path):
    source = touch(tmp_path / "a.c")
    job = build_job(["check", source, "--checker", "reach"])
    assert job.sources == [SourceDescriptor(source)]
    assert job.checkers == [("reach", None)]
    assert job.memory_units is None
    assert job.output_format == "console"
    assert job.output_path is None
    assert job.preprocess_command is None
    assert job.min_importance is Importance.WARNING


def test_build_job_gathers_sources_in_input_group_order(tmp_path):
    explicit = touch(tmp_path / "z_explicit.c")
    directory = tmp_path / "dir"
    directory.mkdir()
    dir_b = touch(directory / "b.c")
    dir_a = touch(directory / "a.c")
    listed = touch(tmp_path / "listed.c")
    listing = tmp_path / "files.lst"
    listing.write_text(listed + "\n")
    from_db = touch(tmp_path / "from_db.c")
    db = tmp_path / "compile.json"
    db.write_text(json.dumps([{"file": from_db, "flags": ["-DX"]}]))

    job = build_job([
        "check", explicit,
        "--dir", str(directory),
        "--list", str(listing),
        "--compdb", str(db),
        "--checker", "reach",
    ])
    assert [s.path for s in job.sources] == [explicit, dir_a, dir_b, listed, from_db]
    assert job.sources[-1].flags == ("-DX",)


def test_duplicate_sources_keep_first_entry(tmp_path, monkeypatch):
    (tmp_path / "dir").mkdir()
    source = touch(tmp_path / "dir" / "a.c")
    db = tmp_path / "compile.json"
    db.write_text(json.dumps([{"file": source, "flags": ["-DX"]}]))
    monkeypatch.chdir(tmp_path)
    job = build_job(["check", "dir/a.c", "dir/a.c", "./dir/a.c", "dir//a.c",
                     source, "--dir", "dir", "--compdb", str(db),
                     "--checker", "reach"])
    # the first spelling is kept; compdb flags are not reached
    assert job.sources == [SourceDescriptor("dir/a.c")]


def test_build_job_options(tmp_path):
    source = touch(tmp_path / "a.c")
    config = tmp_path / "locks.aut"
    config.write_text("automaton a\nstates S\nstart S\n")
    job = build_job([
        "check", source,
        "--checker", f"automaton:{config}",
        "--checker", "reach",
        "--memory-units", "2",
        "--format", "json",
        "--output", str(tmp_path / "out.json"),
        "--preprocess", "cpp -P",
        "--min-importance", "error",
    ])
    assert job.checkers == [("automaton", str(config)), ("reach", None)]
    assert job.memory_units == 2
    assert job.output_format == "json"
    assert job.preprocess_command == "cpp -P"
    assert job.min_importance is Importance.ERROR


@pytest.mark.parametrize("argv_tail, needle", [
    ([], "no source files"),
    (["missing.c"], "no such source file"),
    (["{src}"], "at least one --checker"),
    (["{src}", "--checker", "mystery"], "unknown checker"),
    (["{src}", "--checker", "reach", "--checker", "reach"], "listed twice"),
    (["{src}", "--checker", "automaton:/nope.aut"], "unreadable checker config"),
    (["{src}", "--checker", "reach", "--memory-units", "0"], "at least 1"),
    (["{src}", "--checker", "reach", "--format", "yaml"], "invalid choice"),
    (["{src}", "--checker", "reach", "--mystery-flag"], "unrecognized"),
])
def test_build_job_rejections(tmp_path, argv_tail, needle):
    source = touch(tmp_path / "a.c")
    argv = ["check"] + [arg.format(src=source) for arg in argv_tail]
    with pytest.raises(ConfigError) as info:
        build_job(argv)
    assert needle in str(info.value)


def test_build_job_requires_check_command():
    with pytest.raises(ConfigError):
        build_job(["scan", "a.c"])
