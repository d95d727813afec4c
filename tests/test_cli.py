import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import cbugscan
from cbugscan import cli
from cbugscan.cli import main
from cbugscan.report import traces_from_json

DEAD_CODE = """
void f(void) {
    return;
    cleanup();
}
"""

DOUBLE_LOCK = """
void f(void) {
    mutex_lock(&m);
    mutex_lock(&m);
    mutex_unlock(&m);
}
"""

CLEAN = """
void f(void) {
    step();
}
"""

SEMICOLON_THEN_DEAD = """
void f(int cond) {
    if (cond);
    return;
    x = 1;
}
"""


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return str(path)


# -- top level ----------------------------------------------------------------------

def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: cbugscan COMMAND")


def test_help_exits_zero(capsys):
    assert main(["help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cbugscan COMMAND")


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    assert "unknown command 'frobnicate'" in capsys.readouterr().err


def test_config_errors_exit_two(capsys):
    assert main(["check", "--checker", "reach"]) == 2
    assert "cbugscan: no source files given" in capsys.readouterr().err


# -- check --------------------------------------------------------------------------

def test_check_reports_errors_and_exits_one(tmp_path, capsys):
    source = write(tmp_path, "a.c", DEAD_CODE)
    assert main(["check", source, "--checker", "reach"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ERROR [reach] unreachable code")
    assert f"{source}:4" in out


def test_check_clean_exits_zero(tmp_path, capsys):
    source = write(tmp_path, "a.c", CLEAN)
    assert main(["check", source, "--checker", "reach"]) == 0
    assert capsys.readouterr().out == "no errors found.\n"


def test_check_default_checker_configs(tmp_path, capsys):
    source = write(tmp_path, "a.c", DOUBLE_LOCK)
    assert main(["check", source, "--checker", "automaton"]) == 1
    assert "double lock of &m" in capsys.readouterr().out


def test_check_json_output_to_file(tmp_path, capsys):
    source = write(tmp_path, "a.c", DEAD_CODE)
    out_path = tmp_path / "report.json"
    code = main(["check", source, "--checker", "reach",
                 "--format", "json", "--output", str(out_path)])
    assert code == 1
    assert capsys.readouterr().out == ""
    traces = traces_from_json(out_path.read_text())
    assert len(traces) == 1
    assert traces[0].checker == "reach"


def test_check_warning_only_exits_zero(tmp_path, capsys):
    source = write(tmp_path, "a.c", "void f(int c) { if (c); }")
    assert main(["check", source, "--checker", "reach"]) == 0
    assert "WARNING [reach] superfluous semicolon" in capsys.readouterr().out


def test_check_min_importance_suppresses_warnings(tmp_path, capsys):
    source = write(tmp_path, "a.c", SEMICOLON_THEN_DEAD)
    assert main(["check", source, "--checker", "reach"]) == 1
    full = capsys.readouterr().out
    assert "superfluous semicolon" in full and "unreachable code" in full

    assert main(["check", source, "--checker", "reach",
                 "--min-importance", "error"]) == 1
    filtered = capsys.readouterr().out
    assert "superfluous semicolon" not in filtered
    assert "unreachable code" in filtered


def test_check_unparseable_file_diagnostic_on_stderr(tmp_path, capsys):
    bad = write(tmp_path, "bad.c", "void broken( {")
    good = write(tmp_path, "good.c", CLEAN)
    assert main(["check", bad, good, "--checker", "reach"]) == 0
    captured = capsys.readouterr()
    assert f"cbugscan: skipping {bad}:" in captured.err
    assert captured.out == "no errors found.\n"


def test_check_multiple_checkers_combined(tmp_path, capsys):
    source = write(tmp_path, "a.c", DOUBLE_LOCK + DEAD_CODE.replace("void f", "void g"))
    assert main(["check", source, "--checker", "automaton",
                 "--checker", "reach"]) == 1
    out = capsys.readouterr().out
    assert "double lock of &m" in out
    assert "unreachable code" in out


@pytest.mark.parametrize("command", ['cat "', " "])
def test_check_with_a_bad_preprocessor_command_exits_two(tmp_path, capsys,
                                                         command):
    source = write(tmp_path, "a.c", DEAD_CODE)
    assert main(["check", source, "--checker", "reach",
                 "--preprocess", command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cbugscan: bad preprocessor command")


def test_check_unwritable_output_exits_two(tmp_path, capsys):
    source = write(tmp_path, "a.c", CLEAN)
    code = main(["check", source, "--checker", "reach",
                 "--output", str(tmp_path / "no" / "dir" / "out.json")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


# -- dump commands ---------------------------------------------------------------------

def test_dump_ast(tmp_path, capsys):
    source = write(tmp_path, "a.c", CLEAN)
    assert main(["dump-ast", source]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(TranslationUnitRoot")
    assert "FunctionDef" in out


def test_dump_ast_missing_file(tmp_path, capsys):
    assert main(["dump-ast", str(tmp_path / "nope.c")]) == 2
    assert "cbugscan:" in capsys.readouterr().err


def test_dump_ast_syntax_error(tmp_path, capsys):
    source = write(tmp_path, "bad.c", "void broken( {")
    assert main(["dump-ast", source]) == 2
    assert "cbugscan:" in capsys.readouterr().err


def test_dump_cfg_all_functions(tmp_path, capsys):
    source = write(tmp_path, "a.c", CLEAN + "void g(void) { more(); }")
    assert main(["dump-cfg", source]) == 0
    out = capsys.readouterr().out
    assert out.count("digraph") == 2


def test_dump_cfg_single_function(tmp_path, capsys):
    source = write(tmp_path, "a.c", CLEAN + "void g(void) { more(); }")
    assert main(["dump-cfg", source, "--function", "g"]) == 0
    out = capsys.readouterr().out
    assert out.count("digraph") == 1
    assert '"g"' in out


def test_dump_cfg_unknown_function(tmp_path, capsys):
    source = write(tmp_path, "a.c", CLEAN)
    assert main(["dump-cfg", source, "--function", "ghost"]) == 2
    assert "no function 'ghost'" in capsys.readouterr().err


def test_dump_ast_of_a_3000_term_sum(tmp_path, capsys):
    terms = " + ".join(["x"] * 3000)
    source = write(tmp_path, "sum.c",
                   f"int f(int x) {{ x = {terms}; return x; }}\n")
    assert main(["dump-ast", source]) == 0
    out = capsys.readouterr().out
    assert out.count('(BinaryOp "+"') == 2999
    assert out.count("(") == out.count(")")
    assert len(out.encode()) < 1_000_000


def test_dump_cfg_of_a_3000_term_sum(tmp_path, capsys):
    terms = " + ".join(["x"] * 3000)
    source = write(tmp_path, "sum.c",
                   f"int f(int x) {{ x = {terms}; return x; }}\n")
    assert main(["dump-cfg", source]) == 0
    out = capsys.readouterr().out
    assert f'n2 [label="2: x = {terms};"];' in out
    assert 'n3 [label="3: return x;"];' in out


# 3,000 stacked unary prefixes: the parser collects them in a loop, so
# the tree is 3,000 deep but the parse takes no frame per prefix
_PREFIXED = {"neg": "- " * 3000 + "1", "deref": "*" * 3000 + "p"}


@pytest.mark.parametrize("shape", sorted(_PREFIXED))
def test_3000_unary_prefixes_are_checked_and_dumped(tmp_path, capsys, shape):
    source = write(tmp_path, "prefixed.c",
                   "void leak(int v) {\n    mutex_lock(&mx);\n    g(v);\n}\n"
                   f"void f(int x, int *p) {{\n    x = {_PREFIXED[shape]};\n}}\n")
    checkers = ["--checker", "automaton", "--checker", "lockstat",
                "--checker", "thread", "--checker", "reach"]
    assert main(["check", source, *checkers]) == 1
    out, err = capsys.readouterr()
    assert "lock &mx held at exit" in out and err == ""
    assert main(["dump-ast", source]) == 0
    assert capsys.readouterr().out.count(f'(UnaryOp "{shape}"') == 3000
    assert main(["dump-cfg", source, "--function", "f"]) == 0
    assert capsys.readouterr().out.count(" = ") == 1


# -- internal errors ---------------------------------------------------------------

def test_internal_error_exits_three_without_traceback(tmp_path, capsys,
                                                      monkeypatch):
    def crash(job):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "run_job", crash)
    source = write(tmp_path, "a.c", CLEAN)
    assert main(["check", source, "--checker", "reach"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cbugscan: internal error: ZeroDivisionError: boom\n"


@pytest.mark.skipif(shutil.which("cpp") is None, reason="needs a C preprocessor")
def test_cpp_line_markers_keep_original_locations(tmp_path, capsys):
    (tmp_path / "pp.h").write_text("/* pp.h */\n#define UNUSED 1\nint shared;\n")
    source = write(tmp_path, "pp.c", '#include "pp.h"\nvoid f(void) {\n'
                   "    mutex_lock(&m);\n}\n")
    reports = []
    for extra in ([], ["--preprocess", "cpp"]):
        out_path = tmp_path / "report.json"
        assert main(["check", source, "--checker", "automaton", *extra,
                     "--format", "json", "--output", str(out_path)]) == 1
        reports.append(json.loads(out_path.read_text()))
    plain, preprocessed = reports
    assert preprocessed == plain
    assert [(s["file"], s["line"]) for s in plain[0]["steps"]] == [
        (source, 3), (source, 4)]


# Twins of an ASCII file that gcc accepts as well: one starts with a
# UTF-8 byte order mark, one holds a Latin-1 byte in a comment.
ASCII_TWIN = (b"void f(void) { mutex_lock(&m); mutex_lock(&m); }\n"
              b"void g(void) {\n    /* cafe */ mutex_lock(&m);\n}\n")
ENCODED_TWINS = {
    "bom": b"\xef\xbb\xbf" + ASCII_TWIN,
    "latin1": ASCII_TWIN.replace(b"cafe", b"caf\xe9"),
}


def finding_positions(tmp_path, name, data, extra):
    source = tmp_path / name
    source.write_bytes(data)
    out_path = tmp_path / (name + ".json")
    assert main(["check", str(source), "--checker", "automaton", *extra,
                 "--format", "json", "--output", str(out_path)]) == 1
    return [(t["message"], [(s["line"], s["column"]) for s in t["steps"]])
            for t in json.loads(out_path.read_text())]


@pytest.mark.parametrize("extra", [[], ["--preprocess", "cat"]])
@pytest.mark.parametrize("twin", sorted(ENCODED_TWINS))
def test_bom_and_non_utf8_sources_report_like_their_ascii_twin(
        tmp_path, capsys, twin, extra):
    expected = finding_positions(tmp_path, "ascii.c", ASCII_TWIN, extra)
    assert [message for message, _ in expected] == [
        "double lock of &m", "lock &m held at exit", "lock &m held at exit"]
    assert finding_positions(tmp_path, "twin.c", ENCODED_TWINS[twin],
                             extra) == expected
    assert "skipping" not in capsys.readouterr().err


@pytest.mark.parametrize("twin", sorted(ENCODED_TWINS))
def test_dump_commands_read_bom_and_non_utf8_sources(tmp_path, capsys, twin):
    source = tmp_path / "twin.c"
    source.write_bytes(ENCODED_TWINS[twin])
    assert main(["dump-ast", str(source)]) == 0
    assert main(["dump-cfg", str(source)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ["json", "xml"])
def test_non_utf8_file_name_is_exported_to_output(tmp_path, capsys,
                                                  monkeypatch, fmt):
    monkeypatch.chdir(tmp_path)
    os.mkdir("d")
    try:
        with open(b"d/\xff.c", "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(DEAD_CODE))
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    assert main(["check", "--dir", "d", "--checker", "reach",
                 "--format", fmt, "--output", "out"]) == 1
    assert capsys.readouterr() == ("", "")
    data = (tmp_path / "out").read_bytes()
    trace_id = hashlib.sha256(
        b"reach|unreachable code|d/\xff.c:4:5").hexdigest()[:16]
    if fmt == "json":
        [trace] = json.loads(data)
        assert trace["id"] == trace_id
        assert trace["steps"][0]["file"] == \
            b"d/\xff.c".decode("utf-8", "surrogateescape")
    else:
        assert f'id="{trace_id}"'.encode() in data
        assert b'file="d/\xff.c"' in data


# -- report and triage -------------------------------------------------------------------

def check_to_json(tmp_path, source_text, name="a.c"):
    source = write(tmp_path, name, source_text)
    out_path = tmp_path / "report.json"
    main(["check", source, "--checker", "reach",
          "--format", "json", "--output", str(out_path)])
    return out_path


def test_triage_and_journal_report(tmp_path, capsys):
    report = check_to_json(tmp_path, DEAD_CODE)
    trace_id = json.loads(report.read_text())[0]["id"]
    db = tmp_path / "triage.db"

    assert main(["triage", str(db), trace_id, "real",
                 "--report", str(report)]) == 0
    assert capsys.readouterr().err == ""

    assert main(["report", str(db)]) == 0
    assert capsys.readouterr().out == \
        "1 triaged findings: 1 real, 0 false positives\n"


def test_triage_unknown_id_warns_but_records(tmp_path, capsys):
    report = check_to_json(tmp_path, DEAD_CODE)
    db = tmp_path / "triage.db"
    assert main(["triage", str(db), "feedfeedfeedfeed", "false-positive",
                 "--report", str(report)]) == 0
    err = capsys.readouterr().err
    assert "not present" in err and "recorded anyway" in err

    assert main(["report", str(db)]) == 0
    assert "0 real, 1 false positives" in capsys.readouterr().out


def test_triage_without_report_never_warns(tmp_path, capsys):
    db = tmp_path / "triage.db"
    assert main(["triage", str(db), "abc", "real"]) == 0
    assert capsys.readouterr().err == ""


def test_triage_rejects_unknown_status(tmp_path, capsys):
    db = tmp_path / "triage.db"
    assert main(["triage", str(db), "abc", "bogus"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_report_with_traces_formats_statistics(tmp_path, capsys):
    report = check_to_json(tmp_path, DEAD_CODE)
    trace_id = json.loads(report.read_text())[0]["id"]
    db = tmp_path / "triage.db"
    main(["triage", str(db), trace_id, "real"])
    capsys.readouterr()

    assert main(["report", str(db), "--traces", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("checker")
    assert "reach" in out
    assert "100.0%" in out
    assert "unreachable code" in out


def test_report_missing_traces_file(tmp_path, capsys):
    db = tmp_path / "triage.db"
    assert main(["report", str(db), "--traces", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_triage_into_missing_directory_exits_two(tmp_path, capsys):
    db = tmp_path / "nodir" / "db.tsv"
    assert main(["triage", str(db), "abc", "real"]) == 2
    assert f"cannot write {db}" in capsys.readouterr().err


def test_report_on_a_directory_exits_two(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2
    assert f"cannot read {tmp_path}" in capsys.readouterr().err


def test_report_journal_not_utf8_exits_two(tmp_path, capsys):
    db = tmp_path / "bad.tsv"
    db.write_bytes(b"abc\treal\t2026\n\xe9\treal\n")
    assert main(["report", str(db)]) == 2
    assert f"cannot read {db}: 'utf-8' codec" in capsys.readouterr().err


def test_report_traces_not_utf8_exits_two(tmp_path, capsys):
    traces = tmp_path / "bad.json"
    traces.write_bytes(b'[{"id": "\xe9"}]')
    assert main(["report", str(tmp_path / "triage.db"),
                 "--traces", str(traces)]) == 2
    assert f"cannot read {traces}: 'utf-8' codec" in capsys.readouterr().err


def test_triage_report_not_utf8_exits_two(tmp_path, capsys):
    report = tmp_path / "bad.json"
    report.write_bytes(b'[{"id": "\xe9"}]')
    db = tmp_path / "triage.db"
    assert main(["triage", str(db), "abc", "real", "--report", str(report)]) == 2
    assert f"cannot read {report}: 'utf-8' codec" in capsys.readouterr().err
    assert not db.exists()


# A checker config and a compilation database, each valid but for one
# Latin-1 byte: "cannot read [WHAT ]PATH" and exit 2.
NON_UTF8_INPUTS = {
    "config": ("automaton:", "", b"# caf\xe9\nautomaton a\nstates s\n"
               b"start s\npattern p \"f()\"\ntransition s p -> s\n"),
    "compdb": ("--compdb", "compilation database ",
               b'[{"file": "a.c", "flags": ["-DN=caf\xe9"]}]'),
}


@pytest.mark.parametrize("kind", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_files_exit_two(tmp_path, capsys, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "a.c", DEAD_CODE)
    option, what, data = NON_UTF8_INPUTS[kind]
    path = tmp_path / "bad.in"
    path.write_bytes(data)
    if kind == "config":
        argv = ["check", "a.c", "--checker", f"{option}{path}"]
    else:
        argv = ["check", option, str(path), "--checker", "reach"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"cbugscan: cannot read {what}{path}: 'utf-8' codec can't decode")


# Every text input may start with a UTF-8 byte order mark, as sources may.
BOM = b"\xef\xbb\xbf"


def test_a_config_with_a_byte_order_mark_is_read(tmp_path, capsys):
    source = write(tmp_path, "a.c", DOUBLE_LOCK)
    config = tmp_path / "bom.aut"
    config.write_bytes(BOM + b"# Locking discipline automaton.\n"
                       b"automaton a\nstates U L\nstart U\n"
                       b'pattern lock "mutex_lock(%X)"\n'
                       b"transition U lock -> L\n"
                       b'error L lock "double lock of %X"\n')
    assert main(["check", source, "--checker", f"automaton:{config}"]) == 1
    captured = capsys.readouterr()
    assert "double lock of &m" in captured.out and captured.err == ""


def test_a_compilation_database_with_a_byte_order_mark_is_read(tmp_path,
                                                               capsys):
    write(tmp_path, "a.c", DEAD_CODE)
    compdb = tmp_path / "compile.json"
    compdb.write_bytes(BOM + b'[{"file": "a.c", "flags": []}]')
    assert main(["check", "--compdb", str(compdb),
                 "--checker", "reach"]) == 1
    captured = capsys.readouterr()
    assert "unreachable code" in captured.out and captured.err == ""


def test_a_list_file_with_a_byte_order_mark_is_read(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "a.c", DEAD_CODE)
    (tmp_path / "files.lst").write_bytes(BOM + b"a.c\n")
    assert main(["check", "--list", "files.lst", "--checker", "reach"]) == 1
    captured = capsys.readouterr()
    assert "unreachable code" in captured.out and captured.err == ""


def test_traces_with_a_byte_order_mark_are_read(tmp_path, capsys):
    report = check_to_json(tmp_path, DEAD_CODE)
    report.write_bytes(BOM + report.read_bytes())
    assert main(["report", str(tmp_path / "triage.db"),
                 "--traces", str(report)]) == 0
    captured = capsys.readouterr()
    assert "unreachable code" in captured.out and captured.err == ""


def test_a_triage_report_with_a_byte_order_mark_is_read(tmp_path, capsys):
    report = check_to_json(tmp_path, DEAD_CODE)
    trace_id = json.loads(report.read_text())[0]["id"]
    report.write_bytes(BOM + report.read_bytes())
    assert main(["triage", str(tmp_path / "triage.db"), trace_id, "real",
                 "--report", str(report)]) == 0
    assert capsys.readouterr().err == ""


def test_a_journal_with_a_byte_order_mark_keeps_its_first_verdict(tmp_path,
                                                                  capsys):
    report = check_to_json(tmp_path, DEAD_CODE)
    trace_id = json.loads(report.read_text())[0]["id"]
    db = tmp_path / "db.tsv"
    db.write_bytes(BOM + f"{trace_id}\treal\t2026\n".encode())
    assert main(["report", str(db), "--traces", str(report)]) == 0
    assert "100.0%" in capsys.readouterr().out
    assert main(["report", str(db)]) == 0
    assert capsys.readouterr().out == \
        "1 triaged findings: 1 real, 0 false positives\n"


def test_list_file_names_a_non_utf8_file_as_dir_finds_it(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("d")
    try:
        with open(b"d/\xff.c", "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(DEAD_CODE))
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    (tmp_path / "files.lst").write_bytes(b"# caf\xe9\nd/\xff.c\n")
    reports = []
    for option, value in (("--dir", "d"), ("--list", "files.lst")):
        assert main(["check", option, value, "--checker", "reach",
                     "--format", "json", "--output", "out"]) == 1
        assert capsys.readouterr() == ("", "")
        reports.append((tmp_path / "out").read_bytes())
    [trace] = json.loads(reports[0])
    assert trace["message"] == "unreachable code"
    assert reports[1] == reports[0]


def test_missing_list_file_exits_two(tmp_path, capsys):
    path = tmp_path / "gone.lst"
    assert main(["check", "--list", str(path), "--checker", "reach"]) == 2
    assert capsys.readouterr().err == (
        f"cbugscan: cannot read list file {path}: "
        f"[Errno 2] No such file or directory: {str(path)!r}\n")


def test_report_empty_journal(tmp_path, capsys):
    assert main(["report", str(tmp_path / "triage.db")]) == 0
    assert capsys.readouterr().out == \
        "0 triaged findings: 0 real, 0 false positives\n"


# -- installed entry point -----------------------------------------------------------

def run_fresh(*args):
    """`python -m ARGS` in a fresh interpreter that imports the same
    cbugscan this test did."""
    src = os.path.dirname(os.path.dirname(cbugscan.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_script_help():
    proc = run_fresh("cbugscan.cli", "help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: cbugscan COMMAND")


def test_package_runs_as_a_module():
    proc = run_fresh("cbugscan", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: cbugscan COMMAND")
