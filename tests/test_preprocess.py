import pytest

from cbugscan.errors import FrontendError
from cbugscan.frontend import preprocess_source


def test_mode_none_reads_verbatim(tmp_path):
    src = tmp_path / "a.c"
    src.write_text("int x;\n")
    assert preprocess_source(str(src)) == "int x;\n"


def test_mode_none_missing_file(tmp_path):
    with pytest.raises(FrontendError) as err:
        preprocess_source(str(tmp_path / "gone.c"))
    assert "gone.c" in str(err.value)


def test_external_command_pipes_through(tmp_path):
    src = tmp_path / "a.c"
    src.write_text("ignored\n")
    out = preprocess_source(str(src), command="echo preprocessed")
    # `echo preprocessed <path>` output starts with our marker
    assert out.startswith("preprocessed ")


def test_external_command_receives_flags(tmp_path):
    src = tmp_path / "a.c"
    src.write_text("x\n")
    out = preprocess_source(str(src), flags=("-DF=1",), command="echo")
    assert "-DF=1" in out
    assert str(src) in out


def test_external_command_failure_carries_stderr(tmp_path):
    src = tmp_path / "a.c"
    src.write_text("x\n")
    script = tmp_path / "fail.sh"
    script.write_text("#!/bin/sh\necho 'boom: bad flag' >&2\nexit 3\n")
    script.chmod(0o755)
    with pytest.raises(FrontendError) as err:
        preprocess_source(str(src), command=str(script))
    assert "exit 3" in str(err.value)
    assert "boom" in str(err.value)


def test_missing_preprocessor_binary(tmp_path):
    src = tmp_path / "a.c"
    src.write_text("x\n")
    with pytest.raises(FrontendError) as err:
        preprocess_source(str(src), command="/nonexistent/cpp-binary")
    assert "cannot run" in str(err.value)
