"""Config-file errors common to the three configurable checkers.

Each checker reads its own directive language, but opening the file and
splitting it into lines and words is shared, so the error text for a
missing path, an unreadable file, bad quoting and an unknown directive
must be the same for all of them, and each locates a pattern that does
not parse by file and line.
"""

import pytest

from cbugscan.checkers import AutomatonChecker, LockstatChecker, ThreadChecker
from cbugscan.errors import ConfigError


def no_path(tmp_path, name):
    return None, f"{name} checker requires a config file"


def unreadable_path(tmp_path, name):
    path = str(tmp_path / "gone.conf")
    return path, (f"cannot read {path}: "
                  f"[Errno 2] No such file or directory: {path!r}")


def unterminated_quote(tmp_path, name):
    path = tmp_path / "quote.conf"
    path.write_text("# comment\n\nwhatever \"unterminated\n")
    return str(path), f"{path}:3: No closing quotation"


def unknown_directive(tmp_path, name):
    path = tmp_path / "unknown.conf"
    path.write_text("# comment\n   frobnicate   x   # trailing\n")
    return str(path), f"{path}:2: cannot parse 'frobnicate   x   # trailing'"


def bad_pattern(tmp_path, name):
    path = tmp_path / "bad.aut"
    if name == "automaton":
        path.write_text('automaton a\nstates s\nstart s\npattern p "f(("\n')
        shown = "'p'"
    else:
        path.write_text('# lock lines\nlock "g()" unlock "h()"\n\n'
                        'lock "f(("\n')
        shown = "'f(('"
    return str(path), (f"{path}:4: invalid pattern {shown}: "
                       "<pattern>:1:4: expected expression, found 'eof'")


@pytest.mark.parametrize("case", [
    no_path, unreadable_path, unterminated_quote, unknown_directive,
    bad_pattern])
@pytest.mark.parametrize("checker_class", [
    AutomatonChecker, LockstatChecker, ThreadChecker])
def test_config_error_text(tmp_path, checker_class, case):
    path, expected = case(tmp_path, checker_class.name)
    with pytest.raises(ConfigError) as err:
        checker_class(path)
    assert str(err.value) == expected
