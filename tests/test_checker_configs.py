"""Config-file errors common to the three configurable checkers.

Each checker reads its own directive language, but opening the file and
splitting it into lines and words is shared, so the error text for a
missing path, an unreadable file, bad quoting and an unknown directive
must be the same for all of them, and each locates a pattern that does
not parse by file and line. The errors of each checker's own directives
are pinned by their exact text too.
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


AUTOMATON_HEAD = 'automaton a\nstates U L\nstart U\npattern p "f()"\n'


# (checker, config text, the error for a file `c.conf`)
EXACT_ERRORS = [
    (AutomatonChecker, "states U\n",
     "c.conf:1: directive before 'automaton NAME'"),
    (AutomatonChecker, 'pattern p "f(("\n',
     "c.conf:1: directive before 'automaton NAME'"),
    (AutomatonChecker, "frobnicate\nautomaton a\n",
     "c.conf:1: cannot parse 'frobnicate'"),
    (AutomatonChecker, AUTOMATON_HEAD + "transition U p L\n",
     "c.conf:5: cannot parse 'transition U p L'"),
    (AutomatonChecker, AUTOMATON_HEAD + "transition U p -> L\nerror U p x\n",
     "c.conf:6: duplicate rule for ('U', 'p')"),
    (AutomatonChecker, AUTOMATON_HEAD + "error-at-exit L x\n"
     "error-at-exit L y\n",
     "c.conf:6: duplicate rule for error-at-exit 'L'"),
    # a directive that holds one value may be given once
    (AutomatonChecker, AUTOMATON_HEAD + "start L\n",
     "c.conf:5: duplicate start"),
    (AutomatonChecker, "automaton a\nstates U L U\n",
     "c.conf:2: duplicate state 'U'"),
    (AutomatonChecker, "automaton a\nstates U L\nstates L\n",
     "c.conf:3: duplicate state 'L'"),
    (AutomatonChecker, "automaton a b\n",
     "c.conf:1: cannot parse 'automaton a b'"),
    (AutomatonChecker, "automaton a\nstart U\nautomaton b\nfrobnicate\n",
     "c.conf: automaton 'a': no states declared"),
    (AutomatonChecker, "# none\n", "c.conf: no automata defined"),
    (LockstatChecker, "access x\nthreshold 7/x\n", "c.conf:2: bad threshold"),
    (LockstatChecker, "access x\nthreshold 1/0\n", "c.conf:2: bad threshold"),
    (LockstatChecker, "access x\nthreshold 0\n",
     "c.conf:2: threshold must be in (0, 1]"),
    (LockstatChecker, "access x\nthreshold 1.5\n",
     "c.conf:2: threshold must be in (0, 1]"),
    (LockstatChecker, "access x\nthreshold 1/2\nthreshold 1\n",
     "c.conf:3: duplicate threshold"),
    (LockstatChecker, "min-samples 2\nmin-samples 3\n",
     "c.conf:2: duplicate min-samples"),
    (LockstatChecker, "min-samples five\n", "c.conf:1: bad min-samples"),
    (LockstatChecker, "min-samples 0\n",
     "c.conf:1: min-samples must be at least 1"),
    (LockstatChecker, "access x y\n", "c.conf:1: cannot parse 'access x y'"),
    (LockstatChecker, "lock x unlock\n",
     "c.conf:1: cannot parse 'lock x unlock'"),
    (LockstatChecker, "lock x\n", "c.conf: no access patterns configured"),
    (ThreadChecker, "max-cycles 2\nmax-cycles 3\n",
     "c.conf:2: duplicate max-cycles"),
    (ThreadChecker, "max-cycles many\n", "c.conf:1: bad max-cycles"),
    (ThreadChecker, "max-cycles 0\n",
     "c.conf:1: max-cycles must be at least 1"),
    (ThreadChecker, 'spawn "run(%G)"\n',
     "c.conf:1: spawn template must bind %F"),
    (ThreadChecker, "entry a b\n", "c.conf:1: cannot parse 'entry a b'"),
    (ThreadChecker, "unlock x y\n", "c.conf:1: cannot parse 'unlock x y'"),
]


@pytest.mark.parametrize("checker_class, text, expected", EXACT_ERRORS,
                         ids=[case[2] for case in EXACT_ERRORS])
def test_config_error_exact_text(tmp_path, monkeypatch, checker_class, text,
                                 expected):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.conf").write_text(text)
    with pytest.raises(ConfigError) as err:
        checker_class("c.conf")
    assert str(err.value) == expected
