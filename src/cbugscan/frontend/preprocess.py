"""Preprocessing hook: read sources directly or pipe them through an
external command (a real C preprocessor, a stub, a filter).
"""

from __future__ import annotations

import shlex

from cbugscan.errors import ConfigError, FrontendError


def command_words(command: str) -> list[str]:
    """The words of a preprocessor command line, split as a shell would;
    a ConfigError when a quote is left open or there is no word."""
    try:
        words = shlex.split(command)
    except ValueError as exc:
        raise ConfigError(
            f"bad preprocessor command {command!r}: {exc}") from exc
    if not words:
        raise ConfigError(f"bad preprocessor command {command!r}: no words")
    return words


def preprocess_source(path: str, flags: tuple[str, ...] = (),
                      command: str | None = None) -> str:
    """Return the source text for path.

    Without a command the file is read verbatim. With one, it runs
    `command + flags + [path]` and returns its stdout; a nonzero exit
    is a frontend error carrying the command's stderr, and a command
    that `command_words` rejects a ConfigError. Either text is
    read as UTF-8 with universal newlines, a leading byte order mark
    dropped and each byte that is not UTF-8 replaced by U+FFFD.
    """
    if command is None:
        try:
            with open(path, encoding="utf-8-sig", errors="replace") as handle:
                return handle.read()
        except OSError as err:
            raise FrontendError(f"cannot read source file {path!r}: {err}")
    import subprocess

    argv = command_words(command) + list(flags) + [path]
    try:
        proc = subprocess.run(argv, capture_output=True, encoding="utf-8-sig",
                              errors="replace", check=False)
    except OSError as err:
        raise FrontendError(f"cannot run preprocessor {argv[0]!r}: {err}")
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        tail = detail[-1] if detail else "no diagnostic output"
        raise FrontendError(
            f"preprocessor failed for {path!r} (exit {proc.returncode}): {tail}")
    return proc.stdout
