"""Preprocessing hook: read sources directly or pipe them through an
external command (a real C preprocessor, a stub, a filter).
"""

from __future__ import annotations

import shlex
import subprocess

from cbugscan.errors import FrontendError


def preprocess_source(path: str, flags: tuple[str, ...] = (),
                      command: str | None = None) -> str:
    """Return the source text for path.

    Without a command the file is read verbatim. With one, it runs
    `command + flags + [path]` and returns its stdout; a nonzero exit
    is a frontend error carrying the command's stderr. Either text is
    read as UTF-8 with universal newlines, a leading byte order mark
    dropped and each byte that is not UTF-8 replaced by U+FFFD.
    """
    if not command:
        try:
            with open(path, encoding="utf-8-sig", errors="replace") as handle:
                return handle.read()
        except OSError as err:
            raise FrontendError(f"cannot read source file {path!r}: {err}")
    argv = shlex.split(command) + list(flags) + [path]
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
