"""Checker plugin interface and registry.

A checker examines one translation unit at a time and returns error
traces. Checkers hold no cross-unit mutable state, which is what lets
the engine stream units through a bounded cache without changing any
checker's output.
"""

from __future__ import annotations

import importlib.resources
import shlex
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator

from cbugscan.errors import ConfigError
from cbugscan.ir.units import TranslationUnit, UnitManager
from cbugscan.report import ErrorTrace


@dataclass(eq=False)
class Services:
    """What the engine offers a running checker."""
    unit_manager: UnitManager
    report_diagnostic: Callable[[str], None] = lambda _message: None


class Checker(ABC):
    """Base class for analyses; subclasses set `name`."""

    name = "checker"

    @abstractmethod
    def check_unit(self, unit: TranslationUnit,
                   services: Services) -> list[ErrorTrace]:
        """Analyze one unit; return its findings."""


def read_config(path: str | None, checker_name: str) -> str:
    """The text of a checker's config file, which is required."""
    if path is None:
        raise ConfigError(f"{checker_name} checker requires a config file")
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def config_lines(text: str,
                 source: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, shell-style words) for each line of
    a config text that has words; `#` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            words = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from exc
        if words:
            yield lineno, raw.strip(), words


@dataclass(frozen=True)
class CheckerDescriptor:
    name: str
    factory: Callable[[str | None], Checker]
    default_config: str | None = None  # bundled resource name, if any


class CheckerRegistry:
    def __init__(self) -> None:
        self._entries: dict[str, CheckerDescriptor] = {}

    def register(self, descriptor: CheckerDescriptor) -> None:
        if descriptor.name in self._entries:
            raise ConfigError(
                f"checker {descriptor.name!r} registered twice")
        self._entries[descriptor.name] = descriptor

    def names(self) -> list[str]:
        return sorted(self._entries)

    def create(self, name: str, config_path: str | None = None) -> Checker:
        descriptor = self._entries.get(name)
        if descriptor is None:
            known = ", ".join(self.names())
            raise ConfigError(f"unknown checker {name!r} (known: {known})")
        if config_path is None and descriptor.default_config is not None:
            resource = importlib.resources.files("cbugscan.configs")
            config_path = str(resource / descriptor.default_config)
        return descriptor.factory(config_path)
