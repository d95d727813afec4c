"""Job execution: feed translation units to checkers, gather traces.

Sources are the outer loop and checkers the inner one, so each unit is
built once per pass regardless of the memory budget, and a budget of 1
behaves exactly like an unlimited one apart from peak residency.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

from cbugscan.checkers import builtin_registry
from cbugscan.checkers.base import CheckerRegistry, Services
from cbugscan.config import AnalysisJob
from cbugscan.errors import CbugscanError, FrontendError
from cbugscan.ir.units import TranslationUnit, UnitManager, load_unit
from cbugscan.report import ErrorTrace, Importance, normalize


@dataclass
class JobResult:
    traces: list[ErrorTrace] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def has_errors(self) -> bool:
        return any(t.importance is Importance.ERROR for t in self.traces)


def make_loader(job: AnalysisJob):
    flags_by_path = {d.path: d.flags for d in job.sources}

    def loader(path: str) -> TranslationUnit:
        return load_unit(path, flags_by_path.get(path, ()),
                         job.preprocess_command)

    return loader


def run_job(job: AnalysisJob,
            registry: CheckerRegistry | None = None,
            unit_manager: UnitManager | None = None) -> JobResult:
    """Run the job's checkers over its sources.

    The cyclic garbage collector is off while the job runs, and back on
    afterwards only if it was on at entry. No unit, match table,
    supergraph or trace is in a reference cycle, so reference counting
    frees them all and a collection would only walk them.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        registry = registry or builtin_registry()
        manager = unit_manager or UnitManager(make_loader(job), job.memory_units)
        result = JobResult()

        checkers = [(name, registry.create(name, config_path))
                    for name, config_path in job.checkers]

        services = Services(
            unit_manager=manager,
            report_diagnostic=result.diagnostics.append,
        )

        for descriptor in job.sources:
            try:
                unit = manager.get(descriptor.path)
            except FrontendError as exc:
                result.diagnostics.append(f"skipping {descriptor.path}: {exc}")
                continue
            except Exception as exc:  # isolate crashes while building a unit
                result.diagnostics.append(
                    f"skipping {descriptor.path}: internal error: "
                    f"{type(exc).__name__}: {exc}")
                continue
            for name, checker in checkers:
                try:
                    result.traces.extend(checker.check_unit(unit, services))
                except CbugscanError as exc:
                    result.diagnostics.append(
                        f"checker {name} failed on {descriptor.path}: {exc}")
                except Exception as exc:  # isolate checker crashes
                    result.diagnostics.append(
                        f"checker {name} crashed on {descriptor.path}: "
                        f"{type(exc).__name__}: {exc}")

        if job.min_importance is Importance.ERROR:
            result.traces = [t for t in result.traces
                             if t.importance is Importance.ERROR]
        result.traces = normalize(result.traces)
        return result
    finally:
        if collecting:
            gc.enable()
