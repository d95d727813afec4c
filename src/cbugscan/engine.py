"""Job execution: feed translation units to checkers, gather traces.

Sources are the outer loop and checkers the inner one, so each unit is
built once per pass regardless of the memory budget, and a budget of 1
behaves exactly like an unlimited one apart from peak residency. A
unit's match table lists only the node kinds the job's checkers read
(`Checker.kinds`).

A job's sources are split into contiguous shards of about equal size,
one per usable CPU. This process checks the first shard and a forked
worker checks each other one; a worker sends back its traces and
diagnostics pickled. The results are joined in shard order, so the
report is the one a single process gives. Checkers hold no state across
units, which is what makes the shards independent.
"""

from __future__ import annotations

import gc
import os
import threading
from dataclasses import dataclass, field
from typing import Iterable

from cbugscan.checkers import builtin_registry
from cbugscan.checkers.base import CheckerRegistry, Services
from cbugscan.config import AnalysisJob, SourceDescriptor
from cbugscan.errors import CbugscanError, ConfigError, FrontendError
from cbugscan.frontend.ast_nodes import NodeKind
from cbugscan.frontend.preprocess import command_words
from cbugscan.ir.units import TranslationUnit, UnitManager, load_unit
from cbugscan.report import ErrorTrace, Importance, normalize


@dataclass
class JobResult:
    """A job's findings, in report order, and its diagnostics."""
    traces: list[ErrorTrace] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def has_errors(self) -> bool:
        return any(t.importance is Importance.ERROR for t in self.traces)


def make_loader(job: AnalysisJob, kinds: Iterable[NodeKind] | None = None):
    """A loader of the job's units whose match tables list `kinds`."""
    flags_by_path = {d.path: d.flags for d in job.sources}

    def loader(path: str) -> TranslationUnit:
        return load_unit(path, flags_by_path.get(path, ()),
                         job.preprocess_command, kinds)

    return loader


def usable_cpus() -> list[int]:
    """The CPUs this process may run on; a single one where the platform
    cannot fork or cannot tell, so that nothing is forked there."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return [0]
    return sorted(os.sched_getaffinity(0))


def shard_bounds(sizes: list[int], count: int) -> list[int]:
    """Cut points that split `sizes` into `count` contiguous, non-empty
    runs of about equal sum: run k is `sizes[bounds[k]:bounds[k + 1]]`.
    An item goes to the run whose share holds the item's midpoint, unless
    the items left are just enough for the runs left."""
    total = sum(sizes)
    bounds, before = [0], 0
    for index in range(1, len(sizes)):
        left = count - len(bounds)
        if left == 0:
            break
        before += sizes[index - 1]
        if (2 * before + sizes[index]) * count >= 2 * len(bounds) * total \
                or len(sizes) - index == left:
            bounds.append(index)
    bounds.append(len(sizes))
    return bounds


def run_job(job: AnalysisJob,
            registry: CheckerRegistry | None = None,
            unit_manager: UnitManager | None = None) -> JobResult:
    """Run the job's checkers over its sources.

    The job runs in this process alone when it has one source, when one
    CPU is usable, when the caller supplies `unit_manager` (whose
    counters the caller reads), or when another thread is alive, which
    makes forking unsafe. Otherwise the workers are as many as the
    smallest of the usable CPUs, the sources and `job.memory_units`,
    and each worker's unit budget is its share of `job.memory_units`.
    A `job.memory_units` below 1, or a preprocessor command that
    `command_words` rejects, is a ConfigError, raised before any file
    is read.

    The cyclic garbage collector is off while the job runs, and back on
    afterwards only if it was on at entry. No unit, match table,
    supergraph or trace is in a reference cycle, so reference counting
    frees them all and a collection would only walk them.
    """
    if job.memory_units is not None and job.memory_units < 1:
        raise ConfigError("memory_units must be at least 1")
    collecting = gc.isenabled()
    gc.disable()
    try:
        registry = registry or builtin_registry()
        checkers = [(name, registry.create(name, config_path))
                    for name, config_path in job.checkers]
        # the node kinds the checkers read; None, every kind, if one asks
        kinds = [checker.kinds for _, checker in checkers]
        kinds = None if None in kinds else frozenset().union(*kinds)
        if job.preprocess_command is not None:
            command_words(job.preprocess_command)  # a bad one fails the job

        cpus = usable_cpus()
        workers = min(len(cpus), len(job.sources) or 1,
                      job.memory_units or len(cpus))
        if unit_manager is not None or threading.active_count() > 1:
            workers = 1
        manager = unit_manager or UnitManager(
            make_loader(job, kinds),
            job.memory_units and job.memory_units // workers)

        sizes = [source_size(d.path) for d in job.sources]
        bounds = shard_bounds(sizes, workers)
        shards = [job.sources[start:end]
                  for start, end in zip(bounds, bounds[1:])]

        result = JobResult()
        for traces, diagnostics in check_shards(shards, checkers, manager,
                                                cpus):
            result.traces += traces
            result.diagnostics += diagnostics

        if job.min_importance is Importance.ERROR:
            result.traces = [t for t in result.traces
                             if t.importance is Importance.ERROR]
        result.traces = normalize(result.traces)
        return result
    finally:
        if collecting:
            gc.enable()


def source_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:  # the shard's loop reports the file
        return 0


def check_sources(sources: list[SourceDescriptor], checkers: list,
                  manager: UnitManager) -> tuple[list, list[str]]:
    """Every checker over each source: the traces and the diagnostics.
    A file that cannot be built, or a checker that fails on it, costs a
    diagnostic and nothing else."""
    traces: list[ErrorTrace] = []
    diagnostics: list[str] = []
    services = Services(report_diagnostic=diagnostics.append)
    for descriptor in sources:
        try:
            unit = manager.get(descriptor.path)
        except FrontendError as exc:
            diagnostics.append(f"skipping {descriptor.path}: {exc}")
            continue
        except Exception as exc:  # isolate crashes while building a unit
            diagnostics.append(
                f"skipping {descriptor.path}: internal error: "
                f"{type(exc).__name__}: {exc}")
            continue
        for name, checker in checkers:
            try:
                traces.extend(checker.check_unit(unit, services))
            except CbugscanError as exc:
                diagnostics.append(
                    f"checker {name} failed on {descriptor.path}: {exc}")
            except Exception as exc:  # isolate checker crashes
                diagnostics.append(
                    f"checker {name} crashed on {descriptor.path}: "
                    f"{type(exc).__name__}: {exc}")
    return traces, diagnostics


def check_shards(shards: list[list[SourceDescriptor]], checkers: list,
                 manager: UnitManager, cpus: list[int]) -> list[tuple]:
    """`check_sources` over each shard, in shard order. This process
    checks the first shard, and a worker forked before that checks each
    other one. A worker that dies, or whose result cannot be pickled,
    costs a diagnostic for each file of its shard. Every worker is
    reaped before this returns or raises."""
    if len(shards) == 1:
        return [check_sources(shards[0], checkers, manager)]

    import pickle

    workers: dict[int, tuple[int, int]] = {}  # shard index: pid, read end
    payloads: dict[int, bytes] = {}
    statuses: dict[int, int] = {}
    results: list = [None] * len(shards)
    try:
        for index in range(1, len(shards)):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # fork refused: this process checks the rest
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    for _, earlier in workers.values():
                        os.close(earlier)
                    place(cpus[index])
                    payload = (check_sources(shards[index], checkers, manager),
                               manager.load_counts, manager.max_resident)
                    try:
                        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                    except Exception as exc:
                        data = pickle.dumps(f"{type(exc).__name__}: {exc}")
                    with os.fdopen(write_end, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            workers[index] = pid, read_end

        place(cpus[0])
        for index, shard in enumerate(shards):
            if index not in workers:
                results[index] = check_sources(shard, checkers, manager)
        for index, (_, read_end) in workers.items():
            with os.fdopen(read_end, "rb", closefd=False) as pipe:
                payloads[index] = pipe.read()
    finally:
        # a worker still writing gets EPIPE once the read ends are closed
        for _, read_end in workers.values():
            os.close(read_end)
        for index, (pid, _) in workers.items():
            statuses[index] = os.waitpid(pid, 0)[1]

    for index in workers:
        try:
            received = pickle.loads(payloads[index])
        except Exception:  # nothing or a truncated result
            received = worker_failure(statuses[index])
        if isinstance(received, str):
            results[index] = [], [f"skipping {d.path}: internal error: "
                                  f"{received}" for d in shards[index]]
            continue
        results[index], load_counts, max_resident = received
        # the job's loads, and the sum of the processes' peaks
        for path, count in load_counts.items():
            manager.load_counts[path] = manager.load_counts.get(path, 0) + count
        manager.max_resident += max_resident
    return results


def worker_failure(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"worker killed by signal {os.WTERMSIG(status)}"
    return f"worker exited with status {os.waitstatus_to_exitcode(status)}"


def place(cpu: int) -> None:
    """Move this process onto `cpu`, then allow every CPU it was allowed
    before: the process starts there but stays free to move. Best
    effort."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, (cpu,))
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass
