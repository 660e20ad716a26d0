"""Concurrent experiment sweep: the parallel ``repro-muse all``.

Each experiment is an independent process-pool task — a picklable
``(name, kwargs)`` pair resolved against :data:`EXPERIMENT_TARGETS` —
whose stdout is captured in the worker and returned as the rendered
report.  :func:`run_all` fans the tasks out, preserves the requested
presentation order regardless of completion order, and (optionally)
writes each report plus a machine-readable ``summary.json`` to a
results directory.

Experiments parallelise *across*, not within: a sweep task always runs
its experiment single-process (no nested pools).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.orchestrate.persist import atomic_write_json, atomic_write_text
from repro.orchestrate.pool import ProgressCallback, map_unordered

#: Every CLI experiment, in presentation order: name -> "module:main".
EXPERIMENT_TARGETS: dict[str, str] = {
    "table1": "repro.experiments.table1:main",
    "figure1b": "repro.experiments.figure1b:main",
    "table3": "repro.experiments.table3:main",
    "table4": "repro.experiments.table4:main",
    "table5": "repro.experiments.table5:main",
    "figure6": "repro.experiments.figure6:main",
    "figure7": "repro.experiments.figure7:main",
    "rowhammer": "repro.experiments.rowhammer:main",
    "pim": "repro.experiments.pim:main",
    "ablation-shuffle": "repro.experiments.ablation_shuffle:main",
    "ablation-frontier": "repro.experiments.ablation_frontier:main",
    "extension-double-device": "repro.experiments.extension_double_device:main",
}


@dataclass(frozen=True)
class ExperimentTask:
    """One sweep entry: an experiment name plus frozen kwargs."""

    name: str
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, kwargs: Mapping[str, Any]) -> "ExperimentTask":
        if name not in EXPERIMENT_TARGETS:
            raise ValueError(
                f"unknown experiment {name!r}; choose from "
                f"{sorted(EXPERIMENT_TARGETS)}"
            )
        return cls(name, tuple(sorted(kwargs.items())))


@dataclass(frozen=True)
class SweepOutcome:
    """One experiment's rendered report and wall-clock seconds.

    ``details`` is the experiment's optional machine-readable summary
    (e.g. table4's per-design-point ``trials_used`` and confidence
    intervals); it is folded into the sweep's ``summary.json``.
    """

    name: str
    report: str
    seconds: float
    details: dict | None = None


def resolve_experiment(name: str):
    """The ``main`` callable behind one registry entry.

    Resolved at call time through the module attribute, so the CLI
    dispatch, the sweep workers, and test monkeypatching all see the
    same function.
    """
    module_name, _, attr = EXPERIMENT_TARGETS[name].partition(":")
    return getattr(importlib.import_module(module_name), attr)


def run_experiment_task(task: ExperimentTask) -> SweepOutcome:
    """Worker entry point: run one experiment, capture its report.

    An experiment's ``main`` may return the report string, a
    ``(report, details)`` pair (details: a JSON-ready dict for
    ``summary.json``), or nothing (its printed output is the report).
    """
    main = resolve_experiment(task.name)
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        returned = main(**dict(task.kwargs))
    seconds = time.perf_counter() - start
    details = None
    if isinstance(returned, tuple) and len(returned) == 2:
        report, details = returned
    else:
        report = returned
    if not isinstance(report, str):
        report = buffer.getvalue().rstrip("\n")
    return SweepOutcome(
        name=task.name, report=report, seconds=seconds, details=details
    )


def _write_report(directory: Path, outcome: SweepOutcome) -> None:
    """Persist one report the moment it exists, so a mid-sweep failure
    never discards experiments that already completed."""
    atomic_write_text(directory / f"{outcome.name}.txt", outcome.report + "\n")


def _write_summary(
    directory: Path,
    outcomes: Mapping[str, SweepOutcome],
    jobs: int,
    wall_seconds: float,
) -> None:
    """Write ``summary.json`` for a finished sweep.

    ``sum_seconds`` adds up the per-experiment wall spans (what a
    serial sweep would have cost); ``wall_seconds`` is the sweep's
    elapsed time — with ``jobs > 1`` the two diverge and their ratio
    is the realised concurrency.
    """
    summary = {"jobs": jobs, "experiments": {}}
    for name, outcome in outcomes.items():
        entry = {
            "seconds": round(outcome.seconds, 4),
            "report_file": f"{name}.txt",
        }
        if outcome.details is not None:
            entry["details"] = outcome.details
        summary["experiments"][name] = entry
    summary["sum_seconds"] = round(
        sum(outcome.seconds for outcome in outcomes.values()), 4
    )
    summary["wall_seconds"] = round(wall_seconds, 4)
    # Atomic temp-file + rename: a sweep killed mid-write can never
    # leave a truncated summary.json for a reader (or a dashboard
    # polling the results dir) to trip over.
    atomic_write_json(directory / "summary.json", summary)


def run_all(
    tasks: list[ExperimentTask],
    jobs: int = 1,
    results_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
    on_outcome=None,
) -> dict[str, SweepOutcome]:
    """Run a sweep of experiments, ``jobs`` at a time.

    Returns outcomes keyed by name **in task order** (presentation
    order), regardless of completion order.  ``on_outcome(outcome)``
    fires on the parent as each experiment finishes (completion order)
    so callers can stream reports instead of waiting for the whole
    sweep.  With ``results_dir`` set, each report is written the moment
    its experiment completes (a mid-sweep failure keeps the finished
    ones) and ``summary.json`` (per-experiment, summed-CPU and
    wall-clock seconds) lands once the sweep succeeds.
    """
    names = [task.name for task in tasks]
    if len(set(names)) != len(names):
        # Outcomes (and report files) are keyed by name; a duplicate
        # would silently overwrite its twin's results.
        raise ValueError(f"duplicate experiment names in sweep: {names}")
    directory: Path | None = None
    if results_dir is not None:
        directory = Path(results_dir)
        directory.mkdir(parents=True, exist_ok=True)

    finished: dict[str, SweepOutcome] = {}

    def completed(_task: ExperimentTask, outcome: SweepOutcome) -> None:
        finished[outcome.name] = outcome
        if directory is not None:
            _write_report(directory, outcome)
        if on_outcome is not None:
            on_outcome(outcome)

    start = time.perf_counter()
    map_unordered(run_experiment_task, tasks, jobs, progress, completed)
    outcomes = {task.name: finished[task.name] for task in tasks}
    if directory is not None:
        _write_summary(
            directory, outcomes, jobs, time.perf_counter() - start
        )
    return outcomes
