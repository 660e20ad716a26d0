"""Picklable shard tasks and the worker-side runner cache.

A shard task must cross a process boundary, so it carries *recipes*,
not objects: a :class:`CodeRef` names a zero-argument-cheap factory
("module:callable" plus args) that the worker calls to rebuild the code
— the expensive per-code state (ELC tables, engine lookup tables) is
built once per worker and cached, instead of being pickled per task.

The contract a spec implements:

* it is a frozen (hashable, picklable) dataclass;
* ``spec.build()`` returns a *runner* exposing
  ``run_chunk(chunk, key) -> tally`` where the tally supports
  ``merge`` (associative fold, see :class:`MsedTally`).

The built-in specs — one per simulator and splitting estimator of each
code family — share :class:`RunnerSpec`'s ``build()``, and runners make
theirs with :func:`task_spec`, which checks the code against the
family's signature (:mod:`repro.orchestrate.family`).

:func:`run_chunk_task` is the function the process pool actually
executes; :mod:`repro.orchestrate.pool` folds its results by group.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass, fields
from typing import Any, ClassVar

from repro.orchestrate.plan import Chunk


@dataclass(frozen=True)
class CodeRef:
    """A picklable reference to a code factory: ``"module:callable"``.

    Examples: ``CodeRef("repro.core.codes:muse_80_69")``,
    ``CodeRef("repro.reliability.monte_carlo:muse_design_point", (3,))``.
    """

    target: str
    args: tuple = ()

    def build(self) -> Any:
        return _resolve(self.target)(*self.args)


def _resolve(target: str) -> Any:
    """The object a ``"module:attr"`` target names."""
    module_name, sep, attr = target.partition(":")
    if not sep or not attr:
        raise ValueError(
            f"CodeRef target must look like 'module:callable', got {target!r}"
        )
    return getattr(importlib.import_module(module_name), attr)


def as_code_ref(code_ref: "CodeRef | str | None") -> CodeRef:
    """Normalise a user-supplied ref (``CodeRef`` or string) or fail."""
    if code_ref is None:
        raise ValueError(
            "multi-process runs rebuild the code in each worker and need "
            "a picklable code_ref, e.g. "
            "CodeRef('repro.core.codes:muse_80_69') or the 'module:callable' "
            "string directly"
        )
    if isinstance(code_ref, CodeRef):
        return code_ref
    return CodeRef(code_ref)


def checked_code_ref(code_ref, code) -> CodeRef:
    """Resolve ``code_ref`` and prove it rebuilds *this* code.

    Workers tally whatever the ref's factory returns, so a ref naming a
    different code would silently break the jobs-invariance contract;
    one parent-side rebuild per run catches the mismatch up front.
    """
    from repro.orchestrate.family import family_of

    ref = as_code_ref(code_ref)
    rebuilt = ref.build()
    family = family_of(code)
    if (
        family_of(rebuilt) is not family
        or family.signature(rebuilt) != family.signature(code)
    ):
        raise ValueError(
            f"code_ref {ref.target!r} (args={ref.args!r}) rebuilds "
            f"{rebuilt!r}, which does not match this simulator's code "
            f"{code!r}; workers would tally a different code"
        )
    return ref


class RunnerSpec:
    """The shared ``build()`` of the frozen worker recipes.

    A spec's fields are its runner's constructor fields, with ``code``
    held as a :class:`CodeRef`; ``runner`` names the runner class as
    ``"module:Class"`` (resolved in the worker, so this module imports
    nothing above it).
    """

    runner: ClassVar[str]

    def build(self):
        values = {field.name: getattr(self, field.name) for field in fields(self)}
        values["code"] = self.code.build()
        return _resolve(self.runner)(**values)


def task_spec(runner, spec_types: dict) -> Any:
    """The picklable recipe rebuilding ``runner`` inside a worker.

    ``spec_types`` maps a code-family name to its spec class; the spec
    copies its fields off ``runner`` and swaps the code for the
    runner's checked ``code_ref``.
    """
    from repro.orchestrate.family import family_of

    spec_type = spec_types[family_of(runner.code).name]
    values = {field.name: getattr(runner, field.name) for field in fields(spec_type)}
    values["code"] = checked_code_ref(runner.code_ref, runner.code)
    return spec_type(**values)


@dataclass(frozen=True)
class MuseSimSpec(RunnerSpec):
    """Rebuild a :class:`MuseMsedSimulator` inside a worker."""

    runner = "repro.reliability.monte_carlo:MuseMsedSimulator"

    code: CodeRef
    k_symbols: int = 2
    ripple_check: bool = True
    backend: str = "auto"
    #: Registered fault-scenario name (repro.scenarios).  Part of the
    #: spec — and therefore of ``spec_fingerprint`` — so result-cache
    #: and checkpoint cells of two scenarios can never collide.
    scenario: str = "msed"


@dataclass(frozen=True)
class RsSimSpec(RunnerSpec):
    """Rebuild an :class:`RsMsedSimulator` inside a worker."""

    runner = "repro.reliability.monte_carlo:RsMsedSimulator"

    code: CodeRef
    k_symbols: int = 2
    device_bits: int | None = 4
    backend: str = "auto"
    #: Registered fault-scenario name; see :class:`MuseSimSpec`.
    scenario: str = "msed"


def group_labels(count: int, group_ns: "str | None") -> list:
    """Fold-group labels for a design-point grid.

    Bare indices by default; ``group_ns`` prefixes them
    (``"frontier:3"``) so two different grids sharing one distributed
    session — or one checkpoint journal — can never collide.
    """
    if group_ns is None:
        return list(range(count))
    return [f"{group_ns}:{index}" for index in range(count)]


def spec_fingerprint(spec: Any) -> str:
    """What must match for a stored chunk tally to be reusable.

    The spec's structural repr, minus the decode backend: every backend
    tallies byte-identically, so a checkpoint journal or result-cache
    cell written on one backend is served to any other — but a changed
    code, ``k_symbols`` or decode policy must refuse, not silently fold
    chunks of a different experiment.
    """
    if dataclasses.is_dataclass(spec) and hasattr(spec, "backend"):
        spec = dataclasses.replace(spec, backend="any")
    return repr(spec)


@dataclass(frozen=True)
class ChunkTask:
    """One shard: run ``spec``'s chunk ``chunk`` of stream ``key``.

    ``group`` labels which logical run (design point, experiment row)
    the resulting tally folds into.  A task that stays in process may
    carry the live runner itself as ``spec``.
    """

    group: Any
    spec: Any
    chunk: Chunk
    key: int


#: Per-process runner cache: spec -> built runner.  Specs are frozen
#: dataclasses, so equality/hash are structural and a forked or spawned
#: worker rebuilds each distinct runner exactly once.
_RUNNERS: dict[Any, Any] = {}


def runner_for(spec: Any) -> Any:
    if hasattr(spec, "run_chunk"):
        # An in-process task may carry its live runner instead of a
        # recipe; it never crosses a process boundary.
        return spec
    runner = _RUNNERS.get(spec)
    if runner is None:
        runner = spec.build()
        _RUNNERS[spec] = runner
    return runner


def run_chunk_task(task: ChunkTask) -> tuple[Any, Any]:
    """Execute one shard; the pool's sole entry point into a worker.

    The ``decode_chunk`` span is a no-op in pool children and loopback
    worker subprocesses (no telemetry session there — the coordinator
    observes their chunks instead), but an external ``repro-muse
    worker --telemetry-dir`` run records its own per-chunk trail.
    """
    from repro import telemetry

    runner = runner_for(task.spec)
    with telemetry.span("decode_chunk", point=str(task.group)):
        return task.group, runner.run_chunk(task.chunk, task.key)
