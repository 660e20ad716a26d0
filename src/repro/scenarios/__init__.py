"""Pluggable fault-scenario registry for the Monte-Carlo simulators.

A *scenario* is a named corruption recipe: given the clean codeword of
trial ``t`` it decides which symbols/bits to disturb and how.  Every
scenario is a pure function of ``(spec, chunk range, splitmix64 key)``
— the same determinism contract as the MSED stream
(:mod:`repro.orchestrate.corruption`) — so its tallies are
byte-identical across ``(chunk_size, jobs, workers)`` and backends at
a fixed seed.

Every registered fault scenario ships two synchronised
implementations of the **same** stream:

* ``corrupt_batch(skey, view, k_symbols)`` — vectorised over a whole
  chunk (:class:`BatchSymbolView`, numpy);
* ``corrupt_word(skey, view, k_symbols)`` — the pure-Python scalar
  reference over one word (:class:`WordSymbolView`).

Both draw from ``skey`` — :func:`scenario_stream_key` of the run key
and the scenario *name* — with integer-only arithmetic, so the scalar
and batch paths agree bit for bit and two scenarios sharing a seed
never share a corruption stream.  The clean data words stay on the
base key's ``DATA`` stream, so every scenario corrupts the *same*
encoded words.

The registry is the single source of scenario names: CLI ``--scenario``
choices, spec fields (and therefore ``spec_fingerprint`` result-cache
cells), and the campaign scheduler's escalation support all derive
from it.  Register your own with::

    from repro.scenarios import Scenario, register_scenario

    register_scenario("mine", lambda: Scenario(
        name="mine", summary="...", corrupt_batch=..., corrupt_word=...,
    ))
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.orchestrate.rng import derive_key

__all__ = [
    "BatchSymbolView",
    "Scenario",
    "STREAM_SCENARIO",
    "WordSymbolView",
    "register_scenario",
    "resolve_scenario",
    "scenario_names",
    "scenario_stream_key",
    "scenario_summaries",
]

#: Stream tag separating every scenario's draws from the base
#: DATA/CHOICE/VALUE streams of :mod:`repro.orchestrate.corruption`.
STREAM_SCENARIO = 3


def scenario_stream_key(key: int, name: str) -> int:
    """The per-scenario draw key under run key ``key``.

    Hashing the *name* in means two scenarios at the same seed can
    never consume each other's draws, while the clean data words
    (drawn from ``key`` itself) stay shared across scenarios.
    """
    return derive_key(key, STREAM_SCENARIO, zlib.crc32(name.encode("utf-8")))


@dataclass
class BatchSymbolView:
    """A chunk of codewords seen as an editable symbol grid.

    ``trials`` is the uint64 *global* trial-counter array of the chunk
    (scenarios key their draws off it, which is what makes them
    split-invariant); ``read(rows, index)`` returns the current uint64
    values of symbol ``index`` for the given row indices and
    ``write(rows, index, values)`` stores them back.  Constructed by
    the chunk drivers in :mod:`repro.orchestrate.corruption` for both
    code families, so one scenario implementation serves MUSE and RS.
    """

    trials: "object"
    widths: tuple[int, ...]
    read: Callable[[object, int], object]
    write: Callable[[object, int, object], None]


@dataclass
class WordSymbolView:
    """One codeword of global trial ``trial`` as an editable symbol row.

    The scalar twin of :class:`BatchSymbolView`: ``get(index)`` /
    ``put(index, value)`` operate on plain Python ints.
    """

    trial: int
    widths: tuple[int, ...]
    get: Callable[[int], int]
    put: Callable[[int, int], None]


@dataclass(frozen=True)
class Scenario:
    """One registered corruption recipe.

    ``corrupt_batch`` / ``corrupt_word`` both receive the scenario
    stream key, a symbol view, and the simulator's ``k_symbols`` (which
    a scenario may ignore — e.g. row failure corrupts every symbol).
    ``None`` marks the built-in ``"msed"`` scenario, whose generators
    predate the registry and live on the base key's streams
    (:func:`repro.orchestrate.corruption.muse_corruption_chunk`).

    ``supports_splitting`` gates the campaign scheduler's zero-event
    escalation: only scenarios sharing the plain MSED prefix stream can
    hand their tail to the importance-splitting estimator; everything
    else reports a Clopper-Pearson bound instead.
    """

    name: str
    summary: str
    corrupt_batch: Optional[Callable] = field(default=None, repr=False)
    corrupt_word: Optional[Callable] = field(default=None, repr=False)
    supports_splitting: bool = False


_FACTORIES: dict[str, Callable[[], Scenario]] = {}
_RESOLVED: dict[str, Scenario] = {}


def register_scenario(name: str, factory: Callable[[], Scenario]) -> None:
    """Register ``factory`` (a zero-arg ``Scenario`` builder) as ``name``.

    Names are registry keys *and* spec-fingerprint material, so
    re-registering one is refused — a silent replacement could make two
    different corruption streams share result-cache cells.
    """
    if not name or not name.replace("-", "").replace("_", "").isalnum():
        raise ValueError(f"scenario name must be a non-empty slug, got {name!r}")
    if name in _FACTORIES:
        raise ValueError(f"scenario {name!r} is already registered")
    _FACTORIES[name] = factory


def resolve_scenario(name: str) -> Scenario:
    """The :class:`Scenario` registered as ``name`` (built once, cached)."""
    scenario = _RESOLVED.get(name)
    if scenario is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ValueError(
                f"unknown scenario {name!r}; registered: "
                f"{', '.join(scenario_names())}"
            )
        scenario = factory()
        if scenario.name != name:
            raise ValueError(
                f"scenario factory for {name!r} built one named "
                f"{scenario.name!r}"
            )
        _RESOLVED[name] = scenario
    return scenario


def scenario_names() -> tuple[str, ...]:
    """Every registered scenario name, in registration order.

    The built-ins register ``"msed"`` first, so it leads CLI choices.
    """
    return tuple(_FACTORIES)


def scenario_summaries() -> dict[str, str]:
    """``name -> one-line summary`` for help text and docs."""
    return {name: resolve_scenario(name).summary for name in _FACTORIES}


# Built-in scenarios register on import; library.py must stay below the
# registry definitions it calls into.
from repro.scenarios import library as _library  # noqa: E402,F401
