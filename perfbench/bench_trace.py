"""In-memory span tracer for the benchmark's traced runs.

The tracer never edits the program: it swaps timing wrappers onto
public entry points of each layer for the duration of one traced unit
of work and swaps the originals back afterwards.  A span records its
name, layer, thread, start, end and the span that caused it (the
enclosing span on the same thread); spans of one unit share that
unit's number.  Aggregates cover every span; individual span records
are kept up to ``span_cap`` and written out once, when the run ends.

Self time is a span's duration minus the part its child spans cover.
It is summed per layer for the thread that runs the unit (the thread
the result waits on), so those layer sums plus the time no span
covers (``unattributed``) add up to the unit's wall time exactly.
Spans on other threads (the coordinator's connection handlers) are
counted in their own aggregates and reported as busy time beside it.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "core",
    "engine",
    "orchestrate",
    "reliability.sampling",
    "distribute",
    "perf",
)


class SpanStat:
    """Aggregate of every span that carried one name."""

    __slots__ = ("count", "total", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span stacks per thread, aggregates per name, self time per layer."""

    def __init__(self, span_cap: int = 20_000) -> None:
        self.main_ident = threading.get_ident()
        self.span_cap = span_cap
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.other_thread_busy = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple] = []
        self.unit = 0
        self._next_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._targets: list[tuple] = []
        self._installed = False

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list, list]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][1] if stack else None
        # frame: [child seconds, span id, parent id, start]
        frame = [0.0, span_id, parent, perf_counter()]
        stack.append(frame)
        return stack, frame

    def _close(self, stack: list, frame: list, name: str, layer: str) -> float:
        end = perf_counter()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][0] += duration
        own = duration - frame[0]
        main = threading.get_ident() == self.main_ident
        with self._lock:
            stat = self.stats[name]
            stat.count += 1
            stat.total += duration
            stat.self_time += own
            if main:
                self.layer_self[layer] += own
            else:
                self.other_thread_busy[layer] += own
            if len(self.spans) < self.span_cap:
                self.spans.append(
                    (
                        self.unit,
                        frame[1],
                        frame[2],
                        name,
                        layer,
                        "main" if main else threading.current_thread().name,
                        frame[3],
                        end,
                    )
                )
        return duration

    def wrap(self, function, name: str, layer: str, after=None):
        """A traced stand-in for ``function``; ``after(result, args,
        seconds)`` runs outside the span to derive counts."""
        tracer = self

        def traced(*args, **kwargs):
            stack, frame = tracer._open()
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = tracer._close(stack, frame, name, layer)
            if after is not None:
                after(result, args, seconds)
            return result

        traced.__wrapped__ = function
        return traced

    def wrap_generator(self, function, name: str, layer: str):
        """Trace each step of a generator function as its own span."""
        tracer = self

        def traced(*args, **kwargs):
            inner = function(*args, **kwargs)
            while True:
                stack, frame = tracer._open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(stack, frame, name, layer)
                yield item

        traced.__wrapped__ = function
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- patch targets ---------------------------------------------------

    def add_function(
        self,
        module: str,
        attr: str,
        name: str,
        layer: str,
        after=None,
        home: bool = True,
        via=None,
    ) -> None:
        """Trace a module-level function wherever ``repro`` bound it.

        Callers that imported it by name hold their own reference, so
        every ``repro`` module attribute bound to the same object is
        swapped.  ``home=False`` leaves the defining module alone, for
        recursive functions whose inner calls are not spans of their own.
        ``via(original)`` returns the callable the span times instead of
        ``original`` itself (to add child spans around its arguments).
        """
        original = getattr(importlib.import_module(module), attr)
        timed = original if via is None else via(original)
        wrapper = self.wrap(timed, name, layer, after)
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "") or ""
            if not loaded_name.startswith("repro"):
                continue
            if not home and loaded_name == module:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._targets.append((loaded, key, original, wrapper, True))

    def add_method(
        self, cls: type, attr: str, name: str, layer: str, after=None,
        generator: bool = False,
    ) -> None:
        """Trace ``cls.attr`` (resolved through the MRO) on ``cls`` only."""
        original = getattr(cls, attr)
        if generator:
            wrapper = self.wrap_generator(original, name, layer)
        else:
            wrapper = self.wrap(original, name, layer, after)
        self._targets.append((cls, attr, original, wrapper, attr in vars(cls)))

    def install(self) -> None:
        for owner, attr, _original, wrapper, _own in self._targets:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, _wrapper, own in reversed(self._targets):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed = False

    # -- results ---------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(self.stats[name].total for name in names if name in self.stats)

    def self_time(self, *names: str) -> float:
        return sum(
            self.stats[name].self_time for name in names if name in self.stats
        )

    def calls(self, *names: str) -> int:
        return sum(self.stats[name].count for name in names if name in self.stats)

    def dump(self) -> dict:
        """Everything recorded, JSON-ready (written once at exit)."""
        columns = ("unit", "id", "parent", "name", "layer", "thread", "start", "end")
        return {
            "layer_self_s": dict(self.layer_self),
            "other_thread_busy_s": dict(self.other_thread_busy),
            "spans_by_name": {
                name: {
                    "count": stat.count,
                    "total_s": stat.total,
                    "self_s": stat.self_time,
                }
                for name, stat in sorted(self.stats.items())
            },
            "counts": dict(self.counts),
            "span_columns": list(columns),
            "spans": [list(span) for span in self.spans],
            "spans_dropped": max(0, self._next_id - len(self.spans)),
        }
