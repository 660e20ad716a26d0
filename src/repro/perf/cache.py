"""Set-associative write-back cache hierarchy (the gem5 substitute).

The paper's performance study (Section VII-C) runs a Haswell-like
configuration: 64 kB split L1, 256 kB L2, 8 MB L3, DDR4 memory, with a
TimingSimpleCPU (one cycle per instruction plus full memory stalls).
This module provides the cache side: three write-back, write-allocate,
LRU levels, reporting for each access which level served it and which
DRAM transactions (demand read, writebacks) it generated.

The model is deliberately structural rather than cycle-accurate —
Figures 6 and 7 depend on *event counts* (DRAM reads, writebacks,
metadata fetches) and on the latency composition of a blocking CPU,
both of which this reproduces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One set-associative write-back cache level."""

    def __init__(self, name: str, size_bytes: int, ways: int, line_bytes: int = 64):
        if size_bytes % (ways * line_bytes):
            raise ValueError(f"{name}: size must be a multiple of ways*line")
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = size_bytes // (ways * line_bytes)
        self.stats = CacheStats()
        # set index -> OrderedDict {tag: dirty}; LRU order = insertion order.
        self._sets: dict[int, OrderedDict[int, bool]] = {}

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.sets, line // self.sets

    def access(self, addr: int, write: bool) -> bool:
        """Look up a line; returns hit.  Does *not* allocate on miss."""
        self.stats.accesses += 1
        index, tag = self._locate(addr)
        ways = self._sets.get(index)
        if ways is not None and tag in ways:
            self.stats.hits += 1
            ways.move_to_end(tag)
            if write:
                ways[tag] = True
            return True
        return False

    def fill(self, addr: int, dirty: bool) -> int | None:
        """Allocate a line; returns the dirty victim's address, if any."""
        index, tag = self._locate(addr)
        ways = self._sets.setdefault(index, OrderedDict())
        victim_addr = None
        if tag in ways:
            dirty = dirty or ways[tag]
            ways.move_to_end(tag)
            ways[tag] = dirty
            return None
        if len(ways) >= self.ways:
            victim_tag, victim_dirty = ways.popitem(last=False)
            if victim_dirty:
                victim_addr = (victim_tag * self.sets + index) * self.line_bytes
        ways[tag] = dirty
        return victim_addr

    def invalidate(self, addr: int) -> bool:
        """Drop a line; returns whether it was dirty."""
        index, tag = self._locate(addr)
        ways = self._sets.get(index)
        if ways is not None and tag in ways:
            return ways.pop(tag)
        return False


@dataclass(frozen=True)
class MemoryEvent:
    """DRAM-side consequences of one CPU access."""

    served_level: int  # 1, 2, 3 (cache hit) or 4 (DRAM)
    dram_read: bool
    writebacks: tuple[int, ...]  # addresses written back to DRAM


#: Shared instance for the overwhelmingly common L1-hit case.
_L1_HIT = MemoryEvent(served_level=1, dram_read=False, writebacks=())


@dataclass
class CacheHierarchy:
    """Three-level write-back hierarchy with the paper's sizes.

    The inclusion policy is non-inclusive/fill-on-miss: a miss fills
    every level on the way back; dirty victims propagate downward and
    fall out of L3 as DRAM writebacks.
    """

    l1: Cache = field(
        default_factory=lambda: Cache("L1D", 32 * 1024, ways=8)
    )
    l2: Cache = field(
        default_factory=lambda: Cache("L2", 256 * 1024, ways=8)
    )
    l3: Cache = field(
        default_factory=lambda: Cache("L3", 8 * 1024 * 1024, ways=16)
    )

    def access(self, addr: int, write: bool) -> MemoryEvent:
        line_addr = addr - addr % self.l1.line_bytes
        if self.l1.access(line_addr, write):
            return _L1_HIT

        writebacks: list[int] = []

        def fill_l1() -> None:
            victim = self.l1.fill(line_addr, dirty=write)
            if victim is not None:
                # dirty L1 victim lands in L2 (and stays dirty there)
                if not self.l2.access(victim, write=True):
                    l2_victim = self.l2.fill(victim, dirty=True)
                    self._spill_l2_victim(l2_victim, writebacks)

        if self.l2.access(line_addr, write=False):
            fill_l1()
            return MemoryEvent(2, dram_read=False, writebacks=tuple(writebacks))

        if self.l3.access(line_addr, write=False):
            l2_victim = self.l2.fill(line_addr, dirty=False)
            self._spill_l2_victim(l2_victim, writebacks)
            fill_l1()
            return MemoryEvent(3, dram_read=False, writebacks=tuple(writebacks))

        # DRAM demand read + fills all the way up.
        l3_victim = self.l3.fill(line_addr, dirty=False)
        if l3_victim is not None:
            writebacks.append(l3_victim)
        l2_victim = self.l2.fill(line_addr, dirty=False)
        self._spill_l2_victim(l2_victim, writebacks)
        fill_l1()
        return MemoryEvent(4, dram_read=True, writebacks=tuple(writebacks))

    def _spill_l2_victim(self, victim: int | None, writebacks: list[int]) -> None:
        if victim is None:
            return
        if self.l3.access(victim, write=True):
            return
        l3_victim = self.l3.fill(victim, dirty=True)
        if l3_victim is not None:
            writebacks.append(l3_victim)

    def warm_l3(self, base: int, footprint_bytes: int, dirty_fraction: float,
                seed: int = 0) -> None:
        """Pre-fill the L3 to steady state (the 10B-instruction warm-up).

        Short traces cannot fill an 8 MB LLC, so capacity evictions —
        and with them DRAM writebacks — would never appear.  Seeding the
        L3 with the workload's footprint (lines dirty at the workload's
        write ratio) reproduces the steady state the paper's long gem5
        runs operate in.

        The warmed state is that of a sweep which fills the lines of
        ``[base, base + min(footprint_bytes, 2 * capacity))`` in order,
        each dirty when its ``random.Random(seed).random()`` draw is
        below ``dirty_fraction`` — but it is computed directly, not by
        one :meth:`Cache.fill` per line.  The sweep's lines are
        consecutive, distinct and never re-read, so any ``sets * ways``
        of them cover every set exactly ``ways`` times: the survivors
        are the sweep's last ``sets * ways`` lines, and within a set
        their tags are consecutive in LRU order.  The result is
        identical to the sweep in contents, LRU order and dirty bits
        (``tests/perf/test_warm_l3.py::test_warm_l3_matches_fill_sweep``
        holds the two equal).  Lines already in the L3 would take part
        in the sweep's evictions, which this does not model, so the L3
        must be empty.
        """
        import random

        l3 = self.l3
        if any(l3._sets.values()):
            raise ValueError("warm_l3 warms an empty L3")
        rng = random.Random(seed)
        capacity_lines = l3.sets * l3.ways
        span = min(footprint_bytes, 2 * capacity_lines * l3.line_bytes)
        lines = len(range(0, span, l3.line_bytes))
        kept = min(lines, capacity_lines)
        for _ in range(lines - kept):  # the evicted prefix's draws
            rng.random()
        dirty = [rng.random() < dirty_fraction for _ in range(kept)]
        # (base + i * line) // line == base // line + i, aligned or not.
        first = base // l3.line_bytes
        start = first + lines - kept
        sets: dict[int, OrderedDict[int, bool]] = {}
        for i in range(min(lines, l3.sets)):  # in the sweep's set order
            index = (first + i) % l3.sets
            column = (index - start) % l3.sets
            tag = (start + column) // l3.sets
            flags = dirty[column::l3.sets]
            sets[index] = OrderedDict(zip(range(tag, tag + len(flags)), flags))
        l3._sets = sets
