"""The performance experiment driver (Figures 6, 7; Table VI).

A blocking in-order CPU (the paper's TimingSimpleCPU analogue) walks a
synthetic trace through the cache hierarchy; LLC misses stall it for the
DRAM round trip, writebacks and metadata fetches are posted to the
channel without stalling.  ECC costs enter exactly where the paper puts
them (Section VII-C):

* every DRAM *write transaction* is delayed by the encoder latency;
* in the **always-correction** scenario every DRAM *read* is delayed by
  the corrector latency;
* systematic codes add nothing to error-free reads.

Latencies come from the VLSI model's cycle counts at the 2400 MHz
memory clock — 3 cycles MUSE, 1 cycle RS, matching Table V's gem5
columns.

None of those costs changes which accesses hit, miss or write back:
that depends on the address trace alone.  So a run is split in two.
An :class:`EventStream` walks the warmed hierarchy once and records,
per memory operation, the level that served it and the writebacks it
caused; :meth:`Simulator.run` replays that stream through one
configuration's DRAM channel and tagging engine.  ``run_figure6`` and
``run_figure7`` record one stream per workload and replay it for every
configuration of the row; the replay adds the same floats in the same
order as a fresh walk would, so every result is bit-identical to
simulating each configuration from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.cache import CacheHierarchy
from repro.perf.dram_timing import (
    DramChannel,
    DramPowerModel,
    DramTimingConfig,
)
from repro.perf.tagging import TaggingEngine, TaggingMode
from repro.perf.workloads import SPEC2017_PROFILES, TraceGenerator, WorkloadProfile
from repro.vlsi.cells import CLOCK_PERIOD_NS


@dataclass(frozen=True)
class EccTiming:
    """Per-transaction ECC delays on the memory interface."""

    name: str
    write_cycles: int  # encoder latency, 2400 MHz cycles
    correction_cycles: int  # corrector latency, applied in always-correct

    @property
    def write_ns(self) -> float:
        return self.write_cycles * CLOCK_PERIOD_NS

    @property
    def correction_ns(self) -> float:
        return self.correction_cycles * CLOCK_PERIOD_NS


#: The four Figure-6 configurations (plus the implicit no-ECC baseline).
MUSE_TIMING = EccTiming("MUSE", write_cycles=3, correction_cycles=3)
RS_TIMING = EccTiming("RS", write_cycles=1, correction_cycles=1)
NO_ECC_TIMING = EccTiming("none", write_cycles=0, correction_cycles=0)


@dataclass(frozen=True)
class CpuTiming:
    """Blocking-CPU latency composition (Haswell-like, Section VII-C).

    ``fetch_cycles`` models TimingSimpleCPU's per-instruction fetch
    through the timing memory system (an L1-I hit per instruction);
    it inflates baseline run time exactly as gem5 does, which is what
    keeps the ECC-induced slowdowns in Figure 6's sub-percent range.
    """

    frequency_ghz: float = 3.4
    fetch_cycles: int = 3
    l1_hit_cycles: int = 4
    l2_hit_cycles: int = 12
    l3_hit_cycles: int = 40

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz

    @property
    def instruction_ns(self) -> float:
        """Execute + fetch cost of one non-memory instruction."""
        return (1 + self.fetch_cycles) * self.cycle_ns

    def level_ns(self, level: int) -> float:
        cycles = {
            1: self.l1_hit_cycles,
            2: self.l2_hit_cycles,
            3: self.l3_hit_cycles,
        }[level]
        return cycles * self.cycle_ns


@dataclass(frozen=True)
class SystemConfig:
    """One simulated machine configuration."""

    name: str
    ecc: EccTiming
    always_correct: bool = False
    tagging: TaggingMode = TaggingMode.NONE
    metadata_cache_entries: int = 32


@dataclass
class SimResult:
    """Everything Figures 6/7 and Table VI read off one run."""

    workload: str
    config: str
    instructions: int
    elapsed_ns: float
    dram_reads: int = 0
    dram_writes: int = 0
    metadata_reads: int = 0
    dram_power_mw: float = 0.0

    @property
    def dram_operations(self) -> int:
        return self.dram_reads + self.dram_writes

    @property
    def ipc(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.instructions / (self.elapsed_ns * 3.4)


#: One replayed memory operation:
#: ``(gap_instructions, address, served_level, writebacks)``.
Event = tuple[int, int, int, tuple[int, ...]]


class EventStream:
    """The hierarchy's events for one trace, recorded once, replayed per config.

    The stream is keyed by everything the walk depends on — the
    profile, ``mem_ops``, ``seed`` and ``warm`` — and refuses to replay
    for a simulator that differs in any of them.  The first
    :meth:`Simulator.run` handed an unrecorded stream records it (so the
    walk is timed inside a run); later runs read the same list, which
    replay never mutates.

    Plain cache hits (served above DRAM, no writebacks) share one
    interned record per ``(gap, level)`` whose address is 0: replay only
    reads the address of an access served by DRAM.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        mem_ops: int = 60_000,
        seed: int = 1,
        warm: bool = True,
    ):
        self.key = (profile, mem_ops, seed, warm)
        self._events: list[Event] | None = None

    def events(self, simulator: Simulator) -> list[Event]:
        """The recorded events, walking the hierarchy on first use."""
        key = (simulator.profile, simulator.mem_ops, simulator.seed, simulator.warm)
        if key != self.key:
            raise ValueError(
                f"event stream recorded for (profile, mem_ops, seed, warm) = "
                f"{self.key} cannot replay {key}"
            )
        if self._events is None:
            self._events = self._record()
        return self._events

    def _record(self) -> list[Event]:
        profile, mem_ops, seed, warm = self.key
        hierarchy = CacheHierarchy()
        if warm:
            hierarchy.warm_l3(
                TraceGenerator.BASE_ADDRESS + TraceGenerator.HOT_REGION_BYTES,
                profile.working_set_kb * 1024,
                dirty_fraction=profile.write_fraction,
                seed=seed,
            )
        hits: dict[tuple[int, int], Event] = {}
        events: list[Event] = []
        for op in TraceGenerator(profile, seed=seed).operations(mem_ops):
            event = hierarchy.access(op.address, op.is_write)
            gap, level = op.gap_instructions, event.served_level
            if level < 4 and not event.writebacks:
                record = hits.get((gap, level))
                if record is None:
                    record = hits[gap, level] = (gap, 0, level, ())
            else:
                record = (gap, op.address, level, event.writebacks)
            events.append(record)
        return events


@dataclass
class Simulator:
    """One run = one workload x one system configuration."""

    profile: WorkloadProfile
    config: SystemConfig
    mem_ops: int = 60_000
    seed: int = 1
    warm: bool = True
    cpu: CpuTiming = field(default_factory=CpuTiming)
    dram_config: DramTimingConfig = field(default_factory=DramTimingConfig)

    def run(self, stream: EventStream | None = None) -> SimResult:
        """Replay ``stream`` (recorded here if needed) through this config.

        Without a stream the run records a private one, so a single
        configuration costs one hierarchy walk, as it always did.
        """
        if stream is None:
            stream = EventStream(self.profile, self.mem_ops, self.seed, self.warm)
        events = stream.events(self)
        channel = DramChannel(self.dram_config)
        tagging = TaggingEngine(
            self.config.tagging, cache_entries=self.config.metadata_cache_entries
        )
        ecc = self.config.ecc
        correction_ns = ecc.correction_ns if self.config.always_correct else 0.0
        write_ns = ecc.write_ns
        cpu = self.cpu
        instruction_ns = cpu.instruction_ns
        fetch_ns = cpu.fetch_cycles * cpu.cycle_ns
        level_ns = (0.0, cpu.level_ns(1), cpu.level_ns(2), cpu.level_ns(3))
        # Full blocking walk on an LLC miss: L1 + L2 + L3 lookups, then DRAM.
        walk_ns = level_ns[1] + level_ns[2] + level_ns[3]
        now_ns = 0.0
        instructions = 0
        for gap, address, level, writebacks in events:
            instructions += gap + 1
            now_ns += gap * instruction_ns + fetch_ns
            if level < 4:
                now_ns += level_ns[level]
            else:
                now_ns += walk_ns
                now_ns = channel.read(address, now_ns, extra_ns=correction_ns)
                metadata_addr = tagging.metadata_read_for_miss(address)
                if metadata_addr is not None:
                    channel.posted_read(metadata_addr, now_ns)
            for victim in writebacks:
                channel.write(victim, now_ns, extra_ns=write_ns)

        power = DramPowerModel().power_mw(channel.counters, now_ns)
        return SimResult(
            workload=self.profile.name,
            config=self.config.name,
            instructions=instructions,
            elapsed_ns=now_ns,
            dram_reads=channel.counters.reads,
            dram_writes=channel.counters.writes,
            metadata_reads=tagging.stats.metadata_reads,
            dram_power_mw=power,
        )


# ----------------------------------------------------------------------
# Figure 6: ECC slowdown, error-free and always-correct
# ----------------------------------------------------------------------

FIGURE6_CONFIGS: tuple[SystemConfig, ...] = (
    SystemConfig("MUSE", MUSE_TIMING),
    SystemConfig("RS", RS_TIMING),
    SystemConfig("MUSE Always Correction", MUSE_TIMING, always_correct=True),
    SystemConfig("RS Always Correction", RS_TIMING, always_correct=True),
)


@dataclass
class Figure6Row:
    workload: str
    slowdowns: dict[str, float]  # config name -> time / baseline time


def run_figure6(
    profiles: tuple[WorkloadProfile, ...] = SPEC2017_PROFILES,
    mem_ops: int = 60_000,
    seed: int = 1,
) -> list[Figure6Row]:
    """Normalized slowdown of each ECC configuration vs no ECC."""
    rows = []
    baseline_config = SystemConfig("baseline", NO_ECC_TIMING)
    for profile in profiles:
        stream = EventStream(profile, mem_ops, seed)
        baseline = Simulator(profile, baseline_config, mem_ops, seed).run(stream)
        slowdowns = {}
        for config in FIGURE6_CONFIGS:
            result = Simulator(profile, config, mem_ops, seed).run(stream)
            slowdowns[config.name] = result.elapsed_ns / baseline.elapsed_ns
        rows.append(Figure6Row(workload=profile.name, slowdowns=slowdowns))
    return rows


# ----------------------------------------------------------------------
# Figure 7 / Table VI: memory tagging configurations
# ----------------------------------------------------------------------

FIGURE7_CONFIGS: tuple[SystemConfig, ...] = (
    SystemConfig("MUSE MT", MUSE_TIMING, tagging=TaggingMode.MUSE_INLINE),
    SystemConfig("Base MT", RS_TIMING, tagging=TaggingMode.DISJOINT),
    SystemConfig(
        "32-entry Cache MT", RS_TIMING, tagging=TaggingMode.DISJOINT_CACHED
    ),
)


@dataclass
class Figure7Row:
    workload: str
    results: dict[str, SimResult]

    def normalized(self, metric: str, reference: str = "MUSE MT") -> dict[str, float]:
        base = getattr(self.results[reference], metric)
        return {
            name: (getattr(result, metric) / base if base else 0.0)
            for name, result in self.results.items()
        }


def run_figure7(
    profiles: tuple[WorkloadProfile, ...] = SPEC2017_PROFILES,
    mem_ops: int = 60_000,
    seed: int = 1,
) -> list[Figure7Row]:
    """Slowdown, DRAM power and rd+wr counts, normalized to MUSE MT."""
    rows = []
    for profile in profiles:
        stream = EventStream(profile, mem_ops, seed)
        results = {
            config.name: Simulator(profile, config, mem_ops, seed).run(stream)
            for config in FIGURE7_CONFIGS
        }
        rows.append(Figure7Row(workload=profile.name, results=results))
    return rows


@dataclass(frozen=True)
class PowerSummaryRow:
    """One row of Table VI."""

    scheme: str
    dram_mw: float
    ecc_mw: float
    controllers: int = 2

    @property
    def total_mw(self) -> float:
        return self.dram_mw + self.controllers * self.ecc_mw


def summarize_table6(rows: list[Figure7Row]) -> list[PowerSummaryRow]:
    """Aggregate Figure-7 runs into the paper's Table VI.

    DRAM power is averaged across workloads; ECC engine power comes from
    the VLSI model (encoder + corrector), two memory controllers.
    """
    from repro.core.codes import muse_80_69
    from repro.rs.reed_solomon import rs_80_64
    from repro.vlsi.cost_model import muse_code_cost
    from repro.vlsi.rs_cost import rs_corrector_cost, rs_encoder_cost

    muse_cost = muse_code_cost(muse_80_69())
    muse_ecc_mw = muse_cost.encoder.power_mw + muse_cost.corrector.power_mw
    rs = rs_80_64()
    rs_ecc_mw = rs_encoder_cost(rs).power_mw + rs_corrector_cost(rs).power_mw

    def average_dram(config_name: str) -> float:
        values = [row.results[config_name].dram_power_mw for row in rows]
        return sum(values) / len(values)

    return [
        PowerSummaryRow("MT w/ MUSE", average_dram("MUSE MT"), muse_ecc_mw),
        PowerSummaryRow(
            "MT w/ 16kB cache", average_dram("32-entry Cache MT"), rs_ecc_mw
        ),
        PowerSummaryRow("MT w/o cache", average_dram("Base MT"), rs_ecc_mw),
    ]
