"""Record-once / replay-per-config parity for the timing simulator.

``_reference_run`` is the per-operation loop the simulator used before
the hierarchy walk was split from the replay: a fresh hierarchy, warmed
and walked for every configuration.  It lives here only as an oracle —
every replayed ``SimResult`` must equal it exactly, floats included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.simulator as simulator_module
from repro.perf.cache import Cache, CacheHierarchy
from repro.perf.dram_timing import DramChannel, DramPowerModel
from repro.perf.simulator import (
    FIGURE6_CONFIGS,
    FIGURE7_CONFIGS,
    NO_ECC_TIMING,
    EventStream,
    SimResult,
    Simulator,
    SystemConfig,
    run_figure6,
    run_figure7,
)
from repro.perf.tagging import TaggingEngine
from repro.perf.workloads import TraceGenerator, WorkloadProfile, profile_by_name

BASELINE = SystemConfig("baseline", NO_ECC_TIMING)
ALL_CONFIGS = (BASELINE, *FIGURE6_CONFIGS, *FIGURE7_CONFIGS)
SUBSET = tuple(
    profile_by_name(name) for name in ("519.lbm_r", "505.mcf_r", "541.leela_r")
)


def _reference_run(sim: Simulator, hierarchy: CacheHierarchy | None = None) -> SimResult:
    """One configuration simulated from scratch, one op at a time."""
    if hierarchy is None:
        hierarchy = CacheHierarchy()
    if sim.warm:
        hierarchy.warm_l3(
            TraceGenerator.BASE_ADDRESS + TraceGenerator.HOT_REGION_BYTES,
            sim.profile.working_set_kb * 1024,
            dirty_fraction=sim.profile.write_fraction,
            seed=sim.seed,
        )
    channel = DramChannel(sim.dram_config)
    tagging = TaggingEngine(
        sim.config.tagging, cache_entries=sim.config.metadata_cache_entries
    )
    trace = TraceGenerator(sim.profile, seed=sim.seed)
    ecc = sim.config.ecc
    correction_ns = ecc.correction_ns if sim.config.always_correct else 0.0
    write_ns = ecc.write_ns
    cycle_ns = sim.cpu.cycle_ns

    instruction_ns = sim.cpu.instruction_ns
    fetch_ns = sim.cpu.fetch_cycles * cycle_ns
    now_ns = 0.0
    instructions = 0
    for op in trace.operations(sim.mem_ops):
        instructions += op.gap_instructions + 1
        now_ns += op.gap_instructions * instruction_ns + fetch_ns
        event = hierarchy.access(op.address, op.is_write)
        if event.served_level < 4:
            now_ns += sim.cpu.level_ns(event.served_level)
        else:
            now_ns += (
                sim.cpu.level_ns(1) + sim.cpu.level_ns(2) + sim.cpu.level_ns(3)
            )
            now_ns = channel.read(op.address, now_ns, extra_ns=correction_ns)
            metadata_addr = tagging.metadata_read_for_miss(op.address)
            if metadata_addr is not None:
                channel.posted_read(metadata_addr, now_ns)
        for victim in event.writebacks:
            channel.write(victim, now_ns, extra_ns=write_ns)

    power = DramPowerModel().power_mw(channel.counters, now_ns)
    return SimResult(
        workload=sim.profile.name,
        config=sim.config.name,
        instructions=instructions,
        elapsed_ns=now_ns,
        dram_reads=channel.counters.reads,
        dram_writes=channel.counters.writes,
        metadata_reads=tagging.stats.metadata_reads,
        dram_power_mw=power,
    )


profiles = st.builds(
    WorkloadProfile,
    name=st.text("abcdefghijklmnopqrstuvwxyz._0123456789", min_size=1, max_size=16),
    # half the draws overflow the 8 MB L3, so replays carry writebacks
    working_set_kb=st.integers(1, 12_000) | st.integers(8_500, 12_000),
    stream_fraction=st.floats(0.0, 1.0),
    write_fraction=st.floats(0.0, 1.0),
    mem_per_kilo_inst=st.integers(1, 1_000),
)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(
    profile=profiles,
    seed=st.integers(0, 2**32 - 1),
    mem_ops=st.integers(0, 3_000),
    warm=st.booleans(),
    recorder=st.sampled_from(ALL_CONFIGS),
    config=st.sampled_from(ALL_CONFIGS),
)
def test_replay_matches_a_fresh_walk(profile, seed, mem_ops, warm, recorder, config):
    """A stream recorded under one config replays exactly for any other."""
    stream = EventStream(profile, mem_ops, seed, warm)
    Simulator(profile, recorder, mem_ops, seed, warm).run(stream)
    sim = Simulator(profile, config, mem_ops, seed, warm)
    assert sim.run(stream) == _reference_run(sim)


def test_run_without_a_stream_matches_a_fresh_walk():
    sim = Simulator(SUBSET[1], FIGURE7_CONFIGS[2], mem_ops=2_000, seed=7)
    assert sim.run() == _reference_run(sim)


def _small_hierarchy() -> CacheHierarchy:
    """An L3 smaller than the L2: L2 victims often miss the L3, so plain
    cache hits also write back — a case the paper's sizes almost never
    produce in a short trace."""
    return CacheHierarchy(
        l1=Cache("L1D", 4 * 1024, ways=2),
        l2=Cache("L2", 32 * 1024, ways=4),
        l3=Cache("L3", 16 * 1024, ways=4),
    )


@pytest.mark.parametrize("warm", [False, True])
def test_cache_hits_that_write_back_replay_exactly(monkeypatch, warm):
    monkeypatch.setattr(simulator_module, "CacheHierarchy", _small_hierarchy)
    profile = WorkloadProfile("small", 64, 0.3, 0.6, 400)
    stream = EventStream(profile, 3_000, 3, warm)
    for config in ALL_CONFIGS:
        sim = Simulator(profile, config, 3_000, 3, warm)
        assert sim.run(stream) == _reference_run(sim, _small_hierarchy())
    hits_writing_back = [
        event
        for event in stream.events(sim)
        if event[2] < 4 and event[3]
    ]
    assert hits_writing_back


class TestPinnedFigures:
    """Figure 6/7 rows at ``mem_ops=4000, seed=2022``, as the per-op loop
    produced them; any hash seed must reproduce them bit for bit."""

    def test_figure6_slowdowns(self):
        rows = run_figure6(SUBSET, mem_ops=4_000, seed=2022)
        assert {row.workload: row.slowdowns for row in rows} == {
            "519.lbm_r": {
                "MUSE": 1.0075574871767785,
                "RS": 1.0025034631017904,
                "MUSE Always Correction": 1.0247145689050325,
                "RS Always Correction": 1.0082224903445463,
            },
            "505.mcf_r": {
                "MUSE": 1.0035173503819586,
                "RS": 1.0011724501273205,
                "MUSE Always Correction": 1.0178775006308827,
                "RS Always Correction": 1.00595916687695,
            },
            "541.leela_r": {
                "MUSE": 1.0,
                "RS": 1.0,
                "MUSE Always Correction": 1.009454680280644,
                "RS Always Correction": 1.0031515600935454,
            },
        }

    def test_figure7_results(self):
        rows = run_figure7(SUBSET, mem_ops=4_000, seed=2022)
        pinned = {
            "519.lbm_r": {
                "MUSE MT": (8000, 151511.68235293723, 2064, 916, 0, 6475.933797921856),
                "Base MT": (8000, 153645.48235293597, 4128, 916, 2064, 6561.0102561542435),
                "32-entry Cache MT": (8000, 151250.4823529375, 2222, 916, 158, 6489.482183858474),
            },
            "505.mcf_r": {
                "MUSE MT": (8000, 176889.04705880812, 2025, 498, 0, 6493.03064652892),
                "Base MT": (8000, 180656.11372547332, 4050, 498, 2025, 6610.698176552946),
                "32-entry Cache MT": (8000, 178865.3137254741, 3322, 498, 1297, 6581.110619327896),
            },
            "541.leela_r": {
                "MUSE MT": (12000, 67030.29411765476, 507, 0, 0, 6383.236442697108),
                "Base MT": (12000, 70205.29411765441, 1014, 0, 507, 6443.140746885175),
                "32-entry Cache MT": (12000, 67030.29411765476, 509, 0, 2, 6383.490059367358),
            },
        }
        assert [row.workload for row in rows] == list(pinned)
        for row in rows:
            assert row.results == {
                config: SimResult(row.workload, config, *fields)
                for config, fields in pinned[row.workload].items()
            }


class TestStreamSharing:
    def test_replaying_twice_is_stable_and_leaves_the_stream_intact(self):
        profile = SUBSET[0]
        stream = EventStream(profile, 2_000, 5)
        sim = Simulator(profile, FIGURE7_CONFIGS[1], 2_000, 5)
        first = sim.run(stream)
        recorded = list(stream.events(sim))
        assert sim.run(stream) == first
        assert stream.events(sim) == recorded

    @pytest.mark.parametrize(
        "field, value",
        [
            ("profile", SUBSET[2]),
            ("mem_ops", 1_999),
            ("seed", 6),
            ("warm", False),
        ],
    )
    def test_a_stream_for_another_trace_is_rejected(self, field, value):
        stream = EventStream(SUBSET[0], 2_000, 5)
        Simulator(SUBSET[0], BASELINE, 2_000, 5).run(stream)
        args = {"profile": SUBSET[0], "mem_ops": 2_000, "seed": 5, "warm": True}
        args[field] = value
        other = Simulator(config=BASELINE, **args)
        with pytest.raises(ValueError, match="cannot replay"):
            other.run(stream)
