"""Which program entry points the traced run wraps, and the per-layer
metrics derived from their spans.

Every wrapped name is a public function or method, charged to the
layer whose work it does (``bench_trace.LAYERS``): the design-point
functions make ``core`` codes, ``run_chunk`` is ``orchestrate``'s unit of
work.  ``layer_map.json`` says which end-to-end metric each of these
numbers should move, on which workload.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

from bench_trace import LAYERS, Tracer


def register(tracer: Tracer) -> None:
    """Add every traced entry point to ``tracer``."""
    from repro.distribute.cache import ResultCache
    from repro.distribute.checkpoint import CheckpointJournal
    from repro.distribute.coordinator import DistributedSession
    from repro.distribute.queue import ChunkQueue
    from repro.perf.cache import CacheHierarchy
    from repro.perf.dram_timing import DramChannel
    from repro.perf.simulator import Simulator
    from repro.perf.tagging import TaggingEngine
    from repro.perf.workloads import TraceGenerator
    from repro.reliability.metrics import MsedTally
    from repro.reliability.monte_carlo import MuseMsedSimulator, RsMsedSimulator
    from repro.reliability.sampling.scheduler import (
        CampaignRunner,
        CampaignScheduler,
    )

    mc = "repro.reliability.monte_carlo"

    # core: design points (each builds a fresh code and its ELC tables)
    tracer.add_function(mc, "muse_design_point", "core.design_point", "core")
    tracer.add_function(mc, "rs_design_point", "core.design_point", "core")

    # engine: engine build/lookup, fused kernels, batch decode
    tracer.add_function("repro.engine", "get_engine", "engine.build", "engine")
    tracer.add_function("repro.rs.engine", "get_rs_engine", "engine.build", "engine")
    for engine_type in _engine_types():
        if hasattr(engine_type, "fused_chunk_counts"):
            tracer.add_method(
                engine_type, "fused_chunk_counts", "engine.fused", "engine"
            )
        tracer.add_method(engine_type, "decode_batch", "engine.decode_batch", "engine")

    # orchestrate: corruption generation, chunk units, folds, dispatch
    for generator in (
        "muse_corruption_chunk",
        "rs_corruption_chunk",
        "muse_scenario_chunk",
        "rs_scenario_chunk",
    ):
        tracer.add_function(
            "repro.orchestrate.corruption", generator, "corruption.gen",
            "orchestrate",
        )

    def chunk_done(_result, _args, seconds):
        tracer.sample("chunk.latency", seconds)

    for simulator in (MuseMsedSimulator, RsMsedSimulator):
        tracer.add_method(
            simulator, "run_chunk", "orchestrate.chunk", "orchestrate",
            after=chunk_done,
        )
    tracer.add_method(MsedTally, "merge", "orchestrate.fold", "orchestrate")
    tracer.add_function(mc, "run_design_points", "orchestrate.grid", "orchestrate")
    tracer.add_function(
        "repro.orchestrate.pool", "run_sharded", "orchestrate.dispatch",
        "orchestrate",
    )

    # reliability.sampling: the campaign round loop and its allocator
    def allocated(result, _args, _seconds):
        if result:
            tracer.count("scheduler.rounds")
            tracer.count("scheduler.trials_granted", sum(a.trials for a in result))

    tracer.add_method(
        CampaignScheduler, "allocate", "scheduler.allocate",
        "reliability.sampling", after=allocated,
    )
    tracer.add_method(
        CampaignRunner, "run", "campaign.run", "reliability.sampling"
    )

    # distribute: wire codec, leases, session round trips, journal, cache
    wire = "repro.distribute.wire"

    def sent(_result, args, _seconds):
        tracer.count("wire.messages")
        tracer.count("wire.bytes", _frame_bytes(args[1]))

    def sent_many(_result, args, _seconds):
        tracer.count("wire.messages", len(args[1]))
        tracer.count("wire.bytes", sum(_frame_bytes(m) for m in args[1]))

    def received(result, _args, _seconds):
        if result is None:
            return
        tracer.count("wire.messages")
        tracer.count("wire.bytes", _frame_bytes(result))
        seconds = result.get("seconds") if result.get("op") == "result" else None
        if isinstance(seconds, (int, float)):
            # the worker's own decode time for the chunk it returns
            tracer.sample("chunk.latency", float(seconds))

    # home=False: to_wire/from_wire recurse through their module
    # globals, and a span per tree node would time the tracer.
    tracer.add_function(wire, "send_message", "wire.encode", "distribute", sent, home=False)
    tracer.add_function(wire, "send_messages", "wire.encode", "distribute", sent_many, home=False)
    tracer.add_function(wire, "to_wire", "wire.encode", "distribute", home=False)
    tracer.add_function(
        wire, "recv_message", "wire.decode", "distribute", received,
        home=False, via=lambda recv: _timed_reads(tracer, recv),
    )
    tracer.add_function(wire, "from_wire", "wire.decode", "distribute", home=False)

    claimed: dict[int, float] = {}  # task id -> lease claim time

    def lease_claimed(result, _args, _seconds):
        if result is not None:
            claimed[result[0]] = perf_counter()

    def lease_completed(result, args, _seconds):
        start = claimed.pop(args[1], None)
        if start is not None:
            tracer.sample("lease.rtt", perf_counter() - start)
        if result:
            tracer.count("remote.chunks")

    tracer.add_method(ChunkQueue, "claim", "lease.claim", "distribute", after=lease_claimed)
    tracer.add_method(ChunkQueue, "complete", "lease.complete", "distribute", after=lease_completed)
    tracer.add_method(DistributedSession, "run_tasks", "session.round", "distribute")
    tracer.add_method(DistributedSession, "open", "session.open", "distribute")
    tracer.add_method(DistributedSession, "close", "session.close", "distribute")

    def journaled(_result, _args, _seconds):
        tracer.count("journal.records")

    tracer.add_method(CheckpointJournal, "record", "journal.append", "distribute", after=journaled)
    tracer.add_method(CheckpointJournal, "flush", "journal.append", "distribute")

    def looked_up(result, _args, _seconds):
        tracer.count("cache.lookups")
        if result is not None:
            tracer.count("cache.hits")

    tracer.add_method(ResultCache, "lookup", "cache.lookup", "distribute", after=looked_up)
    tracer.add_method(ResultCache, "record", "cache.record", "distribute")
    tracer.add_method(ResultCache, "flush", "cache.record", "distribute")

    # perf: the timing simulator's hierarchy, channel, tagging and trace
    def simulated(result, _args, _seconds):
        tracer.count("perf.dram_reads", result.dram_reads)
        tracer.count("perf.dram_writes", result.dram_writes)
        tracer.count("perf.metadata_reads", result.metadata_reads)

    def accessed(result, _args, _seconds):
        tracer.count(_SERVED[result.served_level])

    tracer.add_method(Simulator, "run", "perf.simulate", "perf", after=simulated)
    tracer.add_method(CacheHierarchy, "warm_l3", "perf.warm", "perf")
    tracer.add_method(CacheHierarchy, "access", "perf.access", "perf", after=accessed)
    for method in ("read", "posted_read", "write"):
        tracer.add_method(DramChannel, method, "perf.dram", "perf")
    tracer.add_method(
        TaggingEngine, "metadata_read_for_miss", "perf.tagging", "perf"
    )
    tracer.add_method(
        TraceGenerator, "operations", "perf.trace", "perf", generator=True
    )


_SERVED = {
    1: "perf.l1_served",
    2: "perf.l2_served",
    3: "perf.l3_served",
    4: "perf.dram_served",
}


class _TimedReader:
    """Stream proxy whose ``readline`` is a ``wire.wait`` span.

    ``recv_message`` blocks in ``readline`` until the worker's next
    frame arrives; charging that to a child span leaves only parsing
    in ``wire.decode``'s self time.
    """

    def __init__(self, stream, readline) -> None:
        self._stream = stream
        self.readline = readline

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def _timed_reads(tracer: Tracer, recv):
    def receive(stream):
        readline = tracer.wrap(stream.readline, "wire.wait", "distribute")
        return recv(_TimedReader(stream, readline))

    return receive


def _frame_bytes(message) -> int:
    """Bytes of one wire frame: compact JSON plus its newline, the
    exact encoding ``repro.distribute.wire`` writes."""
    return len(json.dumps(message, separators=(",", ":")).encode()) + 1


def _engine_types() -> list[type]:
    """Concrete engine classes ``auto`` resolves to for both families."""
    from repro.reliability.monte_carlo import muse_design_point, rs_design_point
    from repro.engine import get_engine
    from repro.rs.engine import get_rs_engine

    return [
        type(get_engine(muse_design_point(5))),
        type(get_rs_engine(rs_design_point(6))),
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-traced-unit layer metrics (means over ``units``)."""
    per = 1.0 / max(1, units)
    t = tracer.total
    counts = tracer.counts
    lookups = counts.get("cache.lookups", 0)
    chunk = tracer.samples.get("chunk.latency", [])
    rtt = tracer.samples.get("lease.rtt", [])
    metrics = {
        "core.design_point_s": t("core.design_point") * per,
        "engine.build_s": t("engine.build") * per,
        "engine.fused_s": t("engine.fused") * per,
        "engine.fused_calls": tracer.calls("engine.fused") * per,
        "engine.decode_batch_s": t("engine.decode_batch") * per,
        "corruption.gen_s": t("corruption.gen") * per,
        "orchestrate.fold_s": t("orchestrate.fold") * per,
        "orchestrate.chunks": (
            tracer.calls("orchestrate.chunk") + counts.get("remote.chunks", 0)
        ) * per,
        "chunk.latency_p50_s": percentile(chunk, 0.50),
        "chunk.latency_p90_s": percentile(chunk, 0.90),
        "scheduler.allocate_s": t("scheduler.allocate") * per,
        "scheduler.rounds": counts.get("scheduler.rounds", 0) * per,
        "scheduler.trials_granted": counts.get("scheduler.trials_granted", 0) * per,
        "wire.encode_s": t("wire.encode") * per,
        "wire.decode_s": tracer.self_time("wire.decode") * per,
        "wire.messages": counts.get("wire.messages", 0) * per,
        "wire.bytes": counts.get("wire.bytes", 0) * per,
        "lease.rtt_p50_s": percentile(rtt, 0.50),
        "lease.rtt_p90_s": percentile(rtt, 0.90),
        "session.round_s": t("session.round") * per,
        "journal.append_s": t("journal.append") * per,
        "journal.records": counts.get("journal.records", 0) * per,
        "cache.lookup_s": t("cache.lookup") * per,
        "cache.record_s": t("cache.record") * per,
        "cache.lookups": lookups * per,
        "cache.hit_ratio": counts.get("cache.hits", 0) / lookups if lookups else 0.0,
        "perf.warm_s": t("perf.warm") * per,
        "perf.access_s": t("perf.access") * per,
        "perf.dram_s": t("perf.dram") * per,
        "perf.tagging_s": t("perf.tagging") * per,
        "perf.trace_s": t("perf.trace") * per,
    }
    for name in (
        "perf.l1_served",
        "perf.l2_served",
        "perf.l3_served",
        "perf.dram_served",
        "perf.dram_reads",
        "perf.dram_writes",
        "perf.metadata_reads",
    ):
        metrics[name] = counts.get(name, 0) * per
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = tracer.layer_self[layer] * per
    return metrics
