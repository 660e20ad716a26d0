"""Bench: loopback distributed Table IV — parity + worker-count scaling.

What this file pins and records:

* a ``--distribute local:N`` table4 run tallies **byte-identical** to
  the ``jobs=1`` in-process run (the transport moves work, never
  results);
* wall-clock at 1 vs 2 loopback workers goes to
  ``benchmarks/BENCH_distributed.json`` (CI artifact) so the transport
  overhead and scaling trajectory are tracked run over run.  Like
  ``BENCH_parallel.json``, the speedup tracks the cores actually
  available — ~1x (minus socket/JSON overhead) on a single-CPU
  container, >1x on multi-core hosts — so ``cpus`` is recorded next to
  the timings.
"""

import json
import os
import time
from pathlib import Path

import pytest

from artifacts import merge_artifact
from repro.distribute import DistributedSession
from repro.engine import resolve_backend
from repro.reliability.monte_carlo import build_table_iv

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")

ARTIFACT = Path(__file__).parent / "BENCH_distributed.json"

# 100k trials keeps the run compute-dominated even on the fused native
# backend (~5x-13x over numpy): with fewer trials the fixed
# worker-spawn cost swamps the overhead ratio asserted below.
TRIALS = 100_000
SEED = 2022
CHUNK_SIZE = 4_096


@requires_numpy
def test_distributed_table_iv_parity_and_scaling():
    build_table_iv(trials=200, seed=SEED)  # warm caches (searches, engines)

    start = time.perf_counter()
    single = build_table_iv(
        trials=TRIALS, seed=SEED, jobs=1, chunk_size=CHUNK_SIZE
    )
    in_process_seconds = time.perf_counter() - start

    timings = {}
    tables = {}
    for workers in (1, 2):
        start = time.perf_counter()
        with DistributedSession(local_workers=workers) as session:
            tables[workers] = build_table_iv(
                trials=TRIALS,
                seed=SEED,
                chunk_size=CHUNK_SIZE,
                executor=session,
            )
        timings[workers] = time.perf_counter() - start

    for workers, table in tables.items():
        assert [p.result for p in table.points] == [
            p.result for p in single.points
        ], f"distributed tally diverged at {workers} workers"

    # The transport must not collapse throughput: chunks of 2048 trials
    # amortise the JSON round-trips, so even loopback-on-one-CPU stays
    # within a modest factor of in-process.
    overhead = timings[1] / in_process_seconds
    assert overhead < 4.0, (
        f"1-worker loopback run took {overhead:.2f}x the in-process time "
        f"({timings[1]:.3f}s vs {in_process_seconds:.3f}s)"
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "experiment": "table4-distributed",
                "trials": TRIALS,
                "seed": SEED,
                "chunk_size": CHUNK_SIZE,
                "backend": resolve_backend("auto"),
                "in_process_seconds": round(in_process_seconds, 4),
                "workers1_seconds": round(timings[1], 4),
                "workers2_seconds": round(timings[2], 4),
                "workers2_speedup_vs_workers1": round(
                    timings[1] / timings[2], 2
                ),
                "cpus": len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count(),
                "note": (
                    "speedup tracks available cores; a single-CPU "
                    "container shows ~1x plus transport overhead"
                ),
            },
            indent=2,
        )
        + "\n"
    )


def test_wire_memo_encoding_bench():
    """Micro-bench the spec-fragment encode memo on the lease hot path.

    A big run dispatches thousands of leases whose ``spec`` is one of
    ~10 values; ``to_wire`` memoises those subtrees, so only the
    per-lease ``Chunk``/group fields are re-walked.  Runs *after* the
    parity bench (which rewrites the artifact wholesale) and merges its
    numbers in.
    """
    from repro.core.codes import muse_80_69
    from repro.distribute import wire
    from repro.orchestrate.plan import Chunk
    from repro.orchestrate.worker import ChunkTask, CodeRef

    from repro.reliability.monte_carlo import MuseMsedSimulator

    spec = MuseMsedSimulator(
        muse_80_69(), code_ref=CodeRef("repro.core.codes:muse_80_69")
    )._task_spec()
    tasks = [
        ChunkTask("bench", spec, Chunk(i * 4096, 4096), 12345)
        for i in range(2_000)
    ]

    def encode_all() -> int:
        return sum(len(json.dumps(wire.to_wire(task))) for task in tasks)

    def best_of(runs: int, *, memoised: bool) -> float:
        best = float("inf")
        for _ in range(runs):
            wire._ENCODED_MEMO.clear()
            start = time.perf_counter()
            if memoised:
                encode_all()
            else:
                for task in tasks:  # clearing per task forces a full re-walk
                    wire._ENCODED_MEMO.clear()
                    json.dumps(wire.to_wire(task))
            best = min(best, time.perf_counter() - start)
        return best

    # Identical bytes either way — the memo is invisible on the wire.
    wire._ENCODED_MEMO.clear()
    cold_payload = json.dumps(wire.to_wire(tasks[0]))
    warm_payload = json.dumps(wire.to_wire(tasks[0]))
    assert cold_payload == warm_payload

    cold = best_of(3, memoised=False)
    warm = best_of(3, memoised=True)
    assert warm <= cold * 1.10, (
        f"memoised encode slower than fresh encode: {warm:.4f}s vs {cold:.4f}s"
    )

    merge_artifact(
        ARTIFACT,
        {
            "wire_memo": {
                "messages": len(tasks),
                "fresh_encode_seconds": round(cold, 4),
                "memoised_encode_seconds": round(warm, 4),
                "speedup": round(cold / warm, 2) if warm else None,
                "note": (
                    "per-lease ChunkTask encode with the shared spec "
                    "subtree memoised vs re-walked every message"
                ),
            }
        },
    )
