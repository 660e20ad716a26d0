"""Bench: the native (self-compiled C) backend end-to-end on Table IV.

The native-speed-decode acceptance bar for the top rung of the backend
ladder:

* full ``build_table_iv`` at 100k trials on ``backend="native"``:
  byte-identical points to numpy and **>= 5x faster** end to end, as
  the median speedup of ``PAIRS`` interleaved native/numpy pairs (one
  pair is a single shot that host noise can push either way);
* C compilation happens at probe time and is excluded by the warm
  pass;
* timings merge into ``benchmarks/BENCH_table4.json`` as ``native_*``
  columns.

Skips cleanly when no working C compiler is present.
"""

from pathlib import Path
from statistics import median

import pytest

from artifacts import merge_artifact, time_table_iv
from repro.engine import available_backends

pytestmark = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler?)",
)

ARTIFACT = Path(__file__).parent / "BENCH_table4.json"

TRIALS = 100_000
SEED = 2022
#: Interleaved native/numpy pairs whose median speedup is gated.
PAIRS = 3


def test_native_table_iv_endtoend_speedup():
    """Full table4 at 100k trials: native >= 5x numpy (median of
    interleaved pairs), identical points in every pair."""
    from repro.reliability.monte_carlo import build_table_iv

    # Warm both backends: design-point searches, engine caches, and the
    # one-time ctypes library load all happen here, outside the timing.
    build_table_iv(trials=200, seed=SEED, backend="numpy")
    build_table_iv(trials=200, seed=SEED, backend="native")

    native_seconds, numpy_seconds = [], []
    for _ in range(PAIRS):
        seconds, native_table = time_table_iv("native", TRIALS, SEED)
        native_seconds.append(seconds)
        seconds, ref_table = time_table_iv("numpy", TRIALS, SEED)
        numpy_seconds.append(seconds)
        assert [p.result for p in native_table.points] == [
            p.result for p in ref_table.points
        ], "native tallies diverged from numpy"
    speedups = [
        numpy / native for numpy, native in zip(numpy_seconds, native_seconds)
    ]

    speedup = median(speedups)
    assert speedup >= 5.0, (
        f"native backend only {speedup:.1f}x numpy on table4 at {TRIALS} "
        f"trials (median of {PAIRS} pairs: "
        f"{', '.join(f'{ratio:.2f}x' for ratio in speedups)})"
    )

    merge_artifact(
        ARTIFACT,
        {
            "endtoend_trials": TRIALS,
            "endtoend_pairs": PAIRS,
            "numpy_endtoend_seconds": round(median(numpy_seconds), 4),
            "native_seconds": round(median(native_seconds), 4),
            "native_speedup_vs_numpy": round(speedup, 2),
        },
    )


def test_native_engine_cache_reused():
    """One compiled library + one engine per (code, flavour)."""
    from repro.core.codes import muse_144_132
    from repro.engine import get_engine
    from repro.engine.cc import load_library

    code = muse_144_132()
    assert load_library() is load_library()
    first = get_engine(code, "native")
    assert get_engine(code, "native") is first
    assert get_engine(code, "native", ripple_check=False) is not first
