"""Fixed-trial runs are one-round campaigns.

* **same grid** — a fixed run hands a distributed executor exactly the
  chunk tasks of the design-points x chunks grid, in index order, in
  one batch (so checkpoint journals, spec fingerprints and result
  caches written before fixed runs became campaigns stay valid);
* **result cache** — a warm re-run of a fixed table folds every cell
  from disk without running a single chunk, with tallies identical to
  the cold and the uncached run;
* **fold property** (Hypothesis) — for any family, design point, trial
  count, chunk size and backend, a fixed run equals the fold of
  ``run_chunk`` over ``plan_chunks``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orchestrate.plan import plan_chunks
from repro.orchestrate.rng import derive_key
from repro.orchestrate.worker import (
    ChunkTask,
    CodeRef,
    group_labels,
    run_chunk_task,
)
from repro.reliability.metrics import MsedTally
from repro.reliability.monte_carlo import (
    MsedSimulator,
    MuseMsedSimulator,
    RsMsedSimulator,
    build_table_iv,
    muse_design_point,
    rs_design_point,
    run_design_points,
)

SEED = 2022
MC = "repro.reliability.monte_carlo"


def _simulator(family: str, extra_bits: int, backend: str = "auto"):
    if family == "muse":
        return MuseMsedSimulator(
            muse_design_point(extra_bits),
            backend=backend,
            code_ref=CodeRef(f"{MC}:muse_design_point", (extra_bits,)),
        )
    return RsMsedSimulator(
        rs_design_point(extra_bits),
        backend=backend,
        code_ref=CodeRef(f"{MC}:rs_design_point", (extra_bits,)),
    )


class RecordingExecutor:
    """A stand-in distributed session: records each batch, runs it."""

    def __init__(self):
        self.batches = []

    def run_tasks(self, tasks, on_result):
        self.batches.append(list(tasks))
        for task in tasks:
            _, tally = run_chunk_task(task)
            on_result(task, tally)


class TestOneRoundCampaign:
    def test_distributed_fixed_run_submits_the_grid_in_order(self):
        simulators = [_simulator("muse", 1), _simulator("rs", 2)]
        executor = RecordingExecutor()
        results = run_design_points(
            simulators, 1_000, SEED, chunk_size=300, executor=executor,
            group_ns="grid",
        )
        key = derive_key(SEED)
        grid = [
            ChunkTask(group, simulator._task_spec(), chunk, key)
            for group, simulator in zip(group_labels(2, "grid"), simulators)
            for chunk in plan_chunks(1_000, 300)
        ]
        assert executor.batches == [grid]
        assert results == run_design_points(simulators, 1_000, SEED)


class TestFixedRunCache:
    def test_warm_rerun_runs_no_chunk(self, tmp_path, monkeypatch):
        calls = []
        original = MsedSimulator.run_chunk

        def counted(simulator, chunk, key):
            calls.append(chunk)
            return original(simulator, chunk, key)

        monkeypatch.setattr(MsedSimulator, "run_chunk", counted)
        cache_dir = str(tmp_path / "cache")
        uncached = build_table_iv(trials=2_000, chunk_size=500)
        calls.clear()
        cold = build_table_iv(trials=2_000, chunk_size=500, cache_dir=cache_dir)
        assert len(calls) == 10 * 4
        calls.clear()
        warm = build_table_iv(trials=2_000, chunk_size=500, cache_dir=cache_dir)
        assert calls == []
        tallies = [
            [point.result for point in table.points]
            for table in (uncached, cold, warm)
        ]
        assert tallies[0] == tallies[1] == tallies[2]
        assert all(point.sampling is None for point in warm.points)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(
    point=st.one_of(
        st.tuples(st.just("muse"), st.integers(0, 5)),
        st.tuples(st.just("rs"), st.sampled_from((0, 2, 4, 6))),
    ),
    trials=st.integers(0, 5_000),
    chunk_size=st.integers(64, 6_000),
    backend=st.sampled_from(("numpy", "auto")),
)
def test_fixed_run_is_the_fold_of_its_chunks(
    point, trials, chunk_size, backend
):
    simulator = _simulator(*point, backend=backend)
    key = derive_key(SEED)
    folded = MsedTally()
    for chunk in plan_chunks(trials, chunk_size):
        folded.merge(simulator.run_chunk(chunk, key))
    assert simulator.run(trials, SEED, chunk_size=chunk_size) == folded.freeze()
