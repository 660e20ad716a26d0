"""Distributed execution end-to-end: loopback workers over real sockets.

The acceptance contract this file pins:

* a ``--distribute local:N`` run folds a tally **byte-identical** to
  the ``jobs=1`` in-process run at the same seed — including when a
  worker is killed mid-run (lease re-queue) and when the run is
  interrupted and resumed from the checkpoint journal;
* adaptive stopping decisions are identical through the distributed
  round barrier (same ``trials_used``, rounds, and convergence).
"""

import pytest

from repro.core.codes import muse_80_69
from repro.distribute import (
    CheckpointJournal,
    DistributedInterrupted,
    DistributedSession,
)
from repro.engine import available_backends
from repro.orchestrate import CodeRef, derive_key
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    build_table_iv,
    run_design_points_adaptive,
)
from repro.reliability.sampling.sequential import AdaptivePolicy
from repro.rs.reed_solomon import rs_144_128

SEED = 5


def campaign(simulator, policy, seed, **kwargs):
    """One simulator's adaptive campaign outcome."""
    return run_design_points_adaptive([simulator], policy, seed, **kwargs)[0]


def muse_simulator(backend="auto"):
    return MuseMsedSimulator(
        muse_80_69(),
        backend=backend,
        code_ref=CodeRef("repro.core.codes:muse_80_69"),
    )


def rs_simulator(backend="auto"):
    return RsMsedSimulator(
        rs_144_128(),
        backend=backend,
        code_ref=CodeRef("repro.rs.reed_solomon:rs_144_128"),
    )


class TestLoopbackDeterminism:
    @pytest.mark.parametrize(
        "make", (muse_simulator, rs_simulator), ids=("muse", "rs")
    )
    def test_tally_identical_to_in_process(self, make):
        simulator = make()
        serial = simulator.run(600, seed=SEED, chunk_size=50)
        with DistributedSession(local_workers=2) as session:
            distributed = simulator.run(
                600, seed=SEED, chunk_size=50, executor=session
            )
        assert distributed == serial

    def test_table_iv_identical_to_in_process(self):
        trials, seed = 240, 11
        baseline = build_table_iv(trials=trials, seed=seed)
        with DistributedSession(local_workers=2) as session:
            table = build_table_iv(
                trials=trials, seed=seed, chunk_size=64, executor=session
            )
        assert [p.result for p in table.points] == [
            p.result for p in baseline.points
        ]
        assert [p.label for p in table.points] == [
            p.label for p in baseline.points
        ]

    def test_scalar_worker_fleet_folds_the_same_tally(self):
        """A worker-side --backend override changes the engine, never
        the tally (the cross-backend contract, now across hosts)."""
        simulator = muse_simulator()
        serial = simulator.run(300, seed=SEED, chunk_size=100)
        with DistributedSession(local_workers=1, backend="scalar") as session:
            distributed = simulator.run(
                300, seed=SEED, chunk_size=100, executor=session
            )
        assert distributed == serial

    @pytest.mark.parametrize("backend", available_backends())
    def test_every_registered_backend_folds_the_same_tally(self, backend):
        """2-worker loopback with each available backend forced on the
        workers — the JIT/native fused chunk path included — must fold
        byte-identically to the in-process run."""
        simulator = muse_simulator()
        serial = simulator.run(400, seed=SEED, chunk_size=64)
        with DistributedSession(local_workers=2, backend=backend) as session:
            distributed = simulator.run(
                400, seed=SEED, chunk_size=64, executor=session
            )
        assert distributed == serial

    def test_session_serves_multiple_batches(self):
        """Workers survive across run_tasks calls (adaptive rounds)."""
        simulator = muse_simulator()
        with DistributedSession(local_workers=1) as session:
            first = simulator.run(200, seed=1, chunk_size=64, executor=session)
            second = simulator.run(200, seed=2, chunk_size=64, executor=session)
        assert first == simulator.run(200, seed=1, chunk_size=64)
        assert second == simulator.run(200, seed=2, chunk_size=64)


class TestFaultTolerance:
    def test_worker_killed_mid_run_tally_identical(self):
        """Kill one of two workers after the first fold: its leases
        re-queue and the survivor finishes — same tally, byte for byte."""
        simulator = muse_simulator()
        serial = simulator.run(3000, seed=SEED, chunk_size=100)
        killed = []
        with DistributedSession(local_workers=2) as session:

            def assassin(done, total):
                if not killed:
                    killed.append(True)
                    session.worker_processes[0].kill()

            distributed = simulator.run(
                3000,
                seed=SEED,
                chunk_size=100,
                executor=session,
                progress=assassin,
            )
            assert not session.worker_processes[0].is_alive()
        assert killed, "kill hook never fired"
        assert distributed == serial

    def test_all_local_workers_dead_fails_instead_of_hanging(self):
        simulator = muse_simulator()
        with DistributedSession(local_workers=1) as session:
            session.worker_processes[0].kill()
            session.worker_processes[0].join(timeout=5.0)
            with pytest.raises(RuntimeError, match="workers exited"):
                simulator.run(200, seed=SEED, chunk_size=50, executor=session)

    def test_adaptive_stopping_identical_through_round_barrier(self):
        policy = AdaptivePolicy(
            ci_target=0.3,
            metric="failure",
            initial_trials=100,
            max_trials=800,
        )
        simulator = muse_simulator()
        baseline = campaign(simulator, policy, seed=7, chunk_size=64)
        with DistributedSession(local_workers=2) as session:
            distributed = campaign(
                simulator, policy, seed=7, chunk_size=64, executor=session
            )
        assert distributed.result == baseline.result
        assert distributed.trials_used == baseline.trials_used
        assert distributed.rounds == baseline.rounds
        assert distributed.converged == baseline.converged


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "chunk_size,workers,backend",
        [(50, 2, "auto"), (64, 1, "scalar")],
        ids=("auto-2w", "scalar-1w"),
    )
    def test_interrupt_then_resume_is_byte_identical(
        self, tmp_path, chunk_size, workers, backend
    ):
        """Resume after k of n chunks ≡ uninterrupted run, across
        backends and (chunk_size, workers) splits."""
        simulator = muse_simulator(backend)
        serial = simulator.run(600, seed=SEED, chunk_size=chunk_size)
        key = derive_key(SEED)
        with pytest.raises(DistributedInterrupted):
            with DistributedSession(
                local_workers=workers, interrupt_after=3
            ) as session:
                simulator.run(
                    600, seed=SEED, chunk_size=chunk_size, executor=session,
                    checkpoint_dir=tmp_path,
                )
        journal = CheckpointJournal.open(tmp_path, key, resume=True)
        assert len(journal) >= 3  # the interrupt saved completed chunks
        with DistributedSession(local_workers=workers) as session:
            resumed = simulator.run(
                600, seed=SEED, chunk_size=chunk_size, executor=session,
                checkpoint_dir=tmp_path, resume=True,
            )
        assert resumed == serial

    def test_resume_of_finished_run_recomputes_nothing(self, tmp_path):
        simulator = muse_simulator()
        with DistributedSession(local_workers=1) as session:
            first = simulator.run(
                400, seed=SEED, chunk_size=100, executor=session,
                checkpoint_dir=tmp_path,
            )
        with DistributedSession(local_workers=1) as session:
            replayed = simulator.run(
                400, seed=SEED, chunk_size=100, executor=session,
                checkpoint_dir=tmp_path, resume=True,
            )
            assert session._folds == 0  # everything answered from disk
        assert replayed == first

    def test_adaptive_interrupt_then_resume_identical_decisions(
        self, tmp_path
    ):
        """The round barrier replays journalled rounds deterministically:
        a resumed adaptive run stops at the same look with the same
        tally as an uninterrupted one."""
        policy = AdaptivePolicy(
            ci_target=0.3,
            metric="failure",
            initial_trials=100,
            max_trials=800,
        )
        simulator = muse_simulator()
        baseline = campaign(simulator, policy, seed=7, chunk_size=50)
        with pytest.raises(DistributedInterrupted):
            with DistributedSession(
                local_workers=1, interrupt_after=2
            ) as session:
                campaign(
                    simulator, policy, seed=7, chunk_size=50,
                    executor=session, checkpoint_dir=tmp_path,
                )
        with DistributedSession(local_workers=1) as session:
            resumed = campaign(
                simulator, policy, seed=7, chunk_size=50, executor=session,
                checkpoint_dir=tmp_path, resume=True,
            )
        assert resumed.result == baseline.result
        assert resumed.trials_used == baseline.trials_used
        assert resumed.rounds == baseline.rounds
        assert resumed.converged == baseline.converged
