#!/usr/bin/env python3
"""A resumable distributed Monte-Carlo sweep, end to end.

Runs a rare-event MSED study for MUSE(80,69) through the full
coordinator/worker path on this machine: loopback worker subprocesses
pulling chunks from a work-stealing queue, a checkpoint journal after
every folded chunk, a simulated mid-run crash, and a resume that
finishes byte-identical to an uninterrupted run.

Run:  python examples/distributed_sweep.py
"""

import tempfile
from pathlib import Path

from repro.core.codes import muse_80_69
from repro.distribute import (
    CheckpointJournal,
    DistributedInterrupted,
    DistributedSession,
)
from repro.orchestrate import CodeRef, derive_key
from repro.reliability.monte_carlo import MuseMsedSimulator

TRIALS = 40_000
CHUNK_SIZE = 2_000
SEED = 2022


def main() -> None:
    simulator = MuseMsedSimulator(
        muse_80_69(), code_ref=CodeRef("repro.core.codes:muse_80_69")
    )
    key = derive_key(SEED)
    checkpoint_dir = Path(tempfile.mkdtemp(prefix="muse-ckpt-"))
    print(f"checkpoint journal: {checkpoint_dir}/checkpoint.jsonl")

    # --- first attempt: 2 workers, forced to die after 7 chunks -------
    print(f"\nrun 1: {TRIALS} trials over 2 workers, crashing mid-run ...")
    try:
        with DistributedSession(local_workers=2, interrupt_after=7) as session:
            simulator.run(
                TRIALS, seed=SEED, chunk_size=CHUNK_SIZE, executor=session,
                checkpoint_dir=checkpoint_dir,
            )
    except DistributedInterrupted as exc:
        print(f"  crashed on purpose: {exc}")

    journal = CheckpointJournal.open(checkpoint_dir, key, resume=True)
    print(f"  journal holds {len(journal)} completed chunks")

    # --- resume: journalled chunks replay from disk -------------------
    print("\nrun 2: resuming from the checkpoint ...")
    with DistributedSession(local_workers=2) as session:
        resumed = simulator.run(
            TRIALS, seed=SEED, chunk_size=CHUNK_SIZE, executor=session,
            checkpoint_dir=checkpoint_dir, resume=True,
        )
        print(f"  chunks computed after resume: {session._folds}")

    # --- the distributed contract -------------------------------------
    serial = simulator.run(TRIALS, seed=SEED, chunk_size=CHUNK_SIZE)
    assert resumed == serial, "distributed tally diverged!"
    print("\nresumed distributed run == in-process run, byte for byte:")
    print(f"  {serial.describe()}")


if __name__ == "__main__":
    main()
