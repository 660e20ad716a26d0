"""Interrupt and resume at the one fold site (Hypothesis).

Every executed chunk's tally reaches the campaign round loop's single
fold, which journals it before it reports progress.  So stopping a
run after *any* N of its computed folds — here by raising from the
progress callback — and resuming it from its checkpoint journal must
give the uninterrupted outcomes, with every chunk journalled exactly
once.  The property holds whichever executor ran the chunks: in
process, across a process pool, or any object implementing
``run_tasks(tasks, on_result)``.
"""

import functools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codes import muse_80_69
from repro.distribute.checkpoint import JOURNAL_NAME
from repro.orchestrate.persist import decode_crc_line
from repro.orchestrate.worker import CodeRef, run_chunk_task
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    fixed_policy,
    run_design_points_adaptive,
)
from repro.reliability.sampling.sequential import AdaptivePolicy
from repro.rs.reed_solomon import rs_144_128

SEED = 11
CHUNK_SIZE = 100
POLICIES = {
    "fixed": fixed_policy(400),
    "adaptive": AdaptivePolicy(
        ci_target=0.3, metric="failure", initial_trials=100, max_trials=800
    ),
}


class Interrupted(Exception):
    """Raised from the progress callback to stop a run mid-flight."""


class InThreadExecutor:
    """The smallest executor: runs each task here, reports it once."""

    def run_tasks(self, tasks, on_result):
        for task in tasks:
            _, tally = run_chunk_task(task)
            on_result(task, tally)


def simulators():
    return [
        MuseMsedSimulator(
            muse_80_69(), code_ref=CodeRef("repro.core.codes:muse_80_69")
        ),
        RsMsedSimulator(
            rs_144_128(), code_ref=CodeRef("repro.rs.reed_solomon:rs_144_128")
        ),
    ]


def campaign(policy, shape, directory, resume=False, progress=None):
    return run_design_points_adaptive(
        simulators(),
        POLICIES[policy],
        SEED,
        jobs=2 if shape == "jobs=2" else 1,
        chunk_size=CHUNK_SIZE,
        progress=progress,
        executor=InThreadExecutor() if shape == "executor" else None,
        checkpoint_dir=directory,
        resume=resume,
    )


def journalled(directory) -> list[tuple]:
    """``(group, start, size)`` of every record, in file order."""
    lines = (Path(directory) / JOURNAL_NAME).read_bytes().splitlines()
    records = [decode_crc_line(line) for line in lines[1:]]
    return [(r["group"], r["start"], r["size"]) for r in records]


@functools.cache
def baseline(policy):
    """The uninterrupted outcomes and the chunks they journal."""
    with tempfile.TemporaryDirectory() as directory:
        outcomes = campaign(policy, "jobs=1", directory)
        return outcomes, sorted(journalled(directory))


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(
    policy=st.sampled_from(sorted(POLICIES)),
    shape=st.sampled_from(("jobs=1", "jobs=2", "executor")),
    data=st.data(),
)
def test_resume_after_any_fold_equals_uninterrupted(policy, shape, data):
    outcomes, chunks = baseline(policy)
    stop_after = data.draw(st.integers(1, len(chunks)), label="stop_after")

    def stop(done, _total):
        if done >= stop_after:
            raise Interrupted

    with tempfile.TemporaryDirectory() as directory:
        with pytest.raises(Interrupted):
            campaign(policy, shape, directory, progress=stop)
        assert len(journalled(directory)) == stop_after

        resumed = campaign(policy, shape, directory, resume=True)
        assert resumed == outcomes
        held = journalled(directory)
        assert len(held) == len(set(held))  # every chunk exactly once
        assert sorted(held) == chunks
