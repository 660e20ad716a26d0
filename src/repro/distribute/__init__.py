"""Distributed multi-host execution for the Monte-Carlo studies.

The scale rung over the PR-3 streaming orchestrator: because every
chunk tally is a pure function of ``(spec, chunk range, stream key)``
and folds commutatively, a chunk can run *anywhere* — so this package
ships :class:`ChunkTask` specs to remote hosts over a pickle-free
JSON-line socket protocol and folds the returned tallies exactly once:

* :mod:`~repro.distribute.wire` — framing + the registered-dataclass
  codec;
* :mod:`~repro.distribute.queue` — the work-stealing lease queue
  (re-queues work from dead or straggling workers);
* :mod:`~repro.distribute.checkpoint` — the atomic per-chunk tally
  journal behind ``--checkpoint-dir`` / ``--resume``, and
  :mod:`~repro.distribute.cache` — the cross-run result cache behind
  ``--cache-dir``; the campaign round loop consults and feeds both,
  whatever executor runs its chunks;
* :mod:`~repro.distribute.coordinator` — :class:`DistributedSession`,
  the server + batch dispatch API (``run_tasks(tasks, on_result)``,
  the executor contract :class:`repro.orchestrate.pool.LocalExecutor`
  implements in process) that serves as the campaign round loop's
  barrier;
* :mod:`~repro.distribute.worker` / :mod:`~repro.distribute.local` —
  the ``repro-muse worker --connect`` pull loop and the loopback
  ``--distribute local:N`` subprocess fleet;
* :mod:`~repro.distribute.progress` — the ``--progress`` heartbeats;
* :mod:`~repro.distribute.chaos` — deterministic fault injection
  (``--chaos SPEC`` / ``REPRO_CHAOS``): seeded connection resets, torn
  frames, worker crashes, straggler hangs, duplicated results, and
  torn journal tails, so the fault-tolerance story is *tested* the way
  the repo tests memory faults, not assumed.

The invariant, inherited from the chunk/fold contract and preserved by
exactly-once folding: a distributed run's tally — and every adaptive
stopping decision derived from it — is **byte-identical** to the
``jobs=1`` in-process run at the same seed, across worker counts,
worker deaths, reconnects, injected chaos, and checkpoint/resume
boundaries.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.distribute.chaos import (
    CHAOS_ENV,
    ChaosSpec,
    FaultPlan,
    parse_chaos,
    resolve_chaos,
)
from repro.distribute.checkpoint import (
    JOURNAL_NAME,
    CheckpointJournal,
    SalvageReport,
)

from repro.distribute.cache import ResultCache
from repro.distribute.coordinator import (
    INTERRUPT_ENV,
    PARTIAL_RESULTS_NAME,
    DistributedDegraded,
    DistributedInterrupted,
    DistributedSession,
)
from repro.distribute.local import spawn_local_workers
from repro.distribute.progress import ChunkProgress, Heartbeat
from repro.distribute.queue import ChunkQueue
from repro.distribute.wire import (
    PROTOCOL_VERSION,
    from_wire,
    register_wire_type,
    to_wire,
)
from repro.distribute.worker import serve_worker

__all__ = [
    "CHAOS_ENV",
    "ChaosSpec",
    "CheckpointJournal",
    "ChunkProgress",
    "ChunkQueue",
    "DistributedDegraded",
    "DistributedInterrupted",
    "DistributedSession",
    "FaultPlan",
    "Heartbeat",
    "INTERRUPT_ENV",
    "JOURNAL_NAME",
    "PARTIAL_RESULTS_NAME",
    "PROTOCOL_VERSION",
    "ResultCache",
    "SalvageReport",
    "execution_context",
    "from_wire",
    "parse_chaos",
    "parse_distribute",
    "register_wire_type",
    "resolve_chaos",
    "serve_worker",
    "session_from_spec",
    "spawn_local_workers",
    "to_wire",
]


def parse_distribute(spec: str) -> dict:
    """Parse a ``--distribute`` spec into session keyword arguments.

    * ``local:N`` — spawn N loopback worker subprocesses;
    * ``listen:PORT`` / ``listen:HOST:PORT`` — serve the queue and wait
      for external ``repro-muse worker --connect`` processes.
    """
    mode, _, rest = spec.partition(":")
    try:
        if mode == "local":
            count = int(rest)
            if count < 1:
                raise ValueError
            return {"local_workers": count}
        if mode == "listen":
            host, sep, port = rest.rpartition(":")
            return {
                "host": host if sep else "0.0.0.0",
                "port": int(port if sep else rest),
            }
    except ValueError:
        pass
    raise ValueError(
        f"bad --distribute spec {spec!r}; expected local:N, listen:PORT "
        f"or listen:HOST:PORT"
    )


def session_from_spec(
    spec: str,
    *,
    backend: str | None = None,
    progress: bool = False,
    lease_timeout: float = 60.0,
    interrupt_after: int | None = None,
    chaos: str | None = None,
) -> DistributedSession:
    """Build (but do not open) the session a ``--distribute`` run uses.

    ``chaos`` (defaulting to ``$REPRO_CHAOS``) arms deterministic fault
    injection on the coordinator *and* the spawned loopback workers.
    """
    return DistributedSession(
        backend=backend,
        lease_timeout=lease_timeout,
        heartbeat=Heartbeat() if progress else None,
        interrupt_after=interrupt_after,
        chaos=chaos,
        **parse_distribute(spec),
    )


@contextlib.contextmanager
def execution_context(
    distribute: str | None,
    *,
    backend: str | None = None,
    progress: bool = False,
    lease_timeout: float = 60.0,
    chaos: str | None = None,
) -> Iterator[tuple]:
    """The one experiment-side entry point: ``(executor, progress_cb)``.

    With ``distribute`` set, yields an open :class:`DistributedSession`
    (heartbeats cover progress, so the callback is ``None``); without
    it, yields no executor and — when ``progress`` is on — the
    single-host :class:`ChunkProgress` printer.  Chunk stores are not
    part of the executor: experiments hand ``checkpoint_dir``/``resume``
    and ``cache_dir`` to the run itself
    (:func:`repro.reliability.monte_carlo.run_design_points_adaptive`),
    so in-process and distributed runs journal, resume and cache alike.
    """
    if distribute is None:
        yield None, (ChunkProgress() if progress else None)
        return
    session = session_from_spec(
        distribute,
        backend=backend,
        progress=progress,
        lease_timeout=lease_timeout,
        chaos=chaos,
    )
    with session:
        yield session, None
