"""The coordinator: serve a work-stealing chunk queue, fold the tallies.

One :class:`DistributedSession` owns the whole distributed run:

* a threaded TCP server speaking the JSON-line protocol
  (:mod:`repro.distribute.wire`) — one handler thread per connected
  worker, all mutating one lock-guarded :class:`ChunkQueue`;
* **exactly-once delivery**: every chunk's first completion is handed
  to the caller's ``on_result(task, tally)`` once (duplicates from
  stolen leases are dropped), so the caller's fold — the campaign round
  loop's, which also journals and caches — is byte-identical to
  ``jobs=1`` whatever the completion order, worker count, or failure
  history;
* the **round barrier**: :meth:`run_tasks` is a batch call — submit,
  deliver every result, return — which is exactly the synchronisation
  point the campaign round loop needs: the coordinator process
  evaluates the stopping policy between batches and allocates the next
  round (a fixed-trial run is a single batch).

The session owns no chunk store: checkpoint journals and result caches
belong to the run
(:class:`~repro.reliability.sampling.scheduler.CampaignRunner`), which
consults them before dispatch, so a journalled or cached chunk never
reaches the queue.

Workers survive across batches: between rounds they poll and are told
to idle, so an adaptive run pays connection setup once.
"""

from __future__ import annotations

import os
import socketserver
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import telemetry
from repro.distribute.chaos import FaultPlan, resolve_chaos, spec_string
from repro.distribute.progress import Heartbeat
from repro.distribute.queue import ChunkQueue
from repro.distribute.wire import (
    PROTOCOL_VERSION,
    from_wire,
    recv_message,
    send_message,
    to_wire,
)
from repro.orchestrate.persist import atomic_write_json
from repro.orchestrate.worker import spec_fingerprint
from repro.reliability.metrics import MsedTally
from repro.telemetry.log import log_line

#: Environment hook for fault-injection smoke tests (CI): interrupt the
#: session after this many computed folds, as if the coordinator died.
INTERRUPT_ENV = "REPRO_DISTRIBUTE_INTERRUPT_AFTER"

#: A task that fails on this many distinct attempts aborts the run —
#: a deterministic bug would otherwise bounce between workers forever.
MAX_TASK_ATTEMPTS = 3

#: The durable partial-results report a degraded run leaves next to
#: the checkpoint journal (see :class:`DistributedDegraded`).
PARTIAL_RESULTS_NAME = "partial-results.json"


class DistributedInterrupted(RuntimeError):
    """Raised by the forced-interrupt fault hook; every chunk folded so
    far is already journalled, so a ``--resume`` run picks up from the
    checkpoint."""


class DistributedDegraded(RuntimeError):
    """The run could not finish — poison chunk, total fleet loss — but
    everything already folded was preserved: the run that owns the
    checkpoint journal calls :meth:`preserve`, which writes a
    partial-results report next to it, so a later ``--resume`` finishes
    the run instead of restarting it.  Surfaced by the CLI as exit code
    4 (vs 3 for a plain interrupt)."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        #: The session's side of the partial-results report.
        self.report = report
        self.report_path: Path | None = None

    def preserve(self, journal: Any | None) -> None:
        """Publish the partial-results report next to ``journal`` (the
        run's checkpoint journal, or ``None``) and say in the message
        where it went."""
        if journal is None:
            note = (
                "; no checkpoint journal was configured, so completed "
                "chunks were not preserved (use --checkpoint-dir)"
            )
        else:
            self.report_path = journal.path.parent / PARTIAL_RESULTS_NAME
            atomic_write_json(
                self.report_path,
                {
                    "version": 1,
                    "key": journal.key,
                    **self.report,
                    "groups": journal.folded(),
                    "resumable": True,
                },
            )
            note = (
                f"; partial results + checkpoint saved under "
                f"{self.report_path.parent} — re-run with --resume to finish"
            )
        self.args = (self.args[0] + note,)


class _WorkerServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    session: "DistributedSession"

    def handle_error(self, request, client_address) -> None:
        # A connection dropping mid-message is a normal fault-tolerance
        # event (a worker died); the handler's ``finally`` has already
        # re-queued its leases — no stack trace needed.
        pass


class _WorkerHandler(socketserver.StreamRequestHandler):
    """One connected worker: a strict request→reply message loop."""

    def handle(self) -> None:
        session: DistributedSession = self.server.session
        address = f"{self.client_address[0]}:{self.client_address[1]}"
        try:
            hello = recv_message(self.rfile)
        except (ValueError, UnicodeDecodeError) as exc:
            session._protocol_error(address, exc)
            return
        if not hello or hello.get("op") != "hello":
            return
        if hello.get("version") != PROTOCOL_VERSION:
            send_message(
                self.wfile,
                {
                    "op": "error",
                    "message": f"protocol version {hello.get('version')} != "
                    f"{PROTOCOL_VERSION}",
                },
            )
            return
        # Lease keys stay unique per connection (the address part);
        # the self-reported name makes fleet logs readable.
        worker = f"{hello.get('worker', 'worker')}@{address}"
        send_message(self.wfile, {"op": "welcome", "version": PROTOCOL_VERSION})
        session._worker_joined(worker, rejoin=bool(hello.get("rejoin")))
        try:
            while True:
                try:
                    message = recv_message(self.rfile)
                    if message is None:
                        return  # worker went away; leases re-queue below
                    reply = session._handle_message(worker, message)
                except (ValueError, KeyError, TypeError) as exc:
                    # A torn or garbage frame from one worker is that
                    # worker's problem, not the run's: log it, drop the
                    # connection, and let the lease queue steal back
                    # whatever it held (the ``finally`` below).
                    session._protocol_error(worker, exc)
                    return
                if reply is None:
                    # Results and failures are one-way in the pipelined
                    # protocol: the worker's next lease request is
                    # already in this socket's buffer, so an ack would
                    # only desynchronise the stream.
                    continue
                send_message(self.wfile, reply)
                if reply["op"] == "shutdown":
                    return
        finally:
            session._worker_gone(worker)


class DistributedSession:
    """Coordinator lifecycle + the batch dispatch API (context manager).

    ``local_workers=N`` spawns N loopback worker subprocesses against
    the session's own ephemeral port — the full distributed path on one
    host, which is what tests, CI, and ``--distribute local:N`` use.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        local_workers: int = 0,
        backend: str | None = None,
        lease_timeout: float = 60.0,
        heartbeat: Heartbeat | None = None,
        interrupt_after: int | None = None,
        poll_interval: float = 0.02,
        chaos: "str | None" = None,
    ):
        self.host = host
        self.requested_port = port
        self.local_workers = local_workers
        self.backend = backend
        self.lease_timeout = lease_timeout
        self.heartbeat = heartbeat
        if interrupt_after is None and os.environ.get(INTERRUPT_ENV):
            interrupt_after = int(os.environ[INTERRUPT_ENV])
        self.interrupt_after = interrupt_after
        self.poll_interval = poll_interval
        # Parse eagerly so a bad spec fails at construction.  Workers
        # get their own plans, scoped by name; the coordinator-scoped
        # plan tears the journal of whatever run this session serves.
        self.chaos_spec = resolve_chaos(chaos)
        self.journal_chaos = (
            FaultPlan(self.chaos_spec, "coordinator")
            if self.chaos_spec is not None
            else None
        )

        self._lock = threading.Lock()
        self._queue = ChunkQueue(lease_timeout=lease_timeout)
        self._batch_event = threading.Event()
        self._batch: dict[str, Any] | None = None
        self._attempt_errors: dict[int, list[str]] = {}
        self._error: str | None = None
        self._fold_error: BaseException | None = None
        self._interrupted = False
        self._folds = 0
        self._group_trials: dict[Any, int] = {}
        self._workers: set[str] = set()
        self._closed = False
        self._server: _WorkerServer | None = None
        self._server_thread: threading.Thread | None = None
        self.worker_processes: list = []
        self.rejoins = 0
        self.protocol_errors = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("session is not open")
        return self._server.server_address[1]

    @property
    def workers_connected(self) -> int:
        with self._lock:
            return len(self._workers)

    def open(self) -> "DistributedSession":
        if self._server is not None:
            raise RuntimeError("session already open")
        self._server = _WorkerServer(
            (self.host, self.requested_port), _WorkerHandler
        )
        self._server.session = self
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="repro-coordinator",
        )
        self._server_thread.start()
        if self.local_workers:
            from repro.distribute.local import spawn_local_workers

            self.worker_processes = spawn_local_workers(
                self.host,
                self.port,
                self.local_workers,
                backend=self.backend,
                chaos=(
                    spec_string(self.chaos_spec)
                    if self.chaos_spec is not None
                    else None
                ),
            )
        return self

    def close(self) -> None:
        with self._lock:
            self._closed = True
        for process in self.worker_processes:
            process.join(timeout=5.0)
        for process in self.worker_processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def __enter__(self) -> "DistributedSession":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the batch API (the campaign round loop's dispatch) -------------

    def run_tasks(
        self,
        tasks: Iterable[Any],
        on_result: Callable[[Any, MsedTally], None],
    ) -> None:
        """Run one batch of chunk tasks to completion; the round barrier.

        ``on_result(task, tally)`` fires once per task, on its first
        completion, under the session lock — so it never runs
        concurrently with itself — exactly like
        :func:`repro.orchestrate.pool.map_unordered`'s ``on_result``.
        An exception it raises aborts the batch and re-raises here.
        """
        task_list = list(tasks)
        with self._lock:
            if self._server is None or self._closed:
                raise RuntimeError("session is not open")
            per_group: dict[Any, list[int]] = {}  # group -> [done, total]
            for task in task_list:
                per_group.setdefault(task.group, [0, 0])[1] += 1
                self._queue.add_task(task)
            self._batch = {
                "per_group": per_group,
                "total": len(task_list),
                "done": 0,
                "on_result": on_result,
            }
            self._batch_event.clear()
            self._fold_error = None
            finished = not task_list
        try:
            while not finished:
                self._batch_event.wait(timeout=0.1)
                with self._lock:
                    self._check_interrupt_locked()
                    if self._fold_error is not None:
                        error, self._fold_error = self._fold_error, None
                        raise error
                    if self._error is not None:
                        message, self._error = self._error, None
                        raise self._degrade_locked(
                            f"distributed run failed: {message}"
                        )
                    stolen = self._queue.reap_expired(time.monotonic())
                    if stolen:
                        telemetry.counter("lease.expired", stolen)
                        telemetry.event("lease.expired", requeued=stolen)
                        if self.heartbeat is not None:
                            log_line(
                                f"[progress] re-queued {stolen} expired "
                                f"lease(s)",
                                stream=self.heartbeat.stream,
                            )
                    if (
                        self.worker_processes
                        and not self._workers
                        and not any(
                            worker.is_alive()
                            for worker in self.worker_processes
                        )
                    ):
                        # A local fleet cannot grow back: with every spawned
                        # worker dead and none connected, waiting is forever.
                        # (A listen-mode session keeps waiting — external
                        # workers may join at any time.)
                        raise self._degrade_locked(
                            "all local workers exited with work outstanding; "
                            "see their stderr for the underlying failure"
                        )
                    finished = self._batch["done"] >= self._batch["total"]
        finally:
            with self._lock:
                self._batch = None

    # -- message handling (worker threads) ------------------------------

    def _handle_message(self, worker: str, message: dict) -> dict | None:
        op = message.get("op")
        if op == "next":
            return self._next_task(worker)
        if op == "result":
            self._take_result(
                message["id"],
                from_wire(message["tally"]),
                worker=worker,
                seconds=message.get("seconds"),
            )
            return None  # one-way: the worker never waits on an ack
        if op == "failed":
            self._take_failure(message["id"], message.get("error", "unknown"))
            return None
        if op == "telemetry":
            # One-way counter deltas a worker ships while idle; folded
            # into the coordinator's registry under its name so fleet
            # totals survive the worker process.
            counters = message.get("counters")
            if isinstance(counters, dict):
                telemetry.merge_worker_counters(counters, worker=worker)
                # Mirror the deltas into the event log too: chaos firings
                # happen inside worker processes (no session there), so
                # without this the post-hoc report could not reconstruct
                # fault counts from ``events.jsonl`` alone.
                telemetry.event(
                    "telemetry.worker", worker=worker, counters=counters
                )
            return None
        return {"op": "error", "message": f"unknown op {op!r}"}

    def _next_task(self, worker: str) -> dict:
        with self._lock:
            if self._closed:
                return {"op": "shutdown"}
            now = time.monotonic()
            stolen = self._queue.reap_expired(now)
            if stolen:
                telemetry.counter("lease.expired", stolen)
                telemetry.event("lease.expired", requeued=stolen)
            claim = self._queue.claim(worker, now)
            if claim is None:
                return {"op": "idle", "delay": self.poll_interval}
            task_id, task = claim
            return {"op": "task", "id": task_id, "task": to_wire(task)}

    def _take_result(
        self,
        task_id: int,
        tally: MsedTally,
        worker: str | None = None,
        seconds: float | None = None,
    ) -> None:
        with self._lock:
            if not self._queue.complete(task_id):
                telemetry.counter("chunks.duplicate")
                return  # duplicate from a stolen lease: fold exactly once
            self._fold_locked(
                self._queue.tasks[task_id], tally, worker=worker,
                seconds=seconds,
            )

    def _take_failure(self, task_id: int, error: str) -> None:
        with self._lock:
            if task_id in self._queue.completed:
                return
            errors = self._attempt_errors.setdefault(task_id, [])
            errors.append(error)
            self._queue.requeue(task_id)
            telemetry.counter("chunks.failed")
            telemetry.event(
                "chunk.failed",
                task=task_id,
                attempts=len(errors),
                error=errors[-1],
                requeued=1,
            )
            if len(errors) >= MAX_TASK_ATTEMPTS:
                # A poison chunk: it failed on MAX_TASK_ATTEMPTS
                # distinct leases, so retrying elsewhere won't help.
                # Surface *every* attempt's error — they may differ,
                # and the first one is often the honest one.
                detail = "; ".join(
                    f"attempt {index}: {message}"
                    for index, message in enumerate(errors, start=1)
                )
                self._error = (
                    f"task {task_id} failed on {len(errors)} attempts "
                    f"[{detail}]"
                )
                self._batch_event.set()

    def _worker_joined(self, worker: str, rejoin: bool = False) -> None:
        with self._lock:
            self._workers.add(worker)
            telemetry.counter("worker.rejoins" if rejoin else "worker.joins")
            telemetry.gauge("workers.connected", len(self._workers))
            telemetry.event(
                "worker.rejoin" if rejoin else "worker.join", worker=worker
            )
            if rejoin:
                self.rejoins += 1
                if self.heartbeat is not None:
                    log_line(
                        f"[progress] worker {worker} rejoined "
                        f"(rejoin #{self.rejoins})",
                        stream=self.heartbeat.stream,
                    )

    def _worker_gone(self, worker: str) -> None:
        with self._lock:
            self._workers.discard(worker)
            stolen = self._queue.release_worker(worker)
            telemetry.gauge("workers.connected", len(self._workers))
            telemetry.event("worker.leave", worker=worker, requeued=stolen)
            if stolen:
                telemetry.counter("leases.stolen", stolen)
                if self.heartbeat is not None:
                    log_line(
                        f"[progress] worker {worker} left; re-queued {stolen} "
                        f"lease(s)",
                        stream=self.heartbeat.stream,
                    )

    def _protocol_error(self, worker: str, exc: Exception) -> None:
        """A torn/garbage frame: count it, log it, and let the caller
        drop only that worker's connection (its leases re-queue)."""
        with self._lock:
            self.protocol_errors += 1
            telemetry.counter("protocol.errors")
            telemetry.event("protocol.error", worker=worker, error=repr(exc))
            stream = (
                self.heartbeat.stream
                if self.heartbeat is not None
                else sys.stderr
            )
            log_line(
                f"[protocol] dropping worker {worker} after unparseable "
                f"frame: {exc!r}",
                stream=stream,
            )

    # -- fold (lock held) ------------------------------------------------

    def _fold_locked(
        self,
        task: Any,
        tally: MsedTally,
        worker: str | None = None,
        seconds: float | None = None,
    ) -> None:
        batch = self._batch
        if batch is None or self._fold_error is not None:
            return  # late result after the batch ended or failed
        try:
            batch["on_result"](task, tally)
        except BaseException as exc:
            # Surface it in the thread that called run_tasks, not in
            # this worker's handler thread.
            self._fold_error = exc
            self._batch_event.set()
            return
        self._folds += 1
        telemetry.counter("chunks.computed", group=str(task.group))
        telemetry.record_spec(task.group, spec_fingerprint(task.spec))
        if seconds is not None:
            # The worker timed its own decode; surface it as the same
            # ``decode_chunk`` span the in-process path emits so the
            # report's slowest-points table covers both.
            telemetry.histogram(
                "span.decode_chunk",
                seconds,
                point=str(task.group),
                worker=worker or "?",
            )
            telemetry.event(
                "span",
                name="decode_chunk",
                seconds=round(seconds, 6),
                attrs={
                    "point": str(task.group),
                    "worker": worker or "?",
                    "trials": tally.trials,
                },
            )
        batch["done"] += 1
        stats = batch["per_group"][task.group]
        stats[0] += 1
        self._group_trials[task.group] = (
            self._group_trials.get(task.group, 0) + tally.trials
        )
        if self.heartbeat is not None:
            self.heartbeat.tick(
                task.group,
                stats[0],
                stats[1],
                self._group_trials[task.group],
                batch["done"],
                batch["total"],
            )
        if batch["done"] >= batch["total"]:
            self._batch_event.set()
        if (
            self.interrupt_after is not None
            and self._folds >= self.interrupt_after
        ):
            self._batch_event.set()

    def _degrade_locked(self, message: str) -> DistributedDegraded:
        """Build the graceful-degradation exit (lock held) for the
        caller to raise.  Everything folded so far is already in the
        run's journal; :meth:`DistributedDegraded.preserve` publishes
        the partial results next to it, and ``--resume`` finishes the
        run later."""
        telemetry.event(
            "run.degraded",
            reason=message,
            requeues=self._queue.requeues,
            rejoins=self.rejoins,
            protocol_errors=self.protocol_errors,
        )
        batch = self._batch or {}
        return DistributedDegraded(
            message,
            report={
                "reason": message,
                "batch": {
                    "done": batch.get("done", 0),
                    "total": batch.get("total", 0),
                },
                "requeues": self._queue.requeues,
                "rejoins": self.rejoins,
                "protocol_errors": self.protocol_errors,
            },
        )

    def _check_interrupt_locked(self) -> None:
        if (
            self.interrupt_after is not None
            and not self._interrupted
            and self._folds >= self.interrupt_after
        ):
            self._interrupted = True
            raise DistributedInterrupted(
                f"forced interrupt after {self._folds} folded chunks"
            )
