"""The shard runner: fan chunk tasks over a process pool, fold tallies.

:func:`map_unordered` is the one serial-or-pool fan-out: it runs a
function over tasks — in process for ``jobs <= 1``, across a
:class:`ProcessPoolExecutor` otherwise — and hands each result back to
the parent as it completes.  :class:`LocalExecutor` wraps it in the
executor contract a distributed session also implements,
``run_tasks(tasks, on_result)``, so the campaign round loop
(:class:`~repro.reliability.sampling.scheduler.CampaignRunner`, which
every Table IV-style run goes through) dispatches its chunks one way
and folds, journals, caches and reports each chunk as it lands.
``run_sharded(tasks, jobs)`` is the plain fold on top of
:func:`map_unordered`: it executes every :class:`ChunkTask` and folds
each task's tally into its group via ``merge``.

Because every tally merge is plain integer addition (associative and
commutative) and every chunk's content is a pure function of
``(spec, chunk, key)``, the folded result is byte-identical whichever
path ran and in whatever order futures completed: ``jobs=8`` equals
``jobs=1`` equals any other split.

Memory stays flat in the total trial count: only per-chunk arrays and
per-group counter objects are ever alive, never a ``(trials, ...)``
materialisation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.orchestrate.worker import ChunkTask, run_chunk_task

ProgressCallback = Callable[[int, int], None]


def _fold(results: dict, group: Any, tally: Any) -> None:
    held = results.get(group)
    if held is None:
        results[group] = tally
    else:
        held.merge(tally)


def map_unordered(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    jobs: int = 1,
    progress: ProgressCallback | None = None,
    on_result: Callable[[Any, Any], None] | None = None,
) -> None:
    """The one serial-or-pool fan-out skeleton every sweep shares.

    Runs ``fn`` over every task — in process for ``jobs <= 1``, across
    a :class:`ProcessPoolExecutor` otherwise (``fn`` and the tasks must
    then be picklable).  ``on_result(task, result)`` and
    ``progress(done, total)`` both fire on the parent as each task
    completes, in completion order; callers needing a deterministic
    result order fold commutatively or reorder afterwards.  The task
    handed back is the parent's own object, never a pickled copy.
    """
    task_list: Sequence[Any] = list(tasks)
    total = len(task_list)
    if jobs <= 1 or total <= 1:
        for done, task in enumerate(task_list, start=1):
            result = fn(task)
            if on_result is not None:
                on_result(task, result)
            if progress is not None:
                progress(done, total)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, total)) as executor:
        futures = {executor.submit(fn, task): task for task in task_list}
        try:
            for done, future in enumerate(as_completed(futures), start=1):
                result = future.result()
                if on_result is not None:
                    on_result(futures[future], result)
                if progress is not None:
                    progress(done, total)
        except BaseException:
            # Surface the failure now: without cancel_futures every
            # queued task would still run before __exit__ returned.
            executor.shutdown(wait=False, cancel_futures=True)
            raise


@dataclass(frozen=True)
class LocalExecutor:
    """Chunk dispatch on this host: in process for ``jobs <= 1``,
    across a process pool otherwise.

    ``run_tasks(tasks, on_result)`` calls ``on_result(task, tally)``
    once per task, in completion order, on the calling thread — the
    contract :class:`repro.distribute.DistributedSession` implements
    for remote workers.
    """

    jobs: int = 1

    def run_tasks(
        self, tasks: Iterable[ChunkTask], on_result: Callable[[Any, Any], None]
    ) -> None:
        map_unordered(
            run_chunk_task,
            tasks,
            self.jobs,
            on_result=lambda task, pair: on_result(task, pair[1]),
        )


def run_sharded(
    tasks: Iterable[ChunkTask],
    jobs: int = 1,
    progress: ProgressCallback | None = None,
) -> dict[Any, Any]:
    """Run every chunk task and return ``{group: folded tally}``.

    Folding is plain integer addition, so the result is independent of
    completion order and of ``jobs``.
    """
    results: dict[Any, Any] = {}
    map_unordered(
        run_chunk_task,
        tasks,
        jobs,
        progress,
        lambda _task, pair: _fold(results, *pair),
    )
    return results
