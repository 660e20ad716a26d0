"""Fleet-wide campaign scheduling: the one Monte-Carlo round loop.

Every design-point sweep runs through :class:`CampaignRunner`.  Each
round it looks at the folded tallies of **all** points and spends the
next batch of trials where they shrink confidence intervals fastest,
instead of finishing points one at a time on their own look schedules
(which makes a sweep's cost the *sum* of per-point overshoots).  A
fixed-trial run is the degenerate campaign: under
``AdaptivePolicy(ci_target=0, ci_abs=0, initial_trials=T,
max_trials=T)`` the first round grants every point its ``T`` trials in
index order and nothing is left for a second.

How a round is allocated:

* the *priority* of a point is ``half_width / goal_half_width`` — how
  far its current interval is from the stopping rule of the base
  :class:`AdaptivePolicy` (largest first, bandit-style);
* the *allocation* for a point is the projected number of trials that
  closes the gap (binomial half-widths shrink like ``1/sqrt(n)``, so
  ``n_goal ≈ n · (half/goal)² · safety``), capped per round at a
  doubling so noisy early projections are re-examined at the next
  barrier;
* a per-campaign ``trial_budget`` is drained greedily in priority
  order, so a fixed fleet spends a fixed budget where it buys the most
  certainty;
* a point whose plain stream has seen zero events after
  ``escalate_after`` trials is *escalated*: the campaign stops feeding
  it plain trials and hands it to the importance-splitting estimator
  (:mod:`~repro.reliability.sampling.splitting`), which bounds the
  tail without needing events in the plain stream.

Within a round, every chunk is first looked up in the run's
checkpoint journal, then in the result cache (a cache hit is journalled
too); hits fold in place and every miss is one chunk task.  One
executor runs the tasks as the round barrier — a distributed session,
or :class:`~repro.orchestrate.pool.LocalExecutor` in process
(``jobs <= 1``) or across a process pool — and hands each chunk's tally
to the runner's one fold, which merges it, journals it, caches it and
reports progress.  Both stores flush at every round barrier and when
the run ends, however it ends, so an interrupted run resumes from its
journal whichever executor ran it.

Determinism contract (same as every other runner in this repo): the
allocation is a **pure function of the folded tallies** — never of
wall-clock, worker count, or chunk arrival order.  Trials are
allocated in trial units and chunked with
:func:`~repro.orchestrate.plan.plan_chunk_range` *after* allocation,
so ``trials_used`` and every tally are byte-identical across
``(chunk_size, jobs, workers)`` and backends at a fixed seed.

This module deliberately imports nothing from ``repro.distribute``:
the optional checkpoint journal, result cache and progress heartbeat
are duck-typed (``lookup``/``record``/``flush`` and ``allocation``) so
the scheduler stays importable from the bottom of the package graph.
(:mod:`repro.telemetry` sits below ``repro.distribute`` in that graph
— it only imports ``repro.orchestrate.persist`` — so the campaign
events emitted here keep that property.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Sequence

from repro import telemetry
from repro.orchestrate.plan import plan_chunk_range
from repro.orchestrate.pool import LocalExecutor
from repro.orchestrate.rng import derive_key
from repro.orchestrate.worker import ChunkTask, group_labels, spec_fingerprint
from repro.reliability.metrics import MsedResult, MsedTally
from repro.reliability.sampling.intervals import Interval
from repro.reliability.sampling.sequential import AdaptivePolicy

__all__ = [
    "Allocation",
    "CampaignOutcome",
    "CampaignPolicy",
    "CampaignRunner",
    "CampaignScheduler",
    "PointView",
]


@dataclass(frozen=True)
class CampaignPolicy:
    """How a campaign spends trials across a whole sweep.

    Wraps the per-point stopping rule (``base``) with fleet-level
    knobs: a campaign-wide trial budget, zero-event escalation to
    importance splitting, and the safety factor applied to the
    1/sqrt(n) half-width projection.
    """

    base: AdaptivePolicy = field(default_factory=AdaptivePolicy)
    trial_budget: int | None = None
    escalate_after: int | None = None
    escalation_trials: int = 20_000
    safety: float = 1.15

    def __post_init__(self) -> None:
        if self.trial_budget is not None and self.trial_budget < 1:
            raise ValueError("trial_budget must be at least 1")
        if self.escalate_after is not None and self.escalate_after < 1:
            raise ValueError("escalate_after must be at least 1")
        if self.escalation_trials < 1:
            raise ValueError("escalation_trials must be at least 1")
        if self.safety < 1.0:
            raise ValueError("safety must be at least 1.0")


@dataclass(frozen=True)
class PointView:
    """Everything the scheduler may see of one design point.

    A deliberately thin snapshot — folded trial count, frozen result,
    and whether the point still wants trials — so the allocator is
    trivially a pure function of fold state.
    """

    trials: int
    result: MsedResult | None
    active: bool = True


@dataclass(frozen=True)
class Allocation:
    """One point's share of a round: ``trials`` more for ``index``."""

    index: int
    trials: int
    priority: float
    half_width: float


@dataclass(frozen=True)
class CampaignScheduler:
    """Pure allocator: folded tallies in, next round's trials out."""

    policy: CampaignPolicy

    def goal_half_width(self, result: MsedResult) -> float:
        """The half-width at which ``base.satisfied`` would stop.

        Mirrors :meth:`AdaptivePolicy.satisfied`: the absolute
        tolerance if set, or the relative tolerance scaled by the
        observed rate.  A zero-event cell has no rate to be relative
        to, so aim at ``ci_target·hi`` — the optimistic upper bound —
        which keeps the projection growing until events appear (or
        escalation takes the point away).
        """
        base = self.policy.base
        goals = []
        if base.ci_abs > 0:
            goals.append(base.ci_abs)
        if base.ci_target > 0:
            rate = result.rate(base.metric)
            if rate > 0:
                goals.append(base.ci_target * rate)
            else:
                goals.append(base.ci_target * base.interval_of(result).hi)
        return max(goals, default=0.0)

    def priority(self, view: PointView) -> float:
        """How far ``view`` is from stopping (larger = more urgent)."""
        if view.trials == 0 or view.result is None or view.result.trials == 0:
            return math.inf
        goal = self.goal_half_width(view.result)
        if goal <= 0:
            return math.inf
        return self.policy.base.interval_of(view.result).half_width / goal

    def desired_total(self, view: PointView) -> int:
        """Projected total trials that would satisfy the base policy."""
        base = self.policy.base
        if view.trials == 0 or view.result is None or view.result.trials == 0:
            return min(base.initial_trials, base.max_trials)
        goal = self.goal_half_width(view.result)
        if goal <= 0:
            return base.max_trials
        half = base.interval_of(view.result).half_width
        if half <= goal:
            return view.trials
        projected = math.ceil(view.trials * (half / goal) ** 2 * self.policy.safety)
        return max(view.trials + 1, min(base.max_trials, projected))

    def allocate(
        self, views: Sequence[PointView], budget_left: int | None = None
    ) -> list[Allocation]:
        """Split the next round's trials across ``views``.

        Returns allocations sorted by ``(-priority, index)``; the
        budget is drained greedily in that order and the last grant is
        truncated to fit.  Empty when every point is done or the
        budget is exhausted.
        """
        base = self.policy.base
        requests: list[Allocation] = []
        for index, view in enumerate(views):
            if not view.active or view.trials >= base.max_trials:
                continue
            want = self.desired_total(view) - view.trials
            if want <= 0:
                continue
            # Never more than double a point in one round: projections
            # from a handful of events are noisy, and the next barrier
            # re-projects from the fresher tally anyway.
            want = min(want, max(base.initial_trials, view.trials))
            if view.result is not None and view.result.trials > 0:
                half = base.interval_of(view.result).half_width
            else:
                half = 0.5  # a-priori binomial uncertainty
            requests.append(
                Allocation(
                    index=index,
                    trials=want,
                    priority=self.priority(view),
                    half_width=half,
                )
            )
        requests.sort(key=lambda alloc: (-alloc.priority, alloc.index))
        if budget_left is None:
            return requests
        granted: list[Allocation] = []
        remaining = budget_left
        for alloc in requests:
            if remaining <= 0:
                break
            take = min(alloc.trials, remaining)
            granted.append(replace(alloc, trials=take))
            remaining -= take
        return granted


@dataclass(frozen=True)
class CampaignOutcome:
    """What the campaign decided for one design point.

    Carries the per-point story every report renderer reads
    (``result``, ``converged``, ``rounds``, the stopping ``policy``,
    ``trials_used``, ``interval()``, ``describe()``) and the
    campaign-level story: the governing :class:`CampaignPolicy`,
    whether the point was escalated to importance splitting (and the
    resulting ``tail_bound``), and how many of its trials were served
    from a result cache instead of being re-simulated.
    """

    result: MsedResult
    converged: bool
    rounds: int
    policy: AdaptivePolicy
    campaign: CampaignPolicy
    escalated: bool = False
    tail_bound: Any | None = None
    trials_cached: int = 0
    #: How the zero-event tail was handled when ``escalated``:
    #: "importance splitting" where the estimator supports the
    #: scenario and ``k_symbols >= 2``, "Clopper-Pearson tail bound"
    #: otherwise.
    escalation: str = "importance splitting"

    @property
    def trials_used(self) -> int:
        return self.result.trials

    def interval(self) -> Interval:
        return self.policy.interval_of(self.result)

    def describe(self) -> str:
        if self.escalated:
            reason = f"escalated to {self.escalation}"
        elif self.converged:
            reason = "converged"
        elif self.result.trials >= self.policy.max_trials:
            reason = "hit trial ceiling"
        else:
            reason = "budget exhausted"
        cached = (
            f", {self.trials_cached} cached" if self.trials_cached else ""
        )
        return (
            f"{reason} after {self.result.trials} trials"
            f" ({self.rounds} rounds{cached})"
        )


def _splitting_estimator(simulator: Any) -> Any | None:
    """Build the splitting twin of ``simulator``, or None if it has none.

    The twin shares the simulator's code, ``k_symbols``, decode policy,
    backend and ``code_ref`` field for field.  Imported lazily:
    campaigns that never escalate need not load the splitting
    machinery.  Returns None where splitting cannot bound the tail —
    fault scenarios whose stream is not the plain msed prefix stream it
    branches over, and ``k_symbols < 2``, which leaves no prefix to
    split — so the campaign reports a Clopper-Pearson bound for those
    points instead.
    """
    from repro.scenarios import resolve_scenario

    if simulator.k_symbols < 2:
        return None
    if not resolve_scenario(simulator.scenario).supports_splitting:
        return None

    from repro.orchestrate.family import family_of
    from repro.reliability.sampling.splitting import (
        MuseSplittingEstimator,
        RsSplittingEstimator,
    )

    twin = {"muse": MuseSplittingEstimator, "rs": RsSplittingEstimator}[
        family_of(simulator.code).name
    ]
    return twin(**{f.name: getattr(simulator, f.name) for f in fields(twin)})


@dataclass
class CampaignRunner:
    """Run a whole sweep under one :class:`CampaignPolicy`.

    ``journal`` is any object with ``lookup(group, chunk, fingerprint)
    -> MsedTally | None``, ``record(group, chunk, tally, fingerprint)``
    and ``flush()`` (the distribute layer's ``CheckpointJournal``);
    ``cache`` is any object with ``lookup(key, spec, chunk) -> MsedTally
    | None``, ``record(key, spec, chunk, tally)`` and ``flush()`` (its
    ``ResultCache``); ``heartbeat`` is any object with
    ``allocation(round_no, entries)`` (its ``Heartbeat``).  All are
    optional and duck-typed so this module never imports
    ``repro.distribute``.
    """

    policy: CampaignPolicy = field(default_factory=CampaignPolicy)
    cache: Any | None = None
    heartbeat: Any | None = None
    journal: Any | None = None

    def run(
        self,
        simulators: Sequence[Any],
        seed: int,
        jobs: int = 1,
        chunk_size: int | None = None,
        progress: Callable[[int, int], None] | None = None,
        executor: Any | None = None,
        group_ns: str | None = None,
    ) -> list[CampaignOutcome]:
        base = self.policy.base
        scheduler = CampaignScheduler(self.policy)
        key = derive_key(seed)
        count = len(simulators)
        groups = group_labels(count, group_ns)
        tallies = [MsedTally() for _ in range(count)]
        trials = [0] * count
        rounds = [0] * count
        converged = [False] * count
        escalated = [False] * count
        cached_trials = [0] * count
        budget_left = self.policy.trial_budget
        journal, cache = self.journal, self.cache
        # Chunks that leave this process (pool or distributed) carry
        # picklable specs; in-process chunks carry the live simulator.
        # Both stores key their entries by spec fingerprint.
        remote = jobs > 1 or executor is not None
        specs = (
            [sim._task_spec() for sim in simulators]
            if remote or journal is not None or cache is not None
            else None
        )
        if journal is not None:
            fingerprints = [spec_fingerprint(spec) for spec in specs]
        runners = specs if remote else list(simulators)
        index_of = {group: i for i, group in enumerate(groups)}
        if executor is None:
            executor = LocalExecutor(jobs)

        done = total = 0  # chunks executed (and to execute) so far

        def fold(task: ChunkTask, tally: MsedTally) -> None:
            """Every executed chunk's tally lands here exactly once."""
            nonlocal done
            i = index_of[task.group]
            tallies[i].merge(tally)
            if journal is not None:
                journal.record(task.group, task.chunk, tally, fingerprints[i])
            if cache is not None:
                cache.record(key, specs[i], task.chunk, tally)
            done += 1
            if progress is not None:
                progress(done, total)

        round_no = 0
        while True:
            views = [
                PointView(
                    trials=trials[i],
                    result=tallies[i].freeze() if trials[i] else None,
                    active=not (converged[i] or escalated[i]),
                )
                for i in range(count)
            ]
            allocations = scheduler.allocate(views, budget_left)
            if not allocations:
                break
            round_no += 1
            telemetry.counter("campaign.rounds")
            telemetry.event(
                "campaign.round",
                round=round_no,
                budget_left=budget_left,
                allocations=[
                    {
                        "point": str(groups[alloc.index]),
                        "trials": alloc.trials,
                        "total": trials[alloc.index] + alloc.trials,
                        "half_width": alloc.half_width,
                        "priority": (
                            alloc.priority
                            if math.isfinite(alloc.priority)
                            else None
                        ),
                    }
                    for alloc in allocations
                ],
            )
            if self.heartbeat is not None:
                beat = getattr(self.heartbeat, "allocation", None)
                if beat is not None:
                    beat(
                        round_no,
                        [
                            (
                                groups[alloc.index],
                                alloc.trials,
                                trials[alloc.index] + alloc.trials,
                                alloc.half_width,
                                alloc.priority,
                            )
                            for alloc in allocations
                        ],
                    )

            # The journal answers first, then the cache (a cache hit
            # is journalled too, so the run's own record stays
            # complete); hits fold in place, every miss is a task.
            pending: list[ChunkTask] = []
            for alloc in allocations:
                i = alloc.index
                chunks = plan_chunk_range(
                    trials[i], trials[i] + alloc.trials, chunk_size
                )
                for chunk in chunks:
                    held = None
                    if journal is not None:
                        held = journal.lookup(
                            groups[i], chunk, fingerprints[i]
                        )
                    if held is None and cache is not None:
                        held = cache.lookup(key, specs[i], chunk)
                        if held is not None:
                            cached_trials[i] += held.trials
                            if journal is not None:
                                journal.record(
                                    groups[i], chunk, held, fingerprints[i]
                                )
                    if held is None:
                        pending.append(
                            ChunkTask(groups[i], runners[i], chunk, key)
                        )
                    else:
                        tallies[i].merge(held)
                trials[i] += alloc.trials
                rounds[i] += 1
                if budget_left is not None:
                    budget_left -= alloc.trials

            total = done + len(pending)
            executor.run_tasks(pending, fold)

            for alloc in allocations:
                i = alloc.index
                frozen = tallies[i].freeze()
                if base.satisfied(frozen):
                    converged[i] = True
                elif (
                    self.policy.escalate_after is not None
                    and trials[i] >= self.policy.escalate_after
                    and frozen.count(base.metric) == 0
                ):
                    escalated[i] = True
                    telemetry.counter("campaign.escalations")
                    telemetry.event(
                        "campaign.escalated",
                        point=str(groups[i]),
                        round=round_no,
                        trials=trials[i],
                    )

            # The round barrier is a durability point.
            for store in (journal, cache):
                if store is not None:
                    store.flush()

        tail_bounds: list[Any | None] = [None] * count
        escalations = ["importance splitting"] * count
        for i in range(count):
            if not escalated[i]:
                continue
            estimator = _splitting_estimator(simulators[i])
            if estimator is None:
                # No splitting twin: bound the zero-event tail with the
                # exact Clopper-Pearson interval of the plain stream.
                escalations[i] = "Clopper-Pearson tail bound"
                tail_bounds[i] = tallies[i].freeze().interval(
                    kind="clopper-pearson",
                    confidence=base.confidence,
                    metric=base.metric,
                )
                continue
            tail_bounds[i] = estimator.run(
                self.policy.escalation_trials, seed=seed
            )

        return [
            CampaignOutcome(
                result=tallies[i].freeze(),
                converged=converged[i],
                rounds=rounds[i],
                policy=base,
                campaign=self.policy,
                escalated=escalated[i],
                tail_bound=tail_bounds[i],
                trials_cached=cached_trials[i],
                escalation=escalations[i],
            )
            for i in range(count)
        ]
