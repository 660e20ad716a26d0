"""Fleet-wide campaign scheduling for adaptive Monte-Carlo sweeps.

The PR-4 :class:`~repro.reliability.sampling.sequential.AdaptiveRunner`
stops each design point independently: every point follows its own
geometric look schedule, so a sweep's wall-clock is the *sum* of
per-point overshoots and already-converged points keep no context for
their neighbours.  The campaign scheduler closes that loop.  Each
round it looks at the folded tallies of **all** points and spends the
next batch of trials where they shrink confidence intervals fastest:

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

Determinism contract (same as every other runner in this repo): the
allocation is a **pure function of the folded tallies** — never of
wall-clock, worker count, or chunk arrival order.  Trials are
allocated in trial units and chunked with
:func:`~repro.orchestrate.plan.plan_chunk_range` *after* allocation,
so ``trials_used`` and every tally are byte-identical across
``(chunk_size, jobs, workers)`` and backends at a fixed seed.

This module deliberately imports nothing from ``repro.distribute``:
the optional result cache and progress heartbeat are duck-typed
(``lookup``/``record`` and ``allocation`` respectively) so the
scheduler stays importable from the bottom of the package graph.
(:mod:`repro.telemetry` sits below ``repro.distribute`` in that graph
— it only imports ``repro.orchestrate.persist`` — so the campaign
events emitted here keep that property.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro import telemetry
from repro.orchestrate.plan import plan_chunk_range
from repro.orchestrate.pool import map_unordered, run_sharded
from repro.orchestrate.rng import derive_key
from repro.orchestrate.worker import ChunkTask, group_labels, run_chunk_task
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

    Duck-types :class:`AdaptiveOutcome` (``result``, ``converged``,
    ``rounds``, ``policy``, ``trials_used``, ``interval()``,
    ``describe()``) so every report renderer keeps working, and adds
    the campaign-level story: the governing :class:`CampaignPolicy`,
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
    #: scenario, "Clopper-Pearson tail bound" otherwise.
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


def _execute_chunk_task(task: ChunkTask) -> tuple[ChunkTask, MsedTally]:
    """Picklable shard body returning the task alongside its tally.

    The campaign needs per-chunk tallies back (to record them into the
    result cache), so it cannot use :func:`run_sharded`'s per-group
    fold for the process-pool path.
    """
    _, tally = run_chunk_task(task)
    return task, tally


def _splitting_estimator(simulator: Any) -> Any | None:
    """Build the splitting twin of ``simulator``, or None if unknown.

    Imported lazily: campaigns that never escalate need not load the
    splitting machinery.  Returns None for fault scenarios the splitting
    estimator does not support — the prefix stream it branches over is
    the plain msed one — so the campaign reports a Clopper-Pearson
    bound for those points instead.
    """
    from repro.scenarios import resolve_scenario

    name = getattr(simulator, "scenario", "msed")
    if not resolve_scenario(name).supports_splitting:
        return None

    from repro.reliability.sampling.splitting import (
        MuseSplittingEstimator,
        RsSplittingEstimator,
    )

    if hasattr(simulator, "ripple_check"):
        return MuseSplittingEstimator(
            simulator.code,
            k_symbols=simulator.k_symbols,
            ripple_check=simulator.ripple_check,
            backend=simulator.backend,
            code_ref=simulator.code_ref,
        )
    if hasattr(simulator, "device_bits"):
        return RsSplittingEstimator(
            simulator.code,
            k_symbols=simulator.k_symbols,
            device_bits=simulator.device_bits if simulator.device_bits else 4,
            backend=simulator.backend,
            code_ref=simulator.code_ref,
        )
    return None


@dataclass
class CampaignRunner:
    """Run a whole sweep under one :class:`CampaignPolicy`.

    ``cache`` is any object with ``lookup(key, spec, chunk) ->
    MsedTally | None`` and ``record(key, spec, chunk, tally)`` (the
    distribute layer's ``ResultCache``); ``heartbeat`` is any object
    with ``allocation(round_no, entries)`` (the distribute layer's
    ``Heartbeat``).  Both are optional and duck-typed so this module
    never imports ``repro.distribute``.
    """

    policy: CampaignPolicy = field(default_factory=CampaignPolicy)
    cache: Any | None = None
    heartbeat: Any | None = None

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

        # Specs are needed whenever chunks leave this process (sharded
        # or distributed) and whenever the cache needs fingerprints.
        sharded = jobs > 1 or executor is not None
        specs = (
            [sim._task_spec() for sim in simulators]
            if sharded or self.cache is not None
            else None
        )

        done_chunks = 0
        scheduled_chunks = 0
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

            pending: list[tuple[int, ChunkTask]] = []
            for alloc in allocations:
                i = alloc.index
                chunks = plan_chunk_range(
                    trials[i], trials[i] + alloc.trials, chunk_size
                )
                for chunk in chunks:
                    spec = specs[i] if specs is not None else None
                    held = (
                        self.cache.lookup(key, spec, chunk)
                        if self.cache is not None
                        else None
                    )
                    if held is not None:
                        tallies[i].merge(held)
                        cached_trials[i] += held.trials
                    elif spec is not None:
                        pending.append((i, ChunkTask(groups[i], spec, chunk, key)))
                    else:
                        with telemetry.span(
                            "decode_chunk", point=str(groups[i])
                        ):
                            tallies[i].merge(
                                simulators[i].run_chunk(chunk, key)
                            )
                        done_chunks += 1
                trials[i] += alloc.trials
                rounds[i] += 1
                if budget_left is not None:
                    budget_left -= alloc.trials

            if pending:
                scheduled_chunks = done_chunks + len(pending)
                base_done = done_chunks

                def tick(done: int, total: int) -> None:
                    if progress is not None:
                        progress(base_done + done, scheduled_chunks)

                if executor is not None:
                    folded = run_sharded(
                        [task for _, task in pending],
                        jobs,
                        tick if progress is not None else None,
                        executor,
                    )
                    for i in sorted({i for i, _ in pending}):
                        tallies[i].merge(folded.get(groups[i], MsedTally()))
                else:
                    by_group = {task.group: i for i, task in pending}

                    def fold(pair: tuple[ChunkTask, MsedTally]) -> None:
                        task, tally = pair
                        tallies[by_group[task.group]].merge(tally)
                        if self.cache is not None:
                            self.cache.record(
                                task.key, task.spec, task.chunk, tally
                            )

                    map_unordered(
                        _execute_chunk_task,
                        [task for _, task in pending],
                        jobs=jobs,
                        progress=tick if progress is not None else None,
                        on_result=fold,
                    )
                done_chunks += len(pending)
            if progress is not None and scheduled_chunks:
                progress(done_chunks, max(scheduled_chunks, done_chunks))

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

            if self.cache is not None:
                self.cache.flush()

        tail_bounds: list[Any | None] = [None] * count
        escalations = ["importance splitting"] * count
        for i in range(count):
            if not escalated[i]:
                continue
            estimator = _splitting_estimator(simulators[i])
            if estimator is None:
                # No splitting twin (unsupported scenario or family):
                # bound the zero-event tail with the exact
                # Clopper-Pearson interval of the plain stream instead.
                escalations[i] = "Clopper-Pearson tail bound"
                tail_bounds[i] = tallies[i].freeze().interval(
                    kind="clopper-pearson",
                    confidence=base.confidence,
                    metric=base.metric,
                )
                continue
            try:
                tail_bounds[i] = estimator.run(
                    self.policy.escalation_trials, seed=seed
                )
            except Exception:
                # Splitting that cannot run for this point (e.g. a
                # k_symbols outside its prefix range) leaves it its
                # zero-event plain interval.
                tail_bounds[i] = None

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
