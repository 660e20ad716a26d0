"""Monte-Carlo multi-symbol error detection simulator (Table IV).

Methodology (paper Section VII-A): for each design point, sample
``trials`` random k-symbol error patterns (k = 2 by default), corrupt a
random encoded codeword, run the decoder, and classify the outcome.
The multi-symbol error detection (MSED) rate is the detected fraction.

Two decoders participate:

* **MUSE** — the Figure-4 flow: ELC miss and correction-ripple
  (overflow/underflow) both detect; an ELC hit whose correction stays
  symbol-confined is a miscorrection.
* **Reed-Solomon** — bounded-distance PGZ.  By default the decoder also
  enforces *device confinement*: a corrected magnitude must fall inside
  a single x4 device's bit positions, as a commercial x4 ChipKill
  decoder would require (a real single-device failure can never span
  two devices).  Without this policy RS MSED drops by roughly its
  locator-validity factor; the ablation flag lets you measure both.

Both run through one simulator body, :class:`MsedSimulator`: the
public :class:`MuseMsedSimulator` / :class:`RsMsedSimulator` only
declare their fields (each with its decode-policy field), and the
code-family contract (:mod:`repro.orchestrate.family`) supplies the
codeword storage and the decode-policy engine.

Execution is *streamed*: a run is split into fixed-size chunks
(:mod:`repro.orchestrate.plan`) whose corruption streams are counter
hashes of the global trial index, so every chunk's tally is a pure
fold term and memory stays flat however many trials the run totals.
Every run — fixed or adaptive, in process, pooled (``jobs=N``) or
distributed — goes through the one campaign round loop
(:class:`~repro.reliability.sampling.scheduler.CampaignRunner`); a
fixed ``T``-trial run is the one-round campaign of
:func:`fixed_policy`.  So every run can journal its chunks to a
``checkpoint_dir`` and ``resume`` from it, and fold completed cells
from a ``cache_dir`` result cache.  For a fixed master seed the folded
tally is byte-identical for every ``(chunk_size, jobs)`` combination
and across decode backends.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

from repro.core.codec import MuseCode
from repro.core.error_model import SymbolErrorModel
from repro.core.search import MultiplierSearch
from repro.core.symbols import SymbolLayout
from repro.orchestrate.corruption import scenario_chunk
from repro.orchestrate.family import family_of
from repro.orchestrate.plan import Chunk
from repro.orchestrate.pool import ProgressCallback
from repro.orchestrate.rng import derive_key
from repro.orchestrate.worker import CodeRef, MuseSimSpec, RsSimSpec, task_spec
from repro.reliability.metrics import (
    DesignPoint,
    MsedResult,
    MsedTally,
    TableIV,
)
from repro.reliability.sampling.scheduler import (
    CampaignOutcome,
    CampaignPolicy,
    CampaignRunner,
)
from repro.reliability.sampling.sequential import AdaptivePolicy
from repro.rs.chipkill import assess
from repro.rs.reed_solomon import RSCode, rs_for_channel
from repro.scenarios import resolve_scenario


class MsedSimulator:
    """Inject k-symbol errors into a code and classify the outcomes.

    The one simulator body behind :class:`MuseMsedSimulator` and
    :class:`RsMsedSimulator`, which only declare their fields; the code
    family (:func:`repro.orchestrate.family.family_of`) supplies the
    codeword storage and the decode-policy engine.  The counter-hashed
    trial stream depends on neither the backend nor the chunking, so
    the tally of a fixed ``(trials, seed)`` run is byte-identical across
    backends and across every ``(chunk_size, jobs)`` split.
    """

    def run(
        self,
        trials: int = 10_000,
        seed: int = 2022,
        *,
        jobs: int = 1,
        chunk_size: int | None = None,
        progress: ProgressCallback | None = None,
        executor=None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
    ) -> MsedResult:
        """One simulator's run is the single-point case of the shared
        design-point grid runner."""
        return run_design_points(
            [self], trials, seed, jobs, chunk_size, progress, executor,
            checkpoint_dir=checkpoint_dir, resume=resume,
        )[0]

    def run_chunk(self, chunk: Chunk, key: int) -> MsedTally:
        """Classify one chunk of the stream keyed by ``key``.

        The unit of work the shard runner executes; folding the
        returned tallies over a run's chunks reproduces ``run``.

        Engines exposing ``fused_chunk_counts`` (the native backend)
        run the msed corruption draw, decode, and tally in one compiled
        pass — byte-identical counts, no intermediate batch arrays.
        Every other engine, and every non-default scenario (the fused
        kernels compile the msed stream only), decodes the generated
        chunk instead.
        """
        family = family_of(self.code)
        engine = family.engine(
            self.code, self.backend, getattr(self, family.policy)
        )
        fused = getattr(engine, "fused_chunk_counts", None)
        counts = None
        if self.scenario == "msed" and fused is not None:
            counts = fused(chunk, key, self.k_symbols)
        if counts is None:
            words = scenario_chunk(
                resolve_scenario(self.scenario),
                self.code,
                chunk,
                key,
                self.k_symbols,
            )
            counts = engine.decode_batch(words).counts()
        clean, corrected, no_match, confinement = counts
        tally = MsedTally()
        # The delivered word is classified: CLEAN means the corruption
        # aliased to a valid codeword (silent), CORRECTED a
        # symbol-confined miscorrection the decode policy failed to
        # veto.
        tally.record_counts(
            silent=clean,
            miscorrected=corrected,
            detected_no_match=no_match,
            detected_confinement=confinement,
        )
        return tally

    def _task_spec(self) -> "MuseSimSpec | RsSimSpec":
        return task_spec(self, {"muse": MuseSimSpec, "rs": RsSimSpec})


@dataclass
class MuseMsedSimulator(MsedSimulator):
    """The MSED simulator of a MUSE code.

    ``ripple_check`` is the decode policy: correction ripple
    (overflow/underflow) detects.  ``code_ref`` (a
    :class:`~repro.orchestrate.worker.CodeRef` or a ``"module:callable"``
    string) is only needed for ``jobs > 1``, distributed runs and the
    result cache: it lets worker processes rebuild the code instead of
    pickling it, and names the code in cache keys.
    """

    code: MuseCode
    k_symbols: int = 2
    ripple_check: bool = True
    backend: str = "auto"
    code_ref: CodeRef | str | None = None
    #: Which registered fault scenario to inject (:mod:`repro.scenarios`).
    #: The default "msed" is the paper's transient model and keeps the
    #: historical stream (fused kernels included); every other scenario
    #: runs generate-then-decode with a byte-identical scalar reference.
    scenario: str = "msed"


@dataclass
class RsMsedSimulator(MsedSimulator):
    """The MSED simulator of an RS code.

    ``device_bits`` enables the device-confinement decode policy
    (defaults to x4, matching the paper's DIMMs); ``None`` disables it.
    ``code_ref`` and ``scenario`` are as for :class:`MuseMsedSimulator`.
    """

    code: RSCode
    k_symbols: int = 2
    device_bits: int | None = 4
    backend: str = "auto"
    code_ref: CodeRef | str | None = None
    scenario: str = "msed"


# ----------------------------------------------------------------------
# Table IV assembly
# ----------------------------------------------------------------------

#: Largest valid multipliers for the 144-bit C4B model at the two
#: redundancies the paper publishes (verified in tests).  Immutable:
#: lazily-discovered values live in the lru_cache below, never here, so
#: concurrent or batched callers can't observe a half-filled table.
PAPER_144_MULTIPLIERS = {
    16: 65519,  # the paper's MUSE(144,128) pick
    12: 4065,   # the paper's MUSE(144,132) pick
}


@lru_cache(maxsize=None)
def largest_144_multiplier(r: int) -> int:
    """Largest valid multiplier for the 144-bit C4B model at budget r.

    Memoised because the r=15/16 descending searches cost a few
    seconds; the published picks short-circuit the search entirely.
    """
    known = PAPER_144_MULTIPLIERS.get(r)
    if known is not None:
        return known
    model = SymbolErrorModel(SymbolLayout.sequential(144, 4))
    result = MultiplierSearch(model, r).run_descending(stop_after=1)
    if not result.found:
        raise LookupError(f"no valid multiplier for r={r}")
    return result.multipliers[-1]


@lru_cache(maxsize=None)
def muse_design_point(extra_bits: int) -> MuseCode:
    """The MUSE code giving ``extra_bits`` spare bits (Table IV row).

    Extra bits 0..4 shrink the 144-bit code's redundancy from 16 to 12;
    extra bits 5 is the 80-bit MUSE(80,69) code (the paper's footnote).

    Memoised: a code is immutable, and its ELC and the engines cached
    on it take tens of milliseconds to build, so repeated Table IV
    builds share one instance (and its engines) per design point.
    """
    if extra_bits == 5:
        from repro.core.codes import muse_80_69

        return muse_80_69()
    if not 0 <= extra_bits <= 4:
        raise ValueError("MUSE design points exist for 0..5 extra bits")
    r = 16 - extra_bits
    m = largest_144_multiplier(r)
    layout = SymbolLayout.sequential(144, 4)
    return MuseCode(layout, m, name=f"MUSE(144,{144 - r})")


def rs_design_point(extra_bits: int) -> RSCode:
    """The RS code giving ``extra_bits`` spare bits over 144 bits.

    RS redundancy comes in two-symbol steps, so only even extra-bit
    counts exist: b = 8 - extra/2.
    """
    if extra_bits % 2 or not 0 <= extra_bits <= 6:
        raise ValueError("RS design points exist for extra bits 0, 2, 4, 6")
    return rs_for_channel(8 - extra_bits // 2, 144)


_SELF = "repro.reliability.monte_carlo"


def fixed_policy(trials: int) -> AdaptivePolicy:
    """The policy that makes a fixed ``trials``-trial run a campaign.

    No tolerance is ever met, so the first round grants every point
    exactly ``trials`` trials, in index order, and the ceiling ends
    the campaign there.
    """
    return AdaptivePolicy(
        ci_target=0, ci_abs=0, initial_trials=trials, max_trials=trials
    )


def run_design_points(
    simulators: "list[MsedSimulator]",
    trials: int,
    seed: int,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    executor=None,
    group_ns: str | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> list[MsedResult]:
    """Run every simulator for ``trials`` trials at one master seed.

    A one-round campaign (:func:`fixed_policy`): ``jobs > 1`` fans the
    full design-points x chunks grid over **one** process pool (no
    per-point barriers), ``jobs = 1`` streams the same chunks in
    process, and ``executor`` (a
    :class:`repro.distribute.DistributedSession`) ships them to remote
    workers.  Results are positionally aligned with ``simulators`` and
    independent of ``jobs``/``chunk_size``/transport.
    """
    return run_design_points_with_outcomes(
        simulators, trials, seed, jobs, chunk_size, progress,
        executor=executor, group_ns=group_ns,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )[0]


def run_design_points_adaptive(
    simulators: "list[MsedSimulator]",
    policy: "AdaptivePolicy | CampaignPolicy",
    seed: int,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    executor=None,
    group_ns: str | None = None,
    trial_budget: int | None = None,
    cache_dir: str | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> list[CampaignOutcome]:
    """Run every simulator as one campaign under ``policy``.

    Every simulator consumes the same counter-hashed stream, scheduled
    as one *campaign*
    (:class:`~repro.reliability.sampling.scheduler.CampaignRunner`):
    each round spends the next batch of trials on the points furthest
    from the policy's CI target instead of finishing points one at a
    time, optionally under a campaign-wide ``trial_budget`` and backed
    by a ``cache_dir`` result cache.  Results are positionally aligned
    with ``simulators`` and independent of ``jobs``/``chunk_size``/
    backend at a fixed seed (including each point's ``trials_used``) —
    allocation is a pure function of the folded tallies.

    This is where a run's chunk stores are opened, whatever the
    executor: ``checkpoint_dir`` holds its checkpoint journal
    (``resume`` continues an existing one) and ``cache_dir`` the
    cross-run result cache.  A distributed run that degrades leaves its
    partial results next to the journal.
    """
    if isinstance(policy, CampaignPolicy):
        campaign = policy
    else:
        campaign = CampaignPolicy(base=policy)
    if trial_budget is not None:
        campaign = dataclasses.replace(campaign, trial_budget=trial_budget)
    journal = cache = None
    if checkpoint_dir is not None:
        from repro.distribute.checkpoint import CheckpointJournal

        journal = CheckpointJournal.open(
            checkpoint_dir,
            key=derive_key(seed),
            resume=resume,
            chaos=getattr(executor, "journal_chaos", None),
        )
    if cache_dir is not None:
        from repro.distribute.cache import ResultCache

        cache = ResultCache(cache_dir)
    runner = CampaignRunner(
        campaign,
        cache=cache,
        heartbeat=getattr(executor, "heartbeat", None),
        journal=journal,
    )
    degraded: tuple = ()  # only a distributed session degrades
    if executor is not None:
        from repro.distribute.coordinator import DistributedDegraded

        degraded = (DistributedDegraded,)
    try:
        return runner.run(
            simulators, seed, jobs, chunk_size, progress, executor, group_ns
        )
    except degraded as exc:
        exc.preserve(journal)
        raise
    finally:
        # However the run ends, what it folded is on disk.
        for store in (journal, cache):
            if store is not None:
                store.flush()


def run_design_points_with_outcomes(
    simulators: "list[MsedSimulator]",
    trials: int,
    seed: int,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    adaptive: AdaptivePolicy | None = None,
    executor=None,
    group_ns: str | None = None,
    trial_budget: int | None = None,
    cache_dir: str | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> "tuple[list[MsedResult], list[CampaignOutcome | None]]":
    """The one fixed-vs-adaptive dispatch every experiment shares.

    Returns ``(results, outcomes)`` positionally aligned with
    ``simulators``; ``outcomes`` is all ``None`` for fixed-budget runs
    (``adaptive is None``), so callers render trial counts and
    convergence flags from one shape.  Both kinds run as a campaign
    (a fixed run as the one round of :func:`fixed_policy`) and honour
    ``cache_dir`` and ``checkpoint_dir``/``resume``; ``trial_budget``
    only applies to adaptive runs.
    """
    fixed = adaptive is None
    if fixed and trials == 0:
        # A policy needs at least one trial: nothing to schedule.
        return [MsedTally().freeze() for _ in simulators], [None] * len(
            simulators
        )
    outcomes = run_design_points_adaptive(
        simulators, fixed_policy(trials) if fixed else adaptive, seed, jobs,
        chunk_size, progress, executor, group_ns,
        None if fixed else trial_budget, cache_dir, checkpoint_dir, resume,
    )
    results = [outcome.result for outcome in outcomes]
    return results, [None] * len(results) if fixed else list(outcomes)


def build_table_iv(
    trials: int = 10_000,
    seed: int = 2022,
    k_symbols: int = 2,
    rs_device_policy: bool = True,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    adaptive: AdaptivePolicy | None = None,
    executor=None,
    trial_budget: int | None = None,
    cache_dir: str | None = None,
    scenario: str = "msed",
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> TableIV:
    """Run every design point and assemble the paper's Table IV.

    ``backend`` selects the decode engine for *both* families (MUSE and
    RS batch engines); ``jobs`` fans design points x chunks over a
    process pool, ``chunk_size`` bounds per-chunk memory, and
    ``executor`` ships the same chunk grid to distributed workers
    (:class:`repro.distribute.DistributedSession`).  None of them
    changes the tallies of a fixed ``(trials, seed)`` table — one flag
    set accelerates the whole table without altering it.

    With ``adaptive`` set, ``trials`` is ignored: the whole table runs
    as one campaign (trials flow to the points furthest from the CI
    target each round), optionally capped by ``trial_budget`` and
    served from the ``cache_dir`` result cache, and every
    :class:`DesignPoint` carries its campaign outcome in ``.sampling``.
    Fixed or adaptive, ``checkpoint_dir`` journals every chunk and
    ``resume`` replays an earlier journal.

    ``scenario`` swaps the injected corruption stream for any
    registered fault scenario (:mod:`repro.scenarios`) — same grid,
    same determinism contract, per-scenario result-cache cells.
    """
    #: (family, extra bits, label, chipkill, note) per simulator
    points: list[tuple[str, int, str, bool, str]] = []
    simulators: list[MsedSimulator] = []
    for extra_bits in range(0, 6):
        code = muse_design_point(extra_bits)
        simulators.append(
            MuseMsedSimulator(
                code,
                k_symbols=k_symbols,
                backend=backend,
                code_ref=CodeRef(f"{_SELF}:muse_design_point", (extra_bits,)),
                scenario=scenario,
            )
        )
        points.append(("MUSE", extra_bits, f"{code.name} m={code.m}", True, ""))
    for extra_bits in (0, 2, 4, 6):
        code = rs_design_point(extra_bits)
        simulators.append(
            RsMsedSimulator(
                code,
                k_symbols=k_symbols,
                device_bits=4 if rs_device_policy else None,
                backend=backend,
                code_ref=CodeRef(f"{_SELF}:rs_design_point", (extra_bits,)),
                scenario=scenario,
            )
        )
        verdict = assess(code.symbol_bits, 4, 144)
        note = "" if verdict.chipkill else verdict.explain()
        points.append(("RS", extra_bits, repr(code), verdict.chipkill, note))

    results, outcomes = run_design_points_with_outcomes(
        simulators, trials, seed, jobs, chunk_size, progress, adaptive,
        executor, trial_budget=trial_budget, cache_dir=cache_dir,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )

    table = TableIV()
    for (family, extra_bits, label, chipkill, note), result, outcome in zip(
        points, results, outcomes
    ):
        table.add(
            DesignPoint(
                family=family,
                extra_bits=extra_bits,
                label=label,
                chipkill=chipkill,
                result=result,
                note=note,
                sampling=outcome,
            )
        )
    return table
