"""Fault-scenario registry and its determinism contract.

The acceptance contract this file pins:

* every registered scenario's scalar reference (``corrupt_word``) and
  numpy batch (``corrupt_batch``) produce **byte-identical** corrupted
  words, for both code families, on chunks with non-zero start;
* per scenario, the folded tally is invariant across chunk splits,
  ``jobs=2`` process pools, every available decode backend, and a
  2-worker distributed loopback session — at a fixed seed;
* the campaign scheduler escalates zero-event cells of a
  non-splittable scenario to a Clopper-Pearson tail bound instead of
  importance splitting.
"""

import pytest

from repro.core.codes import muse_80_69
from repro.distribute import DistributedSession
from repro.engine import available_backends
from repro.orchestrate import CodeRef, derive_key
from repro.orchestrate.plan import Chunk
from repro.reliability.monte_carlo import MuseMsedSimulator, RsMsedSimulator
from repro.reliability.sampling.scheduler import (
    CampaignPolicy,
    CampaignRunner,
)
from repro.reliability.sampling.sequential import AdaptivePolicy
from repro.rs.reed_solomon import rs_144_128
from repro.scenarios import (
    Scenario,
    register_scenario,
    resolve_scenario,
    scenario_names,
    scenario_stream_key,
    scenario_summaries,
)

SEED = 99
BUILTINS = ("msed", "mbu", "stuck", "rowfail", "scrub", "wear")
FAULTS = tuple(n for n in BUILTINS if n != "msed")


def muse_simulator(scenario, **kwargs):
    return MuseMsedSimulator(
        muse_80_69(),
        scenario=scenario,
        code_ref=CodeRef("repro.core.codes:muse_80_69"),
        **kwargs,
    )


def rs_simulator(scenario, **kwargs):
    return RsMsedSimulator(
        rs_144_128(),
        scenario=scenario,
        code_ref=CodeRef("repro.rs.reed_solomon:rs_144_128"),
        **kwargs,
    )


class TestRegistry:
    def test_builtins_registered_msed_first(self):
        names = scenario_names()
        assert names[0] == "msed"
        assert set(BUILTINS) <= set(names)
        assert len(names) >= 6

    def test_msed_is_the_splitting_scenario(self):
        assert resolve_scenario("msed").supports_splitting
        for name in FAULTS:
            assert not resolve_scenario(name).supports_splitting

    def test_fault_scenarios_ship_both_implementations(self):
        for name in FAULTS:
            scenario = resolve_scenario(name)
            assert scenario.corrupt_batch is not None
            assert scenario.corrupt_word is not None

    def test_summaries_cover_every_name(self):
        summaries = scenario_summaries()
        assert set(summaries) == set(scenario_names())
        assert all(summaries.values())

    def test_duplicate_registration_refused(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("mbu", lambda: Scenario("mbu", "dup"))

    def test_bad_slug_refused(self):
        with pytest.raises(ValueError, match="slug"):
            register_scenario("no spaces!", lambda: Scenario("x", "y"))

    def test_unknown_scenario_lists_registered_names(self):
        with pytest.raises(ValueError, match="mbu"):
            resolve_scenario("definitely-not-registered")

    def test_factory_name_mismatch_refused(self):
        from repro import scenarios as registry

        register_scenario(
            "tmp-mismatch", lambda: Scenario("other", "wrong name")
        )
        try:
            with pytest.raises(ValueError, match="named"):
                resolve_scenario("tmp-mismatch")
        finally:
            registry._FACTORIES.pop("tmp-mismatch", None)
            registry._RESOLVED.pop("tmp-mismatch", None)

    def test_stream_keys_differ_by_name(self):
        key = derive_key(SEED)
        keys = {scenario_stream_key(key, name) for name in BUILTINS}
        assert len(keys) == len(BUILTINS)


class TestScalarBatchParity:
    """corrupt_word is the reference; corrupt_batch must match it bit
    for bit — on a chunk that does not start at trial 0, so the trial
    indexing (not just the draw function) is exercised."""

    CHUNK = Chunk(start=7, size=48)
    KEY = 0xDEAD_BEEF

    @pytest.mark.parametrize("name", FAULTS)
    def test_muse_words_identical(self, name):
        from repro.engine.limbs import limbs_to_ints
        from repro.orchestrate.corruption import (
            muse_scenario_chunk,
            muse_scenario_word,
        )

        code = muse_80_69()
        scenario = resolve_scenario(name)
        batch = muse_scenario_chunk(scenario, code, self.CHUNK, self.KEY)
        for i in range(self.CHUNK.size):
            scalar = muse_scenario_word(
                scenario, code, self.CHUNK.start + i, self.KEY
            )
            assert limbs_to_ints(batch[i : i + 1])[0] == scalar

    @pytest.mark.parametrize("name", FAULTS)
    def test_rs_words_identical(self, name):
        from repro.orchestrate.corruption import (
            rs_scenario_chunk,
            rs_scenario_word,
        )

        code = rs_144_128()
        scenario = resolve_scenario(name)
        batch = rs_scenario_chunk(scenario, code, self.CHUNK, self.KEY)
        for i in range(self.CHUNK.size):
            scalar = rs_scenario_word(
                scenario, code, self.CHUNK.start + i, self.KEY
            )
            assert list(batch[i]) == list(scalar)

    def test_msed_has_no_word_reference(self):
        from repro.orchestrate.corruption import muse_scenario_word

        with pytest.raises(ValueError, match="msed"):
            muse_scenario_word(resolve_scenario("msed"), muse_80_69(), 0, 1)


class TestTallyInvariance:
    """The (chunk_size, jobs, backend, workers)-invariance contract,
    per scenario."""

    @pytest.mark.parametrize("name", FAULTS)
    def test_chunk_split_and_jobs(self, name):
        simulator = muse_simulator(name)
        whole = simulator.run(trials=400, seed=SEED)
        split = simulator.run(trials=400, seed=SEED, chunk_size=61)
        pooled = simulator.run(trials=400, seed=SEED, chunk_size=61, jobs=2)
        assert whole == split == pooled

    @pytest.mark.parametrize("name", FAULTS)
    def test_rs_chunk_split(self, name):
        simulator = rs_simulator(name)
        whole = simulator.run(trials=240, seed=SEED)
        split = simulator.run(trials=240, seed=SEED, chunk_size=53)
        assert whole == split

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", FAULTS)
    def test_backends_fold_identically(self, name, backend):
        reference = muse_simulator(name, backend="scalar").run(
            trials=150, seed=SEED
        )
        assert (
            muse_simulator(name, backend=backend).run(trials=150, seed=SEED)
            == reference
        )

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", FAULTS)
    def test_rs_backends_fold_identically(self, name, backend):
        reference = rs_simulator(name, backend="scalar").run(
            trials=120, seed=SEED
        )
        assert (
            rs_simulator(name, backend=backend).run(trials=120, seed=SEED)
            == reference
        )

    def test_two_worker_loopback_identical(self):
        """One session, every fault scenario: the distributed fold must
        be byte-identical to the serial tally."""
        serial = {
            name: muse_simulator(name).run(trials=200, seed=SEED, chunk_size=64)
            for name in FAULTS
        }
        with DistributedSession(local_workers=2) as session:
            for name in FAULTS:
                distributed = muse_simulator(name).run(
                    trials=200, seed=SEED, chunk_size=64, executor=session
                )
                assert distributed == serial[name], name

    def test_scenarios_differ_from_each_other(self):
        """Sanity: distinct scenarios at one seed are distinct streams
        (otherwise every invariance test above is vacuous)."""
        tallies = {
            name: muse_simulator(name).run(trials=300, seed=SEED)
            for name in FAULTS
        }
        assert len({repr(t) for t in tallies.values()}) == len(FAULTS)

    def test_unknown_scenario_fails_at_run(self):
        simulator = muse_simulator("not-a-scenario")
        with pytest.raises(ValueError, match="registered"):
            simulator.run(trials=10, seed=1)


class TestCampaignEscalation:
    def test_zero_event_scenario_cell_gets_clopper_pearson_bound(self):
        """mbu on MUSE(80,69) yields zero silent events at this seed
        (pinned); the campaign must escalate — but to an exact CP tail
        bound, not the msed-stream importance splitter."""
        simulator = muse_simulator("mbu")
        policy = CampaignPolicy(
            base=AdaptivePolicy(
                metric="silent", initial_trials=256, max_trials=2000
            ),
            escalate_after=500,
        )
        [outcome] = CampaignRunner(policy).run([simulator], seed=7)
        assert outcome.escalated
        assert outcome.escalation == "Clopper-Pearson tail bound"
        assert outcome.tail_bound is not None
        assert outcome.tail_bound.lo == 0.0
        assert outcome.tail_bound.hi > 0.0
        assert "Clopper-Pearson" in outcome.describe()

    def test_msed_still_escalates_to_importance_splitting(self):
        simulator = muse_simulator("msed")
        policy = CampaignPolicy(
            base=AdaptivePolicy(
                metric="silent", initial_trials=256, max_trials=2000
            ),
            escalate_after=500,
        )
        [outcome] = CampaignRunner(policy).run([simulator], seed=7)
        if outcome.escalated:
            assert outcome.escalation == "importance splitting"
