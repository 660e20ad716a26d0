"""Post-hoc reports: the event log as independent witness.

Unit half: :func:`summarize_events` folds a synthetic stream into the
report's numbers (stages, slowest points, fleet health, chaos, cache).

Acceptance half (the ISSUE's criterion): a chaos-cocktail 2-worker
loopback run under telemetry produces an event log from which
``repro-muse report`` reconstructs fault / rejoin / requeue counts
**matching the coordinator's own totals** — while the tally stays
byte-identical to the serial run.
"""

import json

from repro.core.codes import muse_80_69
from repro.distribute import DistributedSession
from repro.distribute.cache import ResultCache
from repro.distribute.chaos import FaultPlan, parse_chaos
from repro.orchestrate import CodeRef
from repro.reliability.monte_carlo import MuseMsedSimulator, build_table_iv
from repro.telemetry import (
    EVENT_LOG_NAME,
    MANIFEST_NAME,
    read_events,
    render_report,
    telemetry_session,
)
from repro.telemetry.report import load_manifest, summarize_events

SEED = 5


class TestSummarizeEvents:
    def test_spans_fold_into_stages_and_points(self):
        events = [
            {"type": "span", "name": "decode_chunk", "seconds": 0.5,
             "attrs": {"point": "muse+2"}},
            {"type": "span", "name": "decode_chunk", "seconds": 1.5,
             "attrs": {"point": "muse+2"}},
            {"type": "span", "name": "engine_build", "seconds": 0.25,
             "attrs": {"backend": "native"}},
        ]
        summary = summarize_events(events)
        assert summary["total_events"] == 3
        assert summary["stages"]["decode_chunk"] == {
            "count": 2, "seconds": 2.0, "max": 1.5,
        }
        assert summary["points"] == {
            "muse+2": {"count": 2, "seconds": 2.0, "max": 1.5}
        }

    def test_fleet_health_and_requeues(self):
        events = [
            {"type": "worker.join", "worker": "a"},
            {"type": "worker.rejoin", "worker": "a"},
            {"type": "worker.leave", "worker": "a", "requeued": 2},
            {"type": "lease.expired", "requeued": 1},
            {"type": "chunk.failed", "task": 3, "requeued": 1},
            {"type": "protocol.error", "worker": "a", "error": "torn"},
        ]
        fleet = summarize_events(events)["fleet"]
        assert fleet["worker.join"] == 1
        assert fleet["worker.rejoin"] == 1
        assert fleet["worker.leave"] == 1
        assert fleet["lease.expired"] == 1
        assert fleet["chunk.failed"] == 1
        assert fleet["protocol.error"] == 1
        assert fleet["chunks_requeued"] == 4

    def test_chaos_from_events_and_worker_counters(self):
        events = [
            {"type": "chaos.fault", "kind": "journal", "scope": "run"},
            {"type": "telemetry.worker", "worker": "local-0",
             "counters": {"worker.chaos.reset": 2,
                          "worker.chunks_executed": 5}},
            {"type": "telemetry.worker", "worker": "local-1",
             "counters": {"worker.chaos.reset": 1,
                          "worker.chaos.dup": 1}},
        ]
        chaos = summarize_events(events)["chaos"]
        assert chaos == {"journal": 1, "reset": 3, "dup": 1}

    def test_cache_traffic(self):
        events = [
            {"type": "cache.lookup", "hit": True, "trials": 100},
            {"type": "cache.lookup", "hit": True, "trials": 50},
            {"type": "cache.lookup", "hit": False},
        ]
        fleet = summarize_events(events)["fleet"]
        assert fleet["cache_hits"] == 2
        assert fleet["cache_misses"] == 1


class TestRenderReport:
    def test_empty_run_dir_says_so(self, tmp_path):
        text = render_report(tmp_path)
        assert "no event log or manifest found" in text

    def test_report_reads_events_without_a_manifest(self, tmp_path):
        """A crashed run leaves no manifest; the report still works."""
        with telemetry_session(tmp_path, experiment="t") as tel:
            with tel.span("decode_chunk", point="muse+2"):
                pass
            tel._event_log.flush()
            (tmp_path / MANIFEST_NAME).unlink(missing_ok=True)
            text = render_report(tmp_path)
        assert "time in stage:" in text
        assert "decode_chunk" in text
        assert "slowest points" in text
        assert load_manifest("/nonexistent") is None


class TestCacheIntrospection:
    def test_second_run_shows_cache_hits(self, tmp_path):
        from repro.reliability.sampling.sequential import AdaptivePolicy

        # the result cache only rides the adaptive (campaign) path
        cache_dir = str(tmp_path / "cache")
        kwargs = dict(
            seed=3,
            cache_dir=cache_dir,
            adaptive=AdaptivePolicy(initial_trials=50, max_trials=100),
        )
        with telemetry_session(tmp_path / "cold"):
            cold = build_table_iv(**kwargs)
        with telemetry_session(tmp_path / "warm"):
            warm = build_table_iv(**kwargs)
        assert [p.result for p in warm.points] == [
            p.result for p in cold.points
        ]
        summary = summarize_events(
            read_events(tmp_path / "warm" / EVENT_LOG_NAME)
        )
        hits = summary["fleet"].get("cache_hits", 0)
        assert hits >= 1
        manifest = json.loads(
            (tmp_path / "warm" / MANIFEST_NAME).read_text()
        )
        counters = {
            (c["name"],): c["value"] for c in manifest["metrics"]["counters"]
            if not c["labels"]
        }
        assert counters[("cache.hits",)] == hits  # log and registry agree


def _probe_cocktail() -> str:
    """A chaos spec whose ``reset`` rule provably fires for local-0
    within its first 6 events (per-(scope, kind) schedules are pure
    functions of the seed, so this probe is exact, not statistical)."""
    for seed in range(300):
        spec = f"seed={seed},reset=0.3,dup=0.2"
        plan = FaultPlan(parse_chaos(spec), "local-0")
        if any(plan.should("reset") for _ in range(6)):
            return spec
    raise AssertionError("no early-reset cocktail seed found")


class TestChaosCocktailAcceptance:
    def test_report_matches_coordinator_totals(self, tmp_path):
        """The ISSUE's acceptance criterion, end to end."""
        spec = _probe_cocktail()
        sim = MuseMsedSimulator(
            muse_80_69(),
            backend="auto",
            code_ref=CodeRef("repro.core.codes:muse_80_69"),
        )
        serial = sim.run(900, seed=SEED, chunk_size=50)
        run_dir = tmp_path / "run"
        with telemetry_session(run_dir, experiment="loopback",
                               chaos=spec) as tel:
            with DistributedSession(local_workers=2, chaos=spec) as session:
                chaotic = sim.run(
                    900, seed=SEED, chunk_size=50, executor=session
                )
            totals = {
                "rejoins": session.rejoins,
                "protocol_errors": session.protocol_errors,
                "requeues": session._queue.requeues,
            }
            registry_chaos = sum(
                entry["value"]
                for entry in tel.registry.snapshot()["counters"]
                if entry["name"].startswith("worker.chaos.")
            )
        assert chaotic == serial  # chaos moved work around, never results

        summary = summarize_events(read_events(run_dir / EVENT_LOG_NAME))
        fleet = summary["fleet"]
        assert fleet["worker.join"] == 2
        assert fleet.get("worker.rejoin", 0) == totals["rejoins"]
        assert fleet.get("protocol.error", 0) == totals["protocol_errors"]
        assert fleet.get("chunks_requeued", 0) == totals["requeues"]
        assert totals["rejoins"] >= 1  # the probed reset actually fired
        assert sum(summary["chaos"].values()) == registry_chaos
        assert summary["chaos"].get("reset", 0) >= 1

        # the manifest of a distributed run names every spec it folded
        manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
        assert manifest["spec_fingerprints"]

        # ... and the rendered report surfaces all of it
        text = render_report(run_dir)
        assert "fleet health:" in text
        assert "chaos faults:" in text
        assert "worker.rejoin" in text
