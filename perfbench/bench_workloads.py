"""The benchmark's workloads: set-up, one unit of work, output checks.

Each workload is a closed loop with one caller: the next unit starts
only when the previous one returned.  A unit's *signature* is the
checked output (tallies, or simulated statistics), normalised through
JSON so it compares exactly against ``pins.json``.

Run this file directly to regenerate ``pins.json`` (one unit of every
workload at the default seed and scale)::

    python3 perfbench/bench_workloads.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

DEFAULT_SEED = 2022
HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

MUSE_POINTS = (0, 1, 2, 3, 4, 5)
RS_POINTS = (0, 2, 4, 6)
SCENARIOS = ("mbu", "stuck", "rowfail", "scrub", "wear")
FIGURE67_PROFILES = ("519.lbm_r", "505.mcf_r", "541.leela_r")
POINT_LABELS = tuple(f"MUSE +{extra}b" for extra in MUSE_POINTS) + tuple(
    f"RS +{extra}b" for extra in RS_POINTS
)


#: Iterations of the host-speed probe (10-15 ms on a 2-vCPU x86_64 VM).
PROBE_LOOPS = 100_000
#: Probe seconds that define the reference host speed: end-to-end times
#: are reported as if every probe around them had taken this long.
PROBE_REFERENCE_S = 0.0125


def host_probe() -> float:
    """Seconds for a fixed pure-Python integer loop.

    The loop is the benchmark's own code, so no change to the program
    moves it; only the host's speed does.  On a shared host that speed
    drifts by tens of percent for minutes at a time, so every timed
    program call is bracketed by two probes (see ``timed``)."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return perf_counter() - start


def timed(parts: dict, name: str, call):
    """Run ``call()``; record its seconds and the host probe around it
    as ``parts[name] = (seconds, probe seconds)``."""
    before = host_probe()
    begin = perf_counter()
    result = call()
    seconds = perf_counter() - begin
    parts[name] = (seconds, (before + host_probe()) / 2)
    return result


def _normalise(value):
    return json.loads(json.dumps(value))


def table_signature(table) -> list:
    """Per design point: family, extra bits and the full tally."""
    return _normalise(
        [
            [
                p.family,
                p.extra_bits,
                p.result.trials,
                p.result.detected_no_match,
                p.result.detected_confinement,
                p.result.miscorrected,
                p.result.silent,
            ]
            for p in table.points
        ]
    )


def simulators(backend: str, scenario: str = "msed") -> list:
    """The ten Table IV simulators, built the way ``build_table_iv``
    builds them."""
    from repro.reliability.monte_carlo import (
        MuseMsedSimulator,
        RsMsedSimulator,
        muse_design_point,
        rs_design_point,
    )

    built = [
        MuseMsedSimulator(
            muse_design_point(extra), backend=backend, scenario=scenario
        )
        for extra in MUSE_POINTS
    ]
    built += [
        RsMsedSimulator(
            rs_design_point(extra), device_bits=4, backend=backend,
            scenario=scenario,
        )
        for extra in RS_POINTS
    ]
    return built


def _tally_row(tally) -> list:
    return [
        tally.trials,
        tally.detected_no_match,
        tally.detected_confinement,
        tally.miscorrected,
        tally.silent,
    ]


def numpy_first_chunk_checks(seed: int, size: int, scenario: str = "msed") -> list:
    """The ``auto`` backend's first-chunk tally of every point must
    equal the ``numpy`` engine's."""
    from repro.orchestrate.plan import Chunk
    from repro.orchestrate.rng import derive_key

    key = derive_key(seed)
    chunk = Chunk(0, size)
    checks = []
    for label, fast, reference in zip(
        POINT_LABELS, simulators("auto", scenario), simulators("numpy", scenario)
    ):
        got = _tally_row(fast.run_chunk(chunk, key))
        want = _tally_row(reference.run_chunk(chunk, key))
        checks.append(
            (
                f"numpy-first-chunk {scenario} {label}",
                got == want,
                f"auto {got} vs numpy {want}",
            )
        )
    return checks


def fidelity(table) -> tuple[float, list[dict]]:
    """Mean |measured - paper| MSED (percentage points) over the Table
    IV points, and each point's measured rate, 95% CI and paper value."""
    from repro.experiments.table4 import CONFIDENCE, PAPER_MUSE, PAPER_RS

    rows = []
    for point in table.points:
        paper = (PAPER_MUSE if point.family == "MUSE" else PAPER_RS)[point.extra_bits]
        interval = point.result.interval(confidence=CONFIDENCE)
        lo, hi = 100.0 * interval.lo, 100.0 * interval.hi
        rows.append(
            {
                "point": f"{point.family} +{point.extra_bits}b",
                "measured_pct": point.result.msed_percent,
                "ci95_pct": [lo, hi],
                "paper_pct": paper,
                "ci_contains_paper": lo <= paper <= hi,
                "trials": point.result.trials,
            }
        )
    gap = sum(abs(r["measured_pct"] - r["paper_pct"]) for r in rows) / len(rows)
    return gap, rows


class Workload:
    """One benchmark workload at one seed and size scale."""

    name = ""
    table4 = False  # whether the unit yields the paper's Table IV
    campaign = False  # whether the unit is a distributed campaign

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.last_table = None

    def prepare(self) -> None:
        """Set-up a user pays before the first unit: imports, backend
        resolve, design points and engines (or profiles)."""
        from repro.engine import get_engine, resolve_backend
        from repro.reliability.monte_carlo import MuseMsedSimulator
        from repro.rs.engine import get_rs_engine

        resolve_backend("auto")
        for sim in simulators("auto"):
            if isinstance(sim, MuseMsedSimulator):
                get_engine(sim.code, "auto", ripple_check=sim.ripple_check)
            else:
                get_rs_engine(sim.code, "auto", device_bits=sim.device_bits)

    def prime(self) -> None:
        """Untimed work between set-up and the first unit."""

    def unit(self) -> tuple[int, list, dict | None]:
        """Run one unit; returns (work items done, output signature,
        ``timed`` samples per program call, or None when the unit is one
        call and the caller times it).  Timing each call lets a probe
        sit close to it when the host's speed drifts within a unit."""
        raise NotImplementedError

    def checks(self, signature: list) -> list[tuple[str, bool, str]]:
        """Output checks beyond repeat identity; ``signature`` is the
        first unit's."""
        return []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Table4Fused(Workload):
    name = "table4-fused"
    table4 = True

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.trials = max(1_000, int(300_000 * scale))

    def unit(self):
        from repro.reliability.monte_carlo import build_table_iv

        table = build_table_iv(trials=self.trials, seed=self.seed, backend="auto", jobs=1)
        self.last_table = table
        return self.trials * len(table.points), table_signature(table), None

    def checks(self, signature):
        from repro.orchestrate.plan import DEFAULT_CHUNK_SIZE

        return numpy_first_chunk_checks(
            self.seed, min(self.trials, DEFAULT_CHUNK_SIZE)
        )


class Table4Scenarios(Workload):
    name = "table4-scenarios"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.trials = max(500, int(10_000 * scale))

    def prepare(self):
        from repro.scenarios import resolve_scenario

        super().prepare()
        for scenario in SCENARIOS:
            resolve_scenario(scenario)

    def unit(self):
        from repro.reliability.monte_carlo import build_table_iv

        signature, parts = {}, {}
        work = 0
        for scenario in SCENARIOS:
            table = timed(
                parts,
                scenario,
                lambda: build_table_iv(
                    trials=self.trials, seed=self.seed, backend="auto", jobs=1,
                    scenario=scenario,
                ),
            )
            signature[scenario] = table_signature(table)
            work += self.trials * len(table.points)
        return work, _normalise(signature), parts

    def checks(self, signature):
        from repro.orchestrate.plan import DEFAULT_CHUNK_SIZE

        size = min(self.trials, DEFAULT_CHUNK_SIZE)
        checks = []
        for scenario in SCENARIOS:
            checks += numpy_first_chunk_checks(self.seed, size, scenario)
        return checks


class _Campaign(Workload):
    """Adaptive Table IV campaign on a two-worker loopback fleet."""

    table4 = True
    campaign = True

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.ci_target = 0.03 / max(scale, 1e-4) ** 0.5
        self.runs = 0

    def _build(self, cache_dir: Path):
        """One campaign with a fresh checkpoint directory; directories
        are removed with the workload, never inside a timed unit."""
        from repro.experiments import table4

        self.runs += 1
        return table4.build(
            seed=self.seed,
            backend="auto",
            adaptive=True,
            ci_target=self.ci_target,
            chunk_size=8192,
            distribute="local:2",
            checkpoint_dir=str(self.workdir / f"checkpoint-{self.runs}"),
            cache_dir=str(cache_dir),
        )

    def _unit_from(self, table):
        self.last_table = table
        trials = sum(p.result.trials for p in table.points)
        return trials, table_signature(table), None

    def checks(self, signature):
        """The campaign's tally of every point must equal a plain
        in-process run of the same trial count at the same seed."""
        checks = numpy_first_chunk_checks(self.seed, 8192)
        for label, sim, row in zip(POINT_LABELS, simulators("auto"), signature):
            result = sim.run(trials=row[2], seed=self.seed)
            got = row[2:]
            want = _tally_row(result)
            checks.append(
                (
                    f"campaign-vs-serial {label}",
                    got == want,
                    f"campaign {got} vs serial {want}",
                )
            )
        return checks


class CampaignLoopback(_Campaign):
    name = "campaign-loopback"

    def unit(self):
        return self._unit_from(self._build(self.workdir / f"cache-{self.runs + 1}"))


class CampaignRerun(_Campaign):
    name = "campaign-rerun"

    def prime(self):
        self.cache = self.workdir / "warm-cache"
        _, self.cold, _ = self._unit_from(self._build(self.cache))

    def unit(self):
        return self._unit_from(self._build(self.cache))

    def checks(self, signature):
        checks = super().checks(signature)
        checks.append(
            (
                "warm-equals-cold",
                signature == self.cold,
                "warm re-run tallies vs the cold pass that filled the cache",
            )
        )
        return checks


class Figure67Timing(Workload):
    name = "figure67-timing"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.mem_ops = max(200, int(4_000 * scale))

    def prepare(self):
        from repro.perf.workloads import profile_by_name

        self.profiles = tuple(profile_by_name(name) for name in FIGURE67_PROFILES)

    def unit(self):
        from repro.perf.simulator import (
            FIGURE6_CONFIGS,
            FIGURE7_CONFIGS,
            run_figure6,
            run_figure7,
        )

        figure6, figure7, parts = [], [], {}
        for profile in self.profiles:
            for name, run, rows in (
                ("figure6", run_figure6, figure6),
                ("figure7", run_figure7, figure7),
            ):
                rows += timed(
                    parts,
                    f"{name} {profile.name}",
                    lambda: run((profile,), mem_ops=self.mem_ops, seed=self.seed),
                )
        signature = {
            "figure6": {row.workload: row.slowdowns for row in figure6},
            "figure7": {
                row.workload: {
                    config: {
                        "elapsed_ns": result.elapsed_ns,
                        "dram_reads": result.dram_reads,
                        "dram_writes": result.dram_writes,
                        "metadata_reads": result.metadata_reads,
                    }
                    for config, result in row.results.items()
                }
                for row in figure7
            },
        }
        sims = len(self.profiles) * (1 + len(FIGURE6_CONFIGS) + len(FIGURE7_CONFIGS))
        return sims * self.mem_ops, _normalise(signature), parts


WORKLOADS = {
    cls.name: cls
    for cls in (
        Table4Fused,
        Table4Scenarios,
        CampaignLoopback,
        CampaignRerun,
        Figure67Timing,
    )
}


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def write_pins(workdir: Path) -> None:
    """Record one unit's signature of every workload at the default
    seed and scale."""
    pins = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, 1.0, workdir / name)
        workload.workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload.prepare()
            workload.prime()
            pins[name] = workload.unit()[1]
        finally:
            workload.close()
    PINS.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(name)}: {json.dumps(pins[name], sort_keys=True)}"
            for name in sorted(pins)
        )
        + "\n}\n"
    )


if __name__ == "__main__":
    import run

    run.bootstrap()
    write_pins(run.OUT / "pins")
    sys.exit(0)
