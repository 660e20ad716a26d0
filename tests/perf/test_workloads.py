"""Synthetic workload tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.perf.workloads import (
    SPEC2017_PROFILES,
    TRACE_SALTS,
    TraceGenerator,
    WorkloadProfile,
    profile_by_name,
)

SRC = str(Path(repro.__file__).resolve().parents[1])
CUSTOM = WorkloadProfile("custom.bench", 9_000, 0.5, 0.3, 400)

#: Prints the first 300 ops of two traces: a SPEC profile (frozen salt)
#: and a custom one (crc32 salt).
TRACE_SCRIPT = """
from repro.perf.workloads import TraceGenerator, WorkloadProfile, profile_by_name
for profile in (profile_by_name("505.mcf_r"),
                WorkloadProfile("custom.bench", 9_000, 0.5, 0.3, 400)):
    ops = TraceGenerator(profile, seed=11).operations(300)
    print([(op.gap_instructions, op.address, op.is_write) for op in ops])
"""


def _run_python(script: str, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


class TestProfiles:
    def test_all_22_benchmarks_present(self):
        assert len(SPEC2017_PROFILES) == 22
        names = {p.name for p in SPEC2017_PROFILES}
        assert "519.lbm_r" in names
        assert "505.mcf_r" in names
        assert "548.exchange2_r" in names

    def test_memory_bound_profiles_have_big_working_sets(self):
        """lbm/mcf/fotonik3d must dwarf the 8MB LLC; leela/exchange2
        must fit inside it — the ordering Figure 6 depends on."""
        llc = 8 * 1024  # kB
        for name in ("519.lbm_r", "505.mcf_r", "549.fotonik3d_r", "503.bwaves_r"):
            assert profile_by_name(name).working_set_kb > 10 * llc
        for name in ("541.leela_r", "548.exchange2_r", "511.povray_r"):
            assert profile_by_name(name).working_set_kb < llc

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            profile_by_name("600.nonesuch")

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("bad", 100, stream_fraction=1.5, write_fraction=0.1,
                            mem_per_kilo_inst=100)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", 100, stream_fraction=0.5, write_fraction=-0.1,
                            mem_per_kilo_inst=100)


class TestTraceGenerator:
    def test_deterministic_under_seed(self):
        profile = profile_by_name("505.mcf_r")
        first = list(TraceGenerator(profile, seed=3).operations(500))
        second = list(TraceGenerator(profile, seed=3).operations(500))
        assert first == second

    def test_different_seeds_differ(self):
        profile = profile_by_name("505.mcf_r")
        first = list(TraceGenerator(profile, seed=3).operations(500))
        second = list(TraceGenerator(profile, seed=4).operations(500))
        assert first != second

    def test_addresses_stay_in_working_set(self):
        profile = profile_by_name("541.leela_r")
        limit = (
            TraceGenerator.BASE_ADDRESS
            + TraceGenerator.HOT_REGION_BYTES
            + profile.working_set_kb * 1024
        )
        for op in TraceGenerator(profile).operations(2000):
            assert TraceGenerator.BASE_ADDRESS <= op.address < limit

    def test_write_fraction_approximate(self):
        profile = profile_by_name("519.lbm_r")  # write_fraction 0.45
        ops = list(TraceGenerator(profile).operations(5000))
        write_share = sum(op.is_write for op in ops) / len(ops)
        assert abs(write_share - profile.write_fraction) < 0.05

    def test_op_count_exact(self):
        profile = profile_by_name("502.gcc_r")
        assert sum(1 for _ in TraceGenerator(profile).operations(123)) == 123


class TestHashSeedIndependence:
    def test_trace_is_the_same_under_any_hash_seed(self):
        expected = "".join(
            f"{[(op.gap_instructions, op.address, op.is_write) for op in ops]}\n"
            for ops in (
                TraceGenerator(profile_by_name("505.mcf_r"), seed=11).operations(300),
                TraceGenerator(CUSTOM, seed=11).operations(300),
            )
        )
        for hashseed in ("1", "2"):
            assert _run_python(TRACE_SCRIPT, hashseed) == expected

    def test_salt_table_covers_every_profile(self):
        assert set(TRACE_SALTS) == {p.name for p in SPEC2017_PROFILES}

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="the frozen salts are CPython 3.11's string hashes",
    )
    def test_salts_are_the_pinned_hash_seed_hashes(self):
        script = (
            "from repro.perf.workloads import SPEC2017_PROFILES\n"
            "print({p.name: hash(p.name) & 0xFFFFFFFF for p in SPEC2017_PROFILES})"
        )
        assert _run_python(script, "0") == f"{TRACE_SALTS}\n"
