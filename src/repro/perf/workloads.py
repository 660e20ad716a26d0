"""Synthetic SPEC-CPU2017-shaped workloads.

The paper drives gem5 with the 22 SPECrate 2017 benchmarks.  SPEC inputs
are licensed and gem5 is out of scope, so each benchmark is replaced by
a deterministic synthetic address trace whose *memory behaviour* is
shaped to the published characterization of that benchmark:

* ``working_set_kb`` — how far beyond the 8 MB LLC the footprint
  reaches (drives LLC MPKI; lbm/mcf/fotonik3d/bwaves are memory-bound,
  exchange2/povray/leela live in cache);
* ``stream_fraction`` — sequential streaming vs pointer-chasing mix;
* ``write_fraction`` — store share of memory operations;
* ``mem_per_kilo_inst`` — memory operations per 1000 instructions.

The profiles do not claim instruction-level fidelity; they preserve the
*ordering and rough magnitude* of memory-boundedness across the suite,
which is the only property Figures 6 and 7 consume.  (The substitution
is described in the README's "Timing simulator (Figures 6/7)" section.)
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class WorkloadProfile:
    """Shape parameters of one synthetic benchmark."""

    name: str
    working_set_kb: int
    stream_fraction: float
    write_fraction: float
    mem_per_kilo_inst: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.stream_fraction <= 1.0:
            raise ValueError("stream_fraction must be within [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")


#: The 22 SPECrate 2017 benchmarks of Figure 6, ordered as in the paper.
#: Working sets / mixes follow published SPEC CPU2017 memory
#: characterizations (memory-bound: 503, 505, 519, 520, 549, 554;
#: cache-resident: 508, 511, 525, 538, 541, 548).
SPEC2017_PROFILES: tuple[WorkloadProfile, ...] = (
    WorkloadProfile("500.perlbench_r", 3_000, 0.45, 0.35, 350),
    WorkloadProfile("502.gcc_r", 9_000, 0.40, 0.30, 380),
    WorkloadProfile("503.bwaves_r", 120_000, 0.85, 0.25, 460),
    WorkloadProfile("505.mcf_r", 160_000, 0.15, 0.25, 430),
    WorkloadProfile("507.cactuBSSN_r", 60_000, 0.75, 0.30, 420),
    WorkloadProfile("508.namd_r", 2_000, 0.70, 0.25, 390),
    WorkloadProfile("510.parest_r", 40_000, 0.60, 0.25, 410),
    WorkloadProfile("511.povray_r", 1_000, 0.50, 0.30, 340),
    WorkloadProfile("519.lbm_r", 200_000, 0.90, 0.45, 480),
    WorkloadProfile("520.omnetpp_r", 130_000, 0.20, 0.30, 400),
    WorkloadProfile("521.wrf_r", 50_000, 0.70, 0.30, 430),
    WorkloadProfile("523.xalancbmk_r", 30_000, 0.35, 0.25, 390),
    WorkloadProfile("525.x264_r", 4_000, 0.65, 0.30, 370),
    WorkloadProfile("526.blender_r", 12_000, 0.55, 0.30, 380),
    WorkloadProfile("531.deepsjeng_r", 5_000, 0.30, 0.30, 360),
    WorkloadProfile("538.imagick_r", 1_500, 0.80, 0.30, 410),
    WorkloadProfile("541.leela_r", 2_500, 0.35, 0.25, 350),
    WorkloadProfile("544.nab_r", 6_000, 0.60, 0.25, 400),
    WorkloadProfile("548.exchange2_r", 500, 0.40, 0.30, 300),
    WorkloadProfile("549.fotonik3d_r", 150_000, 0.85, 0.35, 450),
    WorkloadProfile("554.roms_r", 110_000, 0.80, 0.35, 440),
    WorkloadProfile("557.xz_r", 35_000, 0.45, 0.30, 370),
)


#: Per-benchmark trace salt: ``hash(name) & 0xFFFFFFFF`` as CPython 3.11
#: computes it under ``PYTHONHASHSEED=0``.  Frozen so a trace depends on
#: ``(profile, seed)`` alone — never on the interpreter's per-process hash
#: salt or version — while every trace published under that pinned salt
#: stays the same.  Other names salt with :func:`zlib.crc32`.
TRACE_SALTS: dict[str, int] = {
    "500.perlbench_r": 0x2BBCB452,
    "502.gcc_r": 0x6CC59C4A,
    "503.bwaves_r": 0x50B70E90,
    "505.mcf_r": 0x1268BE9B,
    "507.cactuBSSN_r": 0x2AC426E3,
    "508.namd_r": 0x2EB70B51,
    "510.parest_r": 0xA5071ED0,
    "511.povray_r": 0x679C51E5,
    "519.lbm_r": 0x1ED9CDEB,
    "520.omnetpp_r": 0x7C82090A,
    "521.wrf_r": 0x63B56096,
    "523.xalancbmk_r": 0xEE75E853,
    "525.x264_r": 0x097C8873,
    "526.blender_r": 0xCF751CAF,
    "531.deepsjeng_r": 0xD3530CDE,
    "538.imagick_r": 0x7B92500F,
    "541.leela_r": 0x1904681B,
    "544.nab_r": 0xC0A964F7,
    "548.exchange2_r": 0x8E50F279,
    "549.fotonik3d_r": 0x637A4052,
    "554.roms_r": 0x948863A2,
    "557.xz_r": 0xBBFD4287,
}


def trace_salt(name: str) -> int:
    """The 32-bit salt a profile's trace RNG mixes with its seed."""
    return TRACE_SALTS.get(name, zlib.crc32(name.encode()))


@dataclass(frozen=True)
class MemoryOp:
    """One memory reference plus the plain instructions preceding it."""

    gap_instructions: int
    address: int
    is_write: bool


class TraceGenerator:
    """Deterministic synthetic trace for one profile.

    Two interleaved streams approximate the benchmark mix:

    * a **streaming** pointer walking the working set with a 64-byte
      stride (spatial locality, prefetch-friendly, row-buffer-friendly);
    * a **random/pointer-chase** stream uniform over the working set
      (destroys locality, produces the LLC misses of mcf/omnetpp).

    A fixed 32 kB hot region absorbs a share of accesses so that even
    memory-bound benchmarks keep realistic L1 hit rates.
    """

    HOT_REGION_BYTES = 32 * 1024
    HOT_FRACTION = 0.60
    BASE_ADDRESS = 1 << 30

    def __init__(self, profile: WorkloadProfile, seed: int = 1):
        self.profile = profile
        self.seed = seed

    def operations(self, count: int) -> Iterator[MemoryOp]:
        """Yield ``count`` memory operations."""
        profile = self.profile
        rng = random.Random((trace_salt(profile.name) ^ self.seed) & 0xFFFFFFFF)
        working_set = profile.working_set_kb * 1024
        gap = max(1, round(1000 / profile.mem_per_kilo_inst) - 1)
        stream_pointer = 0
        for _ in range(count):
            is_write = rng.random() < profile.write_fraction
            roll = rng.random()
            if roll < self.HOT_FRACTION:
                offset = rng.randrange(self.HOT_REGION_BYTES)
            elif rng.random() < profile.stream_fraction:
                stream_pointer = (stream_pointer + 64) % working_set
                offset = self.HOT_REGION_BYTES + stream_pointer
            else:
                offset = self.HOT_REGION_BYTES + rng.randrange(working_set)
            address = self.BASE_ADDRESS + offset
            yield MemoryOp(
                gap_instructions=gap, address=address, is_write=is_write
            )


def profile_by_name(name: str) -> WorkloadProfile:
    for profile in SPEC2017_PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown workload {name!r}")
