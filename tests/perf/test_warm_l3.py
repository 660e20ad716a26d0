"""The closed-form L3 warm-up against the sweep it replaces.

``_sweep_warm_l3`` is the warm-up as a line-by-line sweep: one
``Cache.fill`` per line of the footprint, capped at twice the L3
capacity, each line dirty at the workload's store share.  It lives here
only as an oracle — ``CacheHierarchy.warm_l3`` builds the same state
directly, and every set must match it in contents, LRU order and dirty
bits.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.cache import Cache, CacheHierarchy
from repro.perf.workloads import TraceGenerator, profile_by_name


def _sweep_warm_l3(hierarchy, base, footprint_bytes, dirty_fraction, seed=0):
    """The warm-up one ``Cache.fill`` at a time."""
    l3 = hierarchy.l3
    rng = random.Random(seed)
    line = l3.line_bytes
    span = min(footprint_bytes, 2 * l3.sets * l3.ways * line)
    for offset in range(0, span, line):
        l3.fill(base + offset, dirty=rng.random() < dirty_fraction)


def _state(cache: Cache) -> list:
    """Every set in creation order, with its lines in LRU order."""
    return [(index, list(ways.items())) for index, ways in cache._sets.items()]


def _both(l3_factory, base, footprint_bytes, dirty_fraction, seed):
    warmed = CacheHierarchy(l3=l3_factory())
    warmed.warm_l3(base, footprint_bytes, dirty_fraction, seed=seed)
    swept = CacheHierarchy(l3=l3_factory())
    _sweep_warm_l3(swept, base, footprint_bytes, dirty_fraction, seed=seed)
    return warmed.l3, swept.l3


@st.composite
def warm_cases(draw):
    sets = draw(st.integers(1, 64))
    ways = draw(st.integers(1, 8))
    line = draw(st.sampled_from((16, 64)))
    capacity = sets * ways * line
    footprint = draw(st.one_of(
        st.just(0),
        st.integers(1, capacity - 1),
        st.integers(capacity, 2 * capacity),
        st.integers(2 * capacity + 1, 16 * capacity),
    ))
    base = draw(st.integers(0, 1 << 40))  # mostly not line-aligned
    dirty_fraction = draw(st.one_of(
        st.sampled_from((0.0, 1.0)),
        st.floats(0.0, 1.0, allow_nan=False),
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    return sets, ways, line, footprint, base, dirty_fraction, seed


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=warm_cases())
def test_warm_l3_matches_fill_sweep(case):
    sets, ways, line, footprint, base, dirty_fraction, seed = case
    warmed, swept = _both(
        lambda: Cache("L3", sets * ways * line, ways=ways, line_bytes=line),
        base, footprint, dirty_fraction, seed,
    )
    assert _state(warmed) == _state(swept)


@pytest.mark.parametrize("name", ("519.lbm_r", "505.mcf_r", "541.leela_r"))
def test_warm_l3_matches_fill_sweep_full_size(name):
    """The real 8 MB/16-way L3 at a Figure 6/7 workload's footprint."""
    profile = profile_by_name(name)
    warmed, swept = _both(
        lambda: CacheHierarchy().l3,
        TraceGenerator.BASE_ADDRESS + TraceGenerator.HOT_REGION_BYTES,
        profile.working_set_kb * 1024,
        profile.write_fraction,
        2022,
    )
    assert _state(warmed) == _state(swept)


def test_warm_l3_refuses_a_non_empty_l3():
    hierarchy = CacheHierarchy()
    hierarchy.access(4096, write=True)  # fills every level, L3 included
    with pytest.raises(ValueError, match="warms an empty L3"):
        hierarchy.warm_l3(0, 1 << 20, dirty_fraction=0.5, seed=1)
