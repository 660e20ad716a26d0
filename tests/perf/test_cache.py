"""Cache and hierarchy unit tests."""

import pytest

from repro.perf.cache import Cache, CacheHierarchy


class TestCache:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache("bad", size_bytes=1000, ways=3)

    def test_miss_then_hit(self):
        cache = Cache("L1", 1024, ways=2)
        assert not cache.access(0, write=False)
        cache.fill(0, dirty=False)
        assert cache.access(0, write=False)
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1

    def test_lru_eviction_order(self):
        cache = Cache("L1", 2 * 64, ways=2, line_bytes=64)  # 1 set, 2 ways
        cache.fill(0, dirty=False)
        cache.fill(64, dirty=False)
        cache.access(0, write=False)  # 0 becomes MRU
        victim = cache.fill(128, dirty=False)  # evicts line 64 (clean)
        assert victim is None
        assert cache.access(0, write=False)
        assert not cache.access(64, write=False)

    def test_dirty_victim_address_returned(self):
        cache = Cache("L1", 2 * 64, ways=2, line_bytes=64)
        cache.fill(0, dirty=True)
        cache.fill(64, dirty=False)
        victim = cache.fill(128, dirty=False)
        assert victim == 0

    def test_write_sets_dirty(self):
        cache = Cache("L1", 2 * 64, ways=2, line_bytes=64)
        cache.fill(0, dirty=False)
        cache.access(0, write=True)
        cache.fill(64, dirty=False)
        victim = cache.fill(128, dirty=False)
        assert victim == 0

    def test_fill_merges_dirtiness_on_rehit(self):
        cache = Cache("L1", 1024, ways=2)
        cache.fill(0, dirty=True)
        assert cache.fill(0, dirty=False) is None
        assert cache.invalidate(0) is True  # still dirty

    def test_invalidate_missing_line(self):
        cache = Cache("L1", 1024, ways=2)
        assert cache.invalidate(0) is False

    def test_hit_rate(self):
        cache = Cache("L1", 1024, ways=2)
        cache.fill(0, dirty=False)
        cache.access(0, write=False)
        cache.access(64, write=False)
        assert cache.stats.hit_rate == 0.5


class TestHierarchy:
    def test_l1_hit_generates_no_dram_traffic(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(0, write=False)  # cold miss fills all levels
        event = hierarchy.access(0, write=False)
        assert event.served_level == 1
        assert not event.dram_read
        assert event.writebacks == ()

    def test_cold_miss_reads_dram(self):
        hierarchy = CacheHierarchy()
        event = hierarchy.access(4096, write=False)
        assert event.served_level == 4
        assert event.dram_read

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = CacheHierarchy()
        base = 1 << 20
        # Fill one L1 set (8 ways) plus one more line mapping to it.
        l1 = hierarchy.l1
        stride = l1.sets * l1.line_bytes
        for i in range(l1.ways + 1):
            hierarchy.access(base + i * stride, write=False)
        # The first line fell out of L1 but is still in L2.
        event = hierarchy.access(base, write=False)
        assert event.served_level == 2

    def test_dirty_lines_eventually_write_back(self):
        hierarchy = CacheHierarchy()
        # Shrink L3 for the test so capacity evictions happen quickly.
        hierarchy.l3 = type(hierarchy.l3)("L3", 64 * 1024, ways=4)
        writebacks = []
        for i in range(8192):
            event = hierarchy.access(i * 64, write=True)
            writebacks.extend(event.writebacks)
        assert writebacks, "dirty lines never reached DRAM"

    def test_warm_l3_fills_capacity(self):
        hierarchy = CacheHierarchy()
        hierarchy.warm_l3(0, 16 * 1024 * 1024, dirty_fraction=0.5, seed=1)
        filled = sum(len(ways) for ways in hierarchy.l3._sets.values())
        capacity = hierarchy.l3.sets * hierarchy.l3.ways
        assert filled == capacity

    def test_warm_l3_respects_dirty_fraction(self):
        hierarchy = CacheHierarchy()
        hierarchy.warm_l3(0, 8 * 1024 * 1024, dirty_fraction=1.0, seed=1)
        # Touching new lines must produce dirty writebacks immediately.
        event = hierarchy.access(1 << 31, write=False)
        assert event.served_level == 4
        assert event.writebacks

    def test_warm_l3_clean_footprint_writes_nothing_back(self):
        hierarchy = CacheHierarchy()
        hierarchy.warm_l3(0, 8 * 1024 * 1024, dirty_fraction=0.0, seed=1)
        # The same access evicts a clean line: nothing reaches DRAM.
        event = hierarchy.access(1 << 31, write=False)
        assert event.served_level == 4
        assert event.writebacks == ()
