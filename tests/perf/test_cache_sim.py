"""Tests for the set-associative cache simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import PARAGON, T3D
from repro.perf.cache_sim import CacheSim, CacheStats, loop_time, miss_time


class TestBasics:
    def test_cold_miss_then_hit(self):
        sim = CacheSim(size=256, line=32, assoc=2)
        assert sim.access(0) is False  # cold miss
        assert sim.access(8) is True   # same line
        assert sim.access(40) is False  # next line

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheSim(100, 32, 2)  # size not multiple
        with pytest.raises(ValueError):
            CacheSim(0, 32, 2)

    def test_for_machine(self):
        sim = CacheSim.for_machine(PARAGON)
        assert sim.size == PARAGON.cache_size
        assert sim.assoc == PARAGON.cache_assoc

    def test_reset_clears(self):
        sim = CacheSim(128, 32, 1)
        sim.access(0)
        sim.reset()
        assert sim.access(0) is False


class TestLRU:
    def test_lru_eviction_order(self):
        # Direct-mapped-per-set with 2 ways: lines 0, N, 2N map to set 0.
        sim = CacheSim(size=128, line=32, assoc=2)  # 2 sets
        set_stride = 2 * 32  # lines 2 apart share a set
        a, b, c = 0, set_stride, 2 * set_stride
        sim.access(a)
        sim.access(b)
        sim.access(a)        # refresh a; b is now LRU
        sim.access(c)        # evicts b
        assert sim.access(a) is True
        assert sim.access(b) is False  # was evicted

    def test_direct_mapped_conflict(self):
        sim = CacheSim(size=64, line=32, assoc=1)  # 2 sets
        stats = sim.simulate(np.array([0, 64, 0, 64, 0, 64]))
        assert stats.misses == 6  # ping-pong, never hits

    def test_working_set_fits(self):
        """Repeated scan of an array smaller than the cache: only cold
        misses."""
        sim = CacheSim(size=1024, line=32, assoc=4)
        addresses = np.tile(np.arange(0, 512, 8), 5)
        stats = sim.simulate(addresses)
        assert stats.misses == 512 // 32

    def test_streaming_larger_than_cache(self):
        sim = CacheSim(size=256, line=32, assoc=2)
        addresses = np.arange(0, 8192, 8)
        stats = sim.simulate(addresses)
        assert stats.misses == 8192 // 32

    @given(
        addrs=st.lists(st.integers(0, 10_000), min_size=0, max_size=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_misses_bounded(self, addrs):
        sim = CacheSim(size=512, line=32, assoc=2)
        stats = sim.simulate(list(addrs))
        assert 0 <= stats.misses <= stats.accesses == len(addrs)

    @given(addrs=st.lists(st.integers(0, 4000), min_size=1, max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_bigger_cache_never_more_misses(self, addrs):
        """LRU caches have the inclusion property within a set layout that
        doubles associativity at fixed set count."""
        small = CacheSim(size=256, line=32, assoc=2)   # 4 sets
        large = CacheSim(size=512, line=32, assoc=4)   # 4 sets, more ways
        m_small = small.simulate(list(addrs)).misses
        m_large = large.simulate(list(addrs)).misses
        assert m_large <= m_small


class TestTiming:
    def test_stats_properties(self):
        s = CacheStats(accesses=10, misses=3)
        assert s.hits == 7
        assert s.misses / s.accesses == pytest.approx(0.3)

    def test_miss_time(self):
        s = CacheStats(accesses=10, misses=4)
        assert miss_time(s, PARAGON) == pytest.approx(
            4 * PARAGON.cache_miss_penalty
        )

    def test_loop_time_combines(self):
        s = CacheStats(accesses=10, misses=0)
        assert loop_time(s, 1e6, T3D) == pytest.approx(1e6 / T3D.flop_rate)
