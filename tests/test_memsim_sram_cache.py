"""Unit tests for the banked-SRAM geometry and the fully-associative cache."""

import numpy as np
import pytest

from repro.memsim import BankedSramConfig, FullyAssociativeCache


class TestBankedSramConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BankedSramConfig(num_banks=3)  # not a power of two
        with pytest.raises(ValueError):
            BankedSramConfig(size_bytes=0)


class TestCache:
    def test_hit_after_fill(self):
        c = FullyAssociativeCache(capacity_bytes=1024, line_bytes=64)
        assert not c.access(0)
        assert c.access(0)
        assert c.access(63)  # same line
        assert not c.access(64)  # next line

    def test_lru_eviction(self):
        c = FullyAssociativeCache(capacity_bytes=128, line_bytes=64)  # 2 lines
        c.access(0)
        c.access(64)
        c.access(128)  # evicts line 0
        assert not c.access(0)

    def test_lru_recency_update(self):
        c = FullyAssociativeCache(capacity_bytes=128, line_bytes=64)
        c.access(0)
        c.access(64)
        c.access(0)  # refresh line 0
        c.access(128)  # should evict line 1 (64), not line 0
        assert c.access(0)

    def test_miss_rate_and_traffic(self):
        c = FullyAssociativeCache(capacity_bytes=1024, line_bytes=64)
        c.access_trace(np.arange(0, 64 * 10, 64))
        assert c.stats.misses == 10
        assert c.stats.miss_rate == 1.0
        assert c.dram_bytes_fetched == 640

    def test_reset(self):
        c = FullyAssociativeCache(capacity_bytes=1024)
        c.access(0)
        c.reset()
        assert c.stats.accesses == 0
        assert not c.access(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FullyAssociativeCache(capacity_bytes=32, line_bytes=64)
        with pytest.raises(ValueError):
            FullyAssociativeCache(capacity_bytes=0)
