"""TLB hierarchy tests."""

import pytest

from repro.config import LatencyModel, TLBConfig
from repro.tlb import TLBHierarchy


@pytest.fixture
def tlb():
    return TLBHierarchy(TLBConfig(4, 2), TLBConfig(16, 4), LatencyModel())


LAT = LatencyModel()
#: Lookup cost of a translation found in L1, in L2, or by a page walk.
L1_NS = LAT.l1_tlb_hit_ns
L2_NS = LAT.l1_tlb_hit_ns + LAT.l2_tlb_ns
WALK_NS = LAT.l1_tlb_hit_ns + LAT.l2_tlb_ns + LAT.walk_ns


class TestHierarchy:
    def test_cold_access_walks(self, tlb):
        cost, walked = tlb.translate_fast(7)
        assert walked
        assert cost == pytest.approx(WALK_NS)

    def test_second_access_hits_l1(self, tlb):
        tlb.translate_fast(7)
        cost, walked = tlb.translate_fast(7)
        assert cost == L1_NS
        assert not walked
        assert tlb.l1.hits == 1

    def test_l1_eviction_falls_back_to_l2(self, tlb):
        # Fill set 0 of the 2-way L1 beyond capacity; L2 (4-way sets)
        # still holds the evicted translation.
        tlb.translate_fast(0)
        tlb.translate_fast(2)
        tlb.translate_fast(4)  # evicts 0 from L1 set 0
        cost, walked = tlb.translate_fast(0)
        assert not walked
        assert cost == pytest.approx(L2_NS)
        assert tlb.l2.hits == 1

    def test_l2_hit_refills_l1(self, tlb):
        tlb.translate_fast(0)
        tlb.translate_fast(2)
        tlb.translate_fast(4)
        tlb.translate_fast(0)  # L2 hit, refills L1
        assert tlb.translate_fast(0) == (L1_NS, False)

    def test_shootdown_clears_both_levels(self, tlb):
        tlb.translate_fast(9)
        assert tlb.shootdown(9)
        cost, walked = tlb.translate_fast(9)
        assert walked
        assert cost == pytest.approx(WALK_NS)

    def test_shootdown_absent_returns_false(self, tlb):
        assert not tlb.shootdown(99)

    def test_flush(self, tlb):
        tlb.translate_fast(1)
        tlb.flush()
        assert tlb.translate_fast(1)[1]

    def test_l2_miss_counter(self, tlb):
        tlb.translate_fast(1)
        tlb.translate_fast(1)
        tlb.translate_fast(2)
        assert tlb.l2_misses == 2
