"""Set-associative behavior under interleaved (multi-tenant) address
spaces, plus the per-level stats conservation laws."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_policy
from repro.config import LatencyModel, TLBConfig
from repro.sim.machine import Machine
from repro.tlb import SetAssociativeTLB, TLBHierarchy
from tests.conftest import make_trace, sweep_records
from repro.tenancy.mix import merge_traces


def make(entries=8, ways=2):
    return SetAssociativeTLB(TLBConfig(entries, ways))


class TestInterleavedAddressSpaces:
    """Two tenants whose windows are set-count aligned collide per set."""

    def test_window_aligned_pages_share_sets(self):
        tlb = make(entries=8, ways=2)  # 4 sets
        window = 64  # multiple of n_sets: page and page+window collide
        tlb.fill(3)
        tlb.fill(3 + window)
        victim = tlb.fill(3 + 2 * window)
        assert victim == 3  # LRU of the shared set, not another set

    def test_cross_tenant_conflict_evictions(self):
        tlb = make(entries=8, ways=2)
        window = 64
        # Two tenants fill the shared sets to capacity without evicting
        # each other; a third working set at the same offsets evicts the
        # LRU (tenant a) from every set.
        for page in range(4):
            tlb.fill(page)
        for page in range(4):
            assert tlb.fill(window + page) is None
        assert tlb.occupancy == 8
        for page in range(4):
            assert tlb.fill(2 * window + page) == page
        for page in range(4):
            assert not tlb.contains(page)
            assert tlb.contains(window + page)
            assert tlb.contains(2 * window + page)
        assert tlb.occupancy == 8

    def test_disjoint_sets_do_not_conflict(self):
        tlb = make(entries=8, ways=2)  # 4 sets
        for page in range(4):  # one page per set: no pressure anywhere
            assert tlb.fill(page) is None
        for page in range(4):
            assert tlb.contains(page)

    def test_interleaved_streams_deterministic(self):
        rng = np.random.default_rng(7)
        pages = [
            int(rng.integers(0, 16)) + (64 if rng.integers(0, 2) else 0)
            for _ in range(200)
        ]
        a, b = make(16, 4), make(16, 4)
        for page in pages:
            if not a.lookup(page):
                a.fill(page)
            if not b.lookup(page):
                b.fill(page)
        assert (a.hits, a.misses, a.lookups) == (b.hits, b.misses, b.lookups)
        assert a.cached_pages() == b.cached_pages()


class TestStatsConservation:
    def test_single_level_lookups_partition(self):
        tlb = make(16, 4)
        rng = np.random.default_rng(0)
        for _ in range(300):
            page = int(rng.integers(0, 48))
            if not tlb.lookup(page):
                tlb.fill(page)
        assert tlb.lookups == 300
        assert tlb.hits + tlb.misses == tlb.lookups

    @pytest.mark.parametrize("seed", range(3))
    def test_hierarchy_levels_conserve(self, seed):
        tlb = TLBHierarchy(TLBConfig(4, 2), TLBConfig(16, 4), LatencyModel())
        rng = np.random.default_rng(seed)
        for _ in range(400):
            page = int(rng.integers(0, 64)) + (
                128 if rng.integers(0, 2) else 0
            )
            tlb.translate_fast(page)
        assert tlb.l1.hits + tlb.l1.misses == tlb.l1.lookups
        assert tlb.l2.hits + tlb.l2.misses == tlb.l2.lookups
        assert tlb.l2.lookups == tlb.l1.misses
        assert tlb.l1.lookups == 400

    def test_translate_run_counts_like_translate_fast(self):
        rng = np.random.default_rng(1)
        pages = [int(rng.integers(0, 96)) for _ in range(500)]
        one = TLBHierarchy(TLBConfig(4, 2), TLBConfig(16, 4), LatencyModel())
        two = TLBHierarchy(TLBConfig(4, 2), TLBConfig(16, 4), LatencyModel())
        costs_fast = []
        walks_fast = []
        for pos, page in enumerate(pages):
            cost, walked = one.translate_fast(page)
            costs_fast.append(cost)
            if walked:
                walks_fast.append(pos)
        costs_run, walks_run = two.translate_run(pages)
        assert costs_run == costs_fast
        assert walks_run == walks_fast
        for mine, theirs in ((one.l1, two.l1), (one.l2, two.l2)):
            assert (mine.hits, mine.misses, mine.lookups) == (
                theirs.hits, theirs.misses, theirs.lookups
            )
            assert mine.hits + mine.misses == mine.lookups


class TestTenantAttribution:
    """Machine-level: TLB pressure lands on the right tenant."""

    def test_lookup_split_tracks_record_volume(self, config):
        heavy = make_trace(
            {"x": 8}, [sweep_records(range(4), "x", 8, False, 2)], burst=4
        )
        light = make_trace({"y": 4}, [[(0, "y", 0, False)]], burst=4)
        trace = merge_traces([heavy, light], ["heavy", "light"], burst=4)
        machine = Machine(config, trace, make_policy("on_touch"))
        machine.run()
        counters = machine.stats.as_dict()
        heavy_lookups = counters["tenant.heavy.tlb.lookups"]
        light_lookups = counters["tenant.light.tlb.lookups"]
        assert heavy_lookups >= heavy.total_records
        assert light_lookups >= light.total_records
        assert heavy_lookups > light_lookups
        probes = sum(h.l1.hits + h.l1.misses for h in machine.tlbs)
        assert heavy_lookups + light_lookups == probes
        for hierarchy in machine.tlbs:
            assert (
                hierarchy.l1.hits + hierarchy.l1.misses
                == hierarchy.l1.lookups
            )
            assert (
                hierarchy.l2.hits + hierarchy.l2.misses
                == hierarchy.l2.lookups
            )
            assert hierarchy.l2.lookups == hierarchy.l1.misses
