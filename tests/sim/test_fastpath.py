"""Fast-path replay determinism: bulk replay must be bit-identical.

The vectorized replayer (:mod:`repro.sim.fastpath`) promises that every
observable of a run — stats, traffic, clocks, TLB counters, per-phase
timings — is byte-for-byte what the per-record path produces.  These
tests hold it to that across every application and every registry
policy (for a policy that declares no replay lane, the pair checks that
its default replay is the per-record one), pin which policies declare
which lanes, and cover the supporting bulk primitives (``translate_run``,
the page-table numpy mirrors, the lexsort interleaver).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    POLICY_FACTORIES,
    OnTouchPolicy,
    baseline_config,
    get_workload,
    make_policy,
    simulate,
)
from repro.sim.fastpath import force_slow_path
from repro.sim.machine import Machine
from repro.tlb import TLBHierarchy
from repro.workloads import APPLICATION_ORDER
from repro.workloads.base import TraceBuilder

ALL_APPS = list(APPLICATION_ORDER)
#: Every registry policy's declared replay lanes; a dispatch change must
#: show up here as a named diff.
DECLARED_LANES = {
    "on_touch": {"steady", "migrate_on_fault"},
    "access_counter": set(),
    "duplication": set(),
    "ideal": {"steady"},
    "grit": set(),
    "static_advise": set(),
    "oasis": set(),
    "oasis_inmem": set(),
}
LANE_POLICIES = [name for name, lanes in DECLARED_LANES.items() if lanes]

#: Small but fault-rich footprint; keeps 88 paired runs affordable.
FOOTPRINT_MB = 3.0


def run_pair(app: str, policy: str, monkeypatch, config=None):
    """One run on each path; returns (fast, slow) result dicts."""
    config = config or baseline_config()
    trace = get_workload(app, config, footprint_mb=FOOTPRINT_MB)
    monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
    fast = simulate(config, trace, make_policy(policy))
    monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
    slow = simulate(config, trace, make_policy(policy))
    return fast, slow


class TestForceSlowPath:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        assert not force_slow_path()
        monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
        assert force_slow_path()
        monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "0")
        assert not force_slow_path()

    def test_slow_path_disables_replayer(self, config, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy("on_touch"))
        assert machine._fast is None

    def test_capacity_manager_disables_replayer(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        config = baseline_config(oversubscription=1.5)
        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy("on_touch"))
        assert machine._fast is None


class TestDeclaredLanes:
    def test_registry_lanes_are_pinned(self):
        declared = {
            name: set(factory.fast_lanes)
            for name, factory in POLICY_FACTORIES.items()
        }
        assert declared == DECLARED_LANES

    @pytest.mark.parametrize(
        "policy", [p for p in DECLARED_LANES if p not in LANE_POLICIES]
    )
    def test_undeclared_policy_builds_no_replayer(
        self, policy, config, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy(policy))
        assert machine._fast is None

    def test_on_fault_override_drops_the_fault_lane(self, monkeypatch):
        class CountingOnTouch(OnTouchPolicy):
            def on_fault(self, gpu, page, is_write):
                self.stats.add("test.faults")
                return super().on_fault(gpu, page, is_write)

        assert CountingOnTouch.fast_lanes == {"steady"}
        config = baseline_config()
        trace = get_workload("bfs", config, footprint_mb=FOOTPRINT_MB)
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        machine = Machine(config, trace, CountingOnTouch())
        assert machine._fast is not None
        fast = machine.run()
        monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
        slow = simulate(config, trace, CountingOnTouch())
        assert fast.stats["test.faults"] == fast.stats["fault.page"]
        assert fast.to_dict() == slow.to_dict()


class TestDeterminism:
    @pytest.mark.parametrize("app", ALL_APPS)
    @pytest.mark.parametrize("policy", list(DECLARED_LANES))
    def test_fast_path_is_bit_identical(self, app, policy, monkeypatch):
        fast, slow = run_pair(app, policy, monkeypatch)
        assert fast.total_time_ns == slow.total_time_ns
        assert fast.stats == slow.stats
        assert fast.traffic == slow.traffic
        assert fast.policy_histogram == slow.policy_histogram
        assert fast.l2_miss_policy_counts == slow.l2_miss_policy_counts
        assert fast.to_dict() == slow.to_dict()

    def test_distributed_placement_identical(self, monkeypatch):
        config = baseline_config(initial_placement="distributed")
        fast, slow = run_pair("mm", "on_touch", monkeypatch, config=config)
        assert fast.to_dict() == slow.to_dict()


class TestTranslateRun:
    def test_matches_translate_fast(self, config):
        rng = np.random.default_rng(11)
        pages = rng.integers(0, 4000, size=3000).tolist()
        a = TLBHierarchy(config.l1_tlb, config.l2_tlb, config.latency)
        b = TLBHierarchy(config.l1_tlb, config.l2_tlb, config.latency)
        costs_run, walk_positions = a.translate_run(pages)
        costs_ref = []
        walk_ref = []
        for pos, page in enumerate(pages):
            cost, l2_miss = b.translate_fast(page)
            costs_ref.append(cost)
            if l2_miss:
                walk_ref.append(pos)
        assert costs_run == costs_ref
        assert walk_positions == walk_ref
        for lvl_a, lvl_b in ((a.l1, b.l1), (a.l2, b.l2)):
            assert lvl_a.hits == lvl_b.hits
            assert lvl_a.misses == lvl_b.misses
            assert lvl_a._sets == lvl_b._sets


class TestPageTableMirrors:
    def test_bulk_views_track_mutations(self, config):
        trace = get_workload("mm", config, footprint_mb=FOOTPRINT_MB)
        machine = Machine(config, trace, make_policy("on_touch"))
        machine.run()
        pt = machine.page_tables
        views = pt.bulk_views()
        base = trace.first_page
        rng = np.random.default_rng(5)
        for page in rng.integers(base, base + trace.n_pages, size=200).tolist():
            idx = page - base
            owner = pt.location(page)
            assert views["owner"][idx] == owner
            for gpu in range(config.n_gpus):
                bit = 1 << gpu
                assert bool(views["copies"][idx] & bit) == pt.has_copy(gpu, page)
                assert bool(views["mapped"][idx] & bit) == pt.is_mapped(gpu, page)
                assert bool(views["writable"][idx] & bit) == pt.is_writable(
                    gpu, page
                )


class TestInterleaver:
    def test_burst_round_robin_order(self):
        b = TraceBuilder("t", n_gpus=2, page_size=4096, burst=2)
        obj = b.alloc("A", 16 * 4096)
        b.begin_phase("p")
        for offset in range(4):
            b.emit(0, obj, offset, write=False)
        for offset in range(4):
            b.emit(1, obj, offset + 4, write=True)
        phase = b.end_phase()
        assert phase.gpu.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]
        assert phase.page.tolist() == [
            obj.first_page + off for off in (0, 1, 4, 5, 2, 3, 6, 7)
        ]
        assert phase.write.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_uneven_streams_drain_in_rounds(self):
        b = TraceBuilder("t", n_gpus=3, page_size=4096, burst=2)
        obj = b.alloc("A", 32 * 4096)
        b.begin_phase("p")
        b.emit_block(0, obj, np.arange(5), write=False)
        b.emit(2, obj, 10, write=True)
        phase = b.end_phase()
        # Round 0: gpu0's first burst, gpu2's only record; round 1 and 2
        # drain gpu0's remainder.
        assert phase.gpu.tolist() == [0, 0, 2, 0, 0, 0]

    def test_mixed_emit_and_emit_block_keep_stream_order(self):
        b = TraceBuilder("t", n_gpus=1, page_size=4096, burst=8)
        obj = b.alloc("A", 16 * 4096)
        b.begin_phase("p")
        b.emit(0, obj, 0, write=False, weight=3)
        b.emit_block(0, obj, np.array([1, 2]), write=True, weight=2)
        b.emit(0, obj, 3, write=False)
        phase = b.end_phase()
        assert phase.page.tolist() == [
            obj.first_page + off for off in (0, 1, 2, 3)
        ]
        assert phase.write.tolist() == [0, 1, 1, 0]
        assert phase.weight.tolist() == [3, 2, 2, 1]
