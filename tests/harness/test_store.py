"""Store: one suite over both record kinds (results and snapshot blobs)."""

from __future__ import annotations

import pickle

import pytest

from repro.harness.diskcache import DiskCache, Store
from repro.sim.results import SimulationResult


def _result(i: int) -> SimulationResult:
    return SimulationResult(
        workload=f"w{i}", policy="p", n_gpus=4, page_size=4096,
        total_time_ns=float(i), phases=[], stats={}, traffic={},
        policy_histogram={},
    )


@pytest.fixture(params=["result", "snapshot"])
def kind(request):
    return request.param


@pytest.fixture
def value(kind):
    """Distinct, equally sized values of the record kind."""
    if kind == "result":
        return _result
    return lambda i: bytes([i]) * 100


def _sizeof(value):
    """The memory tier's size of a value: a blob's length, else pickled."""
    if isinstance(value, bytes):
        return len(value)
    return len(pickle.dumps(value))


def _keys(n):
    return [f"{i:02d}" + "k" * 62 for i in range(n)]


def _same(kind, left, right):
    if kind == "result":
        return left.to_dict() == right.to_dict()
    return left == right


def test_count_bound_evicts_oldest_first(kind, value):
    store = Store(kind=kind, max_entries=2)
    keys = _keys(3)
    for i, key in enumerate(keys):
        store.put(key, value(i))
    assert [key in store for key in keys] == [False, True, True]
    stats = store.stats()
    assert stats["entries"] == 2 and stats["evictions"] == 1


def test_byte_bound_evicts_oldest_first(kind, value):
    size = _sizeof(value(0))
    store = Store(kind=kind, max_bytes=2 * size + size // 2)
    keys = _keys(3)
    for i, key in enumerate(keys):
        store.put(key, value(i))
    assert [key in store for key in keys] == [False, True, True]
    stats = store.stats()
    assert stats["bytes"] == 2 * size and stats["evictions"] == 1


def test_value_over_byte_bound_is_not_held(kind, value):
    store = Store(kind=kind, max_bytes=_sizeof(value(0)) - 1)
    store.put("a" * 64, value(0))
    assert "a" * 64 not in store
    assert store.stats()["entries"] == 0


def test_hit_refreshes_recency(kind, value):
    store = Store(kind=kind, max_entries=2)
    keys = _keys(3)
    store.put(keys[0], value(0))
    store.put(keys[1], value(1))
    assert _same(kind, store.get(keys[0]), value(0))  # refresh keys[0]
    store.put(keys[2], value(2))  # evicts keys[1]
    assert [key in store for key in keys] == [True, False, True]
    assert store.stats()["hits"] == 1


def test_disk_tier_round_trip_and_promotion(kind, value, tmp_path):
    Store(DiskCache(tmp_path), kind=kind).put("a" * 64, value(0))
    reader = Store(DiskCache(tmp_path), kind=kind)
    assert _same(kind, reader.get("a" * 64), value(0))
    assert "a" * 64 in reader  # promoted into memory
    stats = reader.stats()
    assert stats["disk_hits"] == 1 and stats["hits"] == 0


def test_corrupt_entry_is_one_miss_and_quarantined_once(
    kind, value, tmp_path
):
    Store(DiskCache(tmp_path), kind=kind).put("a" * 64, value(0))
    disk = DiskCache(tmp_path)
    disk._path("a" * 64, kind).write_text("{ not json")
    store = Store(disk, kind=kind)
    assert store.get("a" * 64) is None
    assert store.stats()["misses"] == 1
    assert disk.stats()["disk_quarantined"] == 1
    # The entry is gone from the live tree: a second probe is a plain
    # miss, not a second quarantine.
    assert store.get("a" * 64) is None
    assert store.stats()["misses"] == 2
    assert disk.stats()["disk_quarantined"] == 1
    assert len(list((tmp_path / "quarantine").iterdir())) == 1


def test_discarded_corrupt_entry_is_quarantined_once(kind, value, tmp_path):
    disk = DiskCache(tmp_path)
    store = Store(disk, kind=kind)
    store.put("a" * 64, value(0))
    store.discard("a" * 64, corrupt=True)
    assert "a" * 64 not in store and not store.has("a" * 64)
    assert store.stats()["corrupt"] == 1
    assert disk.stats()["disk_quarantined"] == 1
    assert store.get("a" * 64) is None


def test_failed_disk_write_keeps_value_in_memory(kind, value, tmp_path):
    class FullDisk(DiskCache):
        def _atomic_write(self, path, payload, category):
            raise OSError("no space left on device")

    store = Store(FullDisk(tmp_path), kind=kind)
    assert store.put("a" * 64, value(0)) is False
    stats = store.stats()
    assert stats["store_errors"] == 1 and stats["stores"] == 0
    assert _same(kind, store.get("a" * 64), value(0))
    assert store.stats()["hits"] == 1
    assert not list(tmp_path.rglob("*.json"))


def test_clear_drops_memory_and_counters(kind, value):
    store = Store(kind=kind, max_entries=4)
    store.put("a" * 64, value(0))
    store.get("a" * 64)
    store.clear()
    stats = store.stats()
    assert stats["entries"] == 0 and stats["hits"] == 0
    assert store.get("a" * 64) is None


def test_rejects_bad_bounds_and_kinds():
    with pytest.raises(ValueError):
        Store(max_entries=0)
    with pytest.raises(ValueError):
        Store(max_bytes=0)
    with pytest.raises(ValueError):
        Store(kind="bogus")
