"""The router's result Store: a bounded memory tier over the shared disk."""

from __future__ import annotations

import json

import pytest

from repro.harness.diskcache import DiskCache, Store


def _store(root, max_entries=256):
    return Store(DiskCache(root), max_entries=max_entries)


@pytest.fixture
def store(tmp_path):
    return _store(tmp_path / "shared", max_entries=4)


def test_round_trip_and_lru_hit(store, canned_result):
    assert store.get("k" * 64) is None
    assert store.stats()["misses"] == 1
    assert store.put("k" * 64, canned_result)
    loaded = store.get("k" * 64)
    assert loaded is not None
    assert loaded.to_dict() == canned_result.to_dict()
    # Write-through populated the memory tier, so the load never
    # touched disk.
    stats = store.stats()
    assert stats["hits"] == 1
    assert stats["disk_hits"] == 0


def test_cross_instance_shared_tier(tmp_path, canned_result):
    writer = _store(tmp_path / "shared")
    writer.put("a" * 64, canned_result)
    reader = _store(tmp_path / "shared")
    loaded = reader.get("a" * 64)
    assert loaded is not None
    assert loaded.to_dict() == canned_result.to_dict()
    stats = reader.stats()
    assert stats["disk_hits"] == 1 and stats["hits"] == 0
    # Promotion: the second read is a memory hit.
    reader.get("a" * 64)
    assert reader.stats()["hits"] == 1


def test_lru_eviction_is_bounded(store, canned_result):
    keys = [f"{i:02d}" + "e" * 62 for i in range(6)]
    for key in keys:
        store.put(key, canned_result)
    stats = store.stats()
    assert stats["entries"] == 4
    assert stats["evictions"] == 2
    # Evicted entries still load from the shared disk tier.
    assert store.get(keys[0]) is not None
    assert store.stats()["disk_hits"] == 1


def test_remember_is_lru_only(store, canned_result):
    store.put("b" * 64, canned_result, persist=False)
    assert store.get("b" * 64) is not None
    assert not store.disk.has("b" * 64)
    assert store.stats()["stores"] == 0


def test_contains_checks_both_tiers(tmp_path, canned_result):
    store = _store(tmp_path / "shared", max_entries=2)
    assert not store.has("c" * 64)
    store.put("c" * 64, canned_result, persist=False)
    assert store.has("c" * 64)          # memory only
    store.put("d" * 64, canned_result)
    fresh = _store(tmp_path / "shared")
    assert fresh.has("d" * 64)          # disk only


def test_corrupt_shared_entry_degrades_to_miss(store, canned_result):
    store.put("f" * 64, canned_result)
    path = store.disk._path("f" * 64)
    payload = json.loads(path.read_text())
    payload["result"]["total_time_ns"] = 123456789  # break the checksum
    path.write_text(json.dumps(payload))
    fresh = _store(store.disk.root, max_entries=4)
    assert fresh.get("f" * 64) is None
    assert fresh.stats()["misses"] == 1
    assert fresh.disk.stats()["disk_quarantined"] == 1
    assert (store.disk.root / "quarantine").exists()


def test_diskcache_has(tmp_path, canned_result):
    cache = DiskCache(tmp_path / "plain")
    assert not cache.has("a" * 64)
    cache.store("a" * 64, canned_result)
    assert cache.has("a" * 64)
