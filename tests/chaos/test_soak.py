"""Bounded kill-restart-recover soak: the tentpole acceptance test.

Three cycles against one shared journal + disk cache, each cycle a
seeded chaos plan, a mid-queue crash and a chaos-free recovery.  The
assertions are the two soak invariants: no acked job is ever lost, and
every served result is bit-identical to the pinned golden entry.

``mm`` only (the cheapest workload) keeps the whole soak well inside
the CI budget; ``repro-oasis chaos`` runs the heavier default burst.
"""

import pytest

from repro.chaos import run_soak
from repro.harness import cache_stats, clear_cache, run_sim
from repro.harness.diskcache import cache_key
from repro.harness.runner import result_store


@pytest.fixture(autouse=True)
def fast_io(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FSYNC", "1")
    monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0")


def test_soak_three_cycles_no_loss_bit_identical(tmp_path):
    report = run_soak(
        tmp_path / "journal",
        tmp_path / "cache",
        cycles=3,
        seed=0,
        apps=("mm",),
        policies=("oasis", "on_touch"),
    )
    assert report["lost"] == []
    assert report["mismatched"] == []
    assert report["unrecovered_failures"] == []
    assert report["ok"] is True
    assert report["acked"] + report["refused"] == 6
    assert len(report["per_cycle"]) == 3
    # The soak is only meaningful if chaos actually happened: across the
    # three seeded plans at least one infrastructure fault must fire.
    fired = sum(
        sum(cycle["chaos"]["events_fired"].values())
        for cycle in report["per_cycle"]
    )
    assert fired > 0
    # Later cycles recover earlier cycles' results straight from the
    # disk cache — the journal + cache survive every crash.
    recoveries = [c["recovery"] for c in report["per_cycle"]]
    assert any(r.get("recovered_cached", 0) > 0 for r in recoveries)


def test_soak_leaves_the_default_runner_untouched(tmp_path, config):
    """The soak runs on its own runners: the process-default runner's
    in-memory results and counters survive it unchanged."""
    clear_cache()
    try:
        run_sim(config, "mm", "on_touch", footprint_mb=4.0)
        before = cache_stats()
        run_soak(tmp_path / "journal", tmp_path / "cache", cycles=1,
                 seed=0, apps=("mm",), policies=("on_touch",))
        assert cache_stats() == before
        assert cache_key(config, "mm", "on_touch", 4.0, 0, {}) in (
            result_store()
        )
    finally:
        clear_cache()


def test_soak_rejects_bad_cycles(tmp_path):
    with pytest.raises(ValueError, match="cycles"):
        run_soak(tmp_path / "j", tmp_path / "c", cycles=0)
