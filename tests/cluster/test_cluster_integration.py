"""End-to-end cluster tests: real router, real serve subprocesses.

One module-scoped 2-worker :class:`LocalCluster` backs every test; the
specs are chosen so no two tests share a cache key.  These are the
acceptance checks ISSUE 8 names: a 64-identical burst costs exactly one
simulation cluster-wide, served results are bit-identical to a direct
:func:`repro.harness.run_sim`, and a worker killed mid-burst loses zero
acknowledged jobs.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro import baseline_config
from repro.cluster import LocalCluster
from repro.harness import run_sim
from repro.harness.diskcache import DiskCache, cache_key
from repro.serve.client import ServeClient


def _result_files(cluster: LocalCluster) -> int:
    return len(list(cluster.cache_dir.glob("[0-9a-f][0-9a-f]/*.json")))


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    os.environ["REPRO_NO_FSYNC"] = "1"
    state_dir = tmp_path_factory.mktemp("cluster-state")
    with LocalCluster(workers=2, state_dir=state_dir) as running:
        yield running


def test_workers_registered_with_journals(cluster):
    stats = cluster.client().health()
    assert sorted(stats["workers"]) == ["w0", "w1"]
    for name, worker in stats["workers"].items():
        assert worker["alive"]
        assert worker["journal_dir"] == str(cluster.journal_root / name)
    assert sorted(stats["ring"]["nodes"]) == ["w0", "w1"]


def test_worker_healthz_exposes_wedge_fields(cluster):
    info = cluster.ready_info("w0")
    assert info is not None and info["name"] == "w0"
    port = int(info["url"].rsplit(":", 1)[1])
    worker = ServeClient("127.0.0.1", port, timeout_s=120.0)
    health = worker.health()
    assert health["worker"] == "w0"
    assert health["journal_segments"] >= 1
    assert health["oldest_unresolved_age_s"] is None  # idle worker
    # A resolved submission leaves the age field None and the journal
    # segment count visible for wedge detection.
    worker.submit("mm", "on_touch", footprint_mb=11.0)
    health = worker.health()
    assert health["journal_segments"] >= 1
    assert health["oldest_unresolved_age_s"] is None  # job resolved


def test_identical_burst_runs_exactly_one_simulation(cluster):
    """64 concurrent identical submissions -> one simulation, one shared
    result file, 64 bit-identical responses."""
    before = _result_files(cluster)
    results, errors = [], []
    lock = threading.Lock()

    def submit():
        try:
            result = cluster.client(timeout_s=120).submit(
                "mm", "on_touch", footprint_mb=4.0
            )
            with lock:
                results.append(result)
        except Exception as exc:  # noqa: BLE001 - collected for assert
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=submit) for _ in range(64)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    assert len(results) == 64
    assert len({json.dumps(r.to_dict(), sort_keys=True)
                for r in results}) == 1
    assert _result_files(cluster) - before == 1
    stats = cluster.client().health()
    # Exactly one forward reached a worker for this key; everyone else
    # was deduplicated at the router or served from the shared store.
    assert stats["deduped"] + stats["cache_hits"] >= 63


def test_served_result_is_bit_identical_to_direct_run(cluster):
    served = cluster.client(timeout_s=120).submit(
        "mm", "oasis", footprint_mb=4.0
    )
    direct = run_sim(baseline_config(), "mm", "oasis", footprint_mb=4.0)
    assert served.to_dict() == direct.to_dict()


def test_worker_kill_mid_burst_loses_no_acked_job(cluster):
    """Kill the owner of a batch of acknowledged nowait jobs: the
    journal steal must re-home every one; all results appear in the
    shared store."""
    client = cluster.client(timeout_s=120)
    config = baseline_config()
    footprints = [2.0, 3.0, 5.0, 6.0, 7.0, 9.0]
    routed = {
        fp: client.post("/route", {
            "app": "mm", "policy": "on_touch", "footprint_mb": fp,
        })["worker"]
        for fp in footprints
    }
    victims = {owner for owner in routed.values()}
    victim = sorted(victims)[0]
    keys = {
        fp: cache_key(config, "mm", "on_touch", fp, 0, {})
        for fp in footprints
    }
    for fp in footprints:
        job = client.submit_nowait("mm", "on_touch", footprint_mb=fp)
        assert job["status"] in ("queued", "running", "done")
    cluster.kill_worker(victim)

    store = DiskCache(cluster.cache_dir)
    deadline = time.monotonic() + 60
    missing = set(footprints)
    while missing and time.monotonic() < deadline:
        missing = {fp for fp in missing if store.load(keys[fp]) is None}
        time.sleep(0.1)
    assert not missing, (
        f"acked jobs lost after killing {victim}: footprints {missing}"
    )
    stats = cluster.client().health()
    assert stats["workers_died"] >= 1.0
    assert not stats["workers"][victim]["alive"]

    # Restore 2-worker capacity for anything running after this module.
    cluster.spawn_worker(victim)
    cluster.wait_ready(count=2, timeout_s=30)
    assert cluster.client().health()["workers"][victim]["alive"]
