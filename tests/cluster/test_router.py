"""Router logic against protocol stubs: routing, shedding, failover,
single-flight, and journal stealing — no subprocesses, no simulations."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import baseline_config
from repro.chaos import ChaosPlan, ClusterChaos
from repro.chaos.plan import WorkerKill
from repro.harness.diskcache import cache_key
from repro.serve.client import ClientError, ServeClient, ServerBusy
from repro.serve.journal import JobJournal

from tests.cluster.conftest import RouterThread, StubWorker


@pytest.fixture
def sut(tmp_path):
    router = RouterThread(tmp_path)
    yield router
    router.close()


def _client(sut, timeout_s: float = 30.0) -> ServeClient:
    return ServeClient("127.0.0.1", sut.port, timeout_s=timeout_s)


def _spec(i: int) -> dict:
    return {"app": "mm", "policy": "on_touch", "footprint_mb": float(i + 1)}


def test_routing_affinity_matches_ring(sut, canned_result):
    stubs = {name: StubWorker(canned_result.to_dict())
             for name in ("w0", "w1")}
    try:
        for name, stub in stubs.items():
            sut.register(name, stub.url)
        client = _client(sut)
        expected: dict[str, int] = {"w0": 0, "w1": 0}
        for i in range(8):
            routed = client.post("/route", _spec(i))["worker"]
            expected[routed] += 1
            result = client.submit("mm", "on_touch",
                                   footprint_mb=float(i + 1))
            assert result.total_time_ns == canned_result.total_time_ns
        assert {name: stub.count() for name, stub in stubs.items()} \
            == expected
        assert expected["w0"] > 0 and expected["w1"] > 0
    finally:
        for stub in stubs.values():
            stub.close()


def test_route_accepts_a_tenant_mix_and_refuses_unknown_tenants(sut):
    client = _client(sut)
    spec = {"app": "c2d+st", "policy": "oasis", "footprint_mb": 0.5}
    assert client.post("/route", spec)["key"] == cache_key(
        baseline_config(), "c2d+st", "oasis", 0.5, 0, {}
    )
    with pytest.raises(ClientError) as refused:
        client.post("/route", {"app": "mm+nope", "policy": "oasis"})
    assert refused.value.status == 400


def test_repeat_submission_served_from_store_not_worker(sut, canned_result):
    stub = StubWorker(canned_result.to_dict())
    try:
        sut.register("w0", stub.url)
        client = _client(sut)
        client.submit("mm", "on_touch", footprint_mb=4.0)
        client.submit("mm", "on_touch", footprint_mb=4.0)
        assert stub.count() == 1
        assert client.health()["cache_hits"] == 1.0
    finally:
        stub.close()


def test_worker_busy_retry_after_preserved_end_to_end(sut, canned_result):
    """A worker 429's hint survives the router hop as a 503 hint."""
    stub = StubWorker(canned_result.to_dict(), mode="busy",
                      retry_after_s=7.5)
    try:
        sut.register("w0", stub.url)
        with pytest.raises(ServerBusy) as busy:
            _client(sut).submit("mm", "on_touch", footprint_mb=4.0)
        assert busy.value.status == 503
        assert busy.value.retry_after_s == 7.5
    finally:
        stub.close()


def test_router_single_flight_collapses_waiters(sut, canned_result):
    stub = StubWorker(canned_result.to_dict(), mode="slow")
    try:
        sut.register("w0", stub.url)
        results, errors = [], []

        def submit():
            try:
                results.append(_client(sut).submit(
                    "mm", "on_touch", footprint_mb=4.0
                ))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while sut.router.stats()["deduped"] < 7:
            assert time.monotonic() < deadline, "waiters never attached"
            time.sleep(0.01)
        stub.release.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(results) == 8
        assert stub.count() == 1
        assert {r.total_time_ns for r in results} \
            == {canned_result.total_time_ns}
    finally:
        stub.close()


def test_lane_shedding_spares_interactive(sut, canned_result):
    """With the forwarding window nearly full, bulk is shed (503 with a
    hint) while interactive still gets through."""
    stub = StubWorker(canned_result.to_dict(), mode="slow")
    occupiers: list[threading.Thread] = []
    try:
        sut.router.max_inflight = 4   # bulk window = 2, batch = 3
        sut.register("w0", stub.url)

        def occupy(i: int):
            _client(sut, timeout_s=60).submit(
                "mm", "on_touch", footprint_mb=float(10 + i), lane="bulk"
            )

        occupiers = [threading.Thread(target=occupy, args=(i,))
                     for i in range(2)]
        for t in occupiers:
            t.start()
        deadline = time.monotonic() + 10
        while sut.router.stats()["forwarding"] < 2:
            assert time.monotonic() < deadline, "occupiers never forwarded"
            time.sleep(0.01)

        with pytest.raises(ServerBusy) as shed:
            _client(sut).submit("mm", "on_touch", footprint_mb=99.0,
                                lane="bulk")
        assert shed.value.retry_after_s > 0

        done = threading.Event()

        def interactive():
            _client(sut, timeout_s=60).submit(
                "mm", "on_touch", footprint_mb=77.0, lane="interactive"
            )
            done.set()

        t = threading.Thread(target=interactive)
        t.start()
        stub.release.set()
        assert done.wait(timeout=30), "interactive was wrongly shed"
        t.join(timeout=10)
        stats = sut.router.stats()
        assert stats["shed"] == 1.0
    finally:
        stub.release.set()
        for t in occupiers:
            t.join(timeout=30)
        stub.close()


def test_dead_worker_failover_and_ring_removal(tmp_path, canned_result):
    """A forward into a dead worker fails over to the ring's next owner
    and removes the corpse from the ring.  The heartbeat is slowed to a
    crawl so only the forward path can discover the death."""
    sut = RouterThread(tmp_path, heartbeat_interval_s=60.0)
    live = StubWorker(canned_result.to_dict())
    dead = StubWorker(canned_result.to_dict())
    try:
        sut.register("alive", live.url)
        sut.register("corpse", dead.url)
        dead.close()  # connection refused from now on
        client = _client(sut)
        # Drive requests until one routes to the corpse.
        hit_corpse = False
        for i in range(32):
            routed = client.post("/route", _spec(i))["worker"]
            result = client.submit("mm", "on_touch",
                                   footprint_mb=float(i + 1))
            assert result.total_time_ns == canned_result.total_time_ns
            if routed == "corpse":
                hit_corpse = True
                break
        assert hit_corpse, "no key routed to the corpse in 32 tries"
        stats = sut.router.stats()
        assert stats["workers_died"] == 1.0
        assert not stats["workers"]["corpse"]["alive"]
        assert stats["ring"]["nodes"] == ["alive"]
    finally:
        live.close()
        sut.close()


class RawListener:
    """A TCP listener that answers every connection with fixed bytes."""

    def __init__(self, reply: bytes) -> None:
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.1)
        self._reply = reply
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"

    def _serve(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                continue
            with conn:
                conn.settimeout(1.0)
                try:
                    conn.recv(65536)
                    conn.sendall(self._reply)
                except OSError:
                    pass

    def close(self) -> None:
        self._closed.set()
        self._thread.join(timeout=5)
        self._sock.close()


@pytest.mark.parametrize("reply", [
    b"NOT-HTTP garbage\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe",
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n[]",
], ids=["not-http", "not-utf8", "not-an-object"])
def test_bad_health_reply_is_a_missed_heartbeat(tmp_path, reply):
    """A worker whose /healthz answers garbage is declared dead after
    ``heartbeat_miss_limit`` polls; the heartbeat keeps running and the
    router still stops cleanly."""
    listener = RawListener(reply)
    sut = RouterThread(tmp_path)
    try:
        sut.register("garbage", listener.url)
        deadline = time.monotonic() + 15
        while sut.router.stats()["workers"]["garbage"]["alive"]:
            assert time.monotonic() < deadline, "never declared dead"
            time.sleep(0.05)
        stats = sut.router.stats()
        assert stats["workers_died"] == 1.0
        assert stats["workers"]["garbage"]["misses"] == (
            sut.router.heartbeat_miss_limit
        )
        assert not sut.router._heartbeat.done()
        sut.run(sut.router.stop())
    finally:
        sut.close()
        listener.close()


def test_heartbeat_declares_dead_and_steals_journal(sut, tmp_path,
                                                    canned_result):
    """A worker that stops answering health checks loses its journaled
    live jobs to the rest of the cluster; terminal jobs are not stolen
    and the dead journal is compacted (ownership handoff)."""
    config = baseline_config()
    journal_dir = tmp_path / "journal-corpse"
    live_spec = {"app": "mm", "policy": "on_touch", "footprint_mb": 3.0,
                 "seed": 0, "policy_kwargs": {}, "config_kwargs": {}}
    live_key = cache_key(config, "mm", "on_touch", 3.0, 0, {})
    with JobJournal(journal_dir) as journal:
        journal.append("accepted", {
            "job_id": "job-1", "spec": live_spec, "key": live_key,
            "lane": "interactive",
        })
        journal.append("accepted", {
            "job_id": "job-2", "spec": dict(live_spec, footprint_mb=5.0),
            "key": cache_key(config, "mm", "on_touch", 5.0, 0, {}),
            "lane": "batch",
        })
        journal.append("done", {"job_id": "job-2"})

    survivor = StubWorker(canned_result.to_dict())
    dead = StubWorker(canned_result.to_dict())
    try:
        sut.register("survivor", survivor.url)
        sut.register("corpse", dead.url, str(journal_dir))
        dead.close()
        deadline = time.monotonic() + 15
        while sut.router.stats()["stolen"] < 1:
            assert time.monotonic() < deadline, "steal never happened"
            time.sleep(0.05)
        # Only the live job was re-homed, with its lane preserved.
        assert survivor.count() == 1
        forwarded = survivor.submissions[0]
        assert forwarded["footprint_mb"] == 3.0
        assert forwarded["lane"] == "interactive"
        assert forwarded["wait"] is False
        # Handoff: the dead journal no longer owns any live job.
        with JobJournal(journal_dir) as journal:
            assert journal.replay().live_jobs() == {}
    finally:
        survivor.close()
        dead.close()


def test_cluster_chaos_kills_routed_worker(sut, canned_result):
    """The ClusterChaos hook kills exactly the worker the op-indexed
    forward was routed to."""
    stub = StubWorker(canned_result.to_dict())
    killed: list[str] = []
    try:
        sut.register("w0", stub.url)
        plan = ChaosPlan(worker_kills=(WorkerKill(op=1),))
        with ClusterChaos(plan, killed.append) as chaos:
            client = _client(sut)
            client.submit("mm", "on_touch", footprint_mb=1.0)  # op 0
            client.submit("mm", "on_touch", footprint_mb=2.0)  # op 1: kill
            client.submit("mm", "on_touch", footprint_mb=3.0)  # op 2
            report = chaos.report()
        assert killed == ["w0"]
        assert report["forwards_seen"] == 3
        assert report["kills_fired"] == {"w0": 1}
    finally:
        stub.close()


def test_register_revives_and_rejoins_ring(sut, canned_result):
    stub = StubWorker(canned_result.to_dict())
    replacement = StubWorker(canned_result.to_dict())
    try:
        sut.register("w0", stub.url)
        stub.close()
        client = _client(sut)
        # Kill discovery via a failed forward; ring is now empty, so
        # admission control (503) applies rather than a hang.
        with pytest.raises(ServerBusy):
            client.submit("mm", "on_touch", footprint_mb=4.0)
        assert sut.router.stats()["ring"]["nodes"] == []
        sut.register("w0", replacement.url)
        assert client.submit(
            "mm", "on_touch", footprint_mb=6.0
        ).total_time_ns == canned_result.total_time_ns
        assert sut.router.stats()["workers"]["w0"]["alive"]
    finally:
        stub.close()
        replacement.close()
