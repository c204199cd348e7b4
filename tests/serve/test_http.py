"""ServeHttpServer: routes, status codes and payload shapes over TCP."""

import asyncio
import json
import socket
import time
from http.client import HTTPConnection

from repro import baseline_config
from repro.harness import run_sim

from tests.serve.conftest import ServerThread

SMALL = {"app": "mm", "policy": "on_touch", "footprint_mb": 4.0}


def raw(port, method, path, body=None):
    conn = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        data = None
        headers = {}
        if body is not None:
            data = body if isinstance(body, bytes) else json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        out_headers = {k.lower(): v for k, v in response.getheaders()}
    finally:
        conn.close()
    return response.status, out_headers, payload


def test_healthz(server):
    status, headers, body = raw(server.port, "GET", "/healthz")
    assert status == 200
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert payload["queue_depth"] == 0


def test_metrics_is_prometheus_text(server):
    raw(server.port, "POST", "/submit", SMALL)
    status, headers, body = raw(server.port, "GET", "/metrics")
    assert status == 200
    assert headers["content-type"].startswith("text/plain")
    text = body.decode()
    assert "repro_serve_submitted_total 1" in text
    assert "repro_serve_completed_total 1" in text
    assert "repro_sim_fault_page_total" in text


def test_submit_waits_and_returns_result(server):
    status, _headers, body = raw(server.port, "POST", "/submit", SMALL)
    assert status == 200
    payload = json.loads(body)
    assert payload["job"]["status"] == "done"
    direct = run_sim(baseline_config(), "mm", "on_touch", footprint_mb=4.0)
    assert payload["result"] == direct.to_dict()


def test_submit_nowait_then_poll(server):
    status, _headers, body = raw(
        server.port, "POST", "/submit", dict(SMALL, wait=False)
    )
    assert status == 202
    job = json.loads(body)["job"]
    assert job["status"] in ("queued", "running")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, _headers, body = raw(server.port, "GET", f"/jobs/{job['id']}")
        assert status == 200
        payload = json.loads(body)
        if payload["job"]["status"] == "done":
            break
        time.sleep(0.05)
    else:
        raise AssertionError("job never completed")
    assert "result" in payload
    assert payload["result"]["total_time_ns"] > 0


def test_backpressure_maps_to_429(full_server):
    status, headers, body = raw(full_server.port, "POST", "/submit", SMALL)
    assert status == 429
    assert float(headers["retry-after"]) > 0
    assert "queue full" in json.loads(body)["error"]


def test_failed_run_maps_to_500_with_structured_failure(server):
    spec = dict(SMALL, policy_kwargs={"bogus_kwarg": 1})
    status, _headers, body = raw(server.port, "POST", "/submit", spec)
    assert status == 500
    payload = json.loads(body)
    assert payload["failure"]["error_type"] == "TypeError"
    assert payload["job"]["status"] == "failed"


def test_submit_accepts_a_tenant_mix(server):
    """A mix of registry apps is served like the harness runs it."""
    spec = {"app": "c2d+st", "policy": "oasis", "footprint_mb": 0.5}
    status, _headers, body = raw(server.port, "POST", "/submit", spec)
    assert status == 200, body
    direct = run_sim(baseline_config(), "c2d+st", "oasis", footprint_mb=0.5)
    assert json.loads(body)["result"] == direct.to_dict()


def test_bad_requests(server):
    status, _h, body = raw(server.port, "POST", "/submit",
                           {"app": "mm", "policy": "nope"})
    assert status == 400
    assert "unknown policy" in json.loads(body)["error"]

    status, _h, _b = raw(server.port, "POST", "/submit", b"{not json")
    assert status == 400

    status, _h, body = raw(server.port, "POST", "/submit",
                           {"app": "mm+nope", "policy": "oasis"})
    assert status == 400
    assert "unknown app" in json.loads(body)["error"]

    status, _h, _b = raw(server.port, "GET", "/jobs/job-999")
    assert status == 404

    status, _h, _b = raw(server.port, "GET", "/no/such/route")
    assert status == 404

    status, _h, _b = raw(server.port, "DELETE", "/healthz")
    assert status == 405


def test_stats_route_includes_metrics_snapshot(server):
    raw(server.port, "POST", "/submit", SMALL)
    status, _headers, body = raw(server.port, "GET", "/stats")
    assert status == 200
    payload = json.loads(body)
    assert payload["service"]["completed"] == 1
    assert payload["metrics"]["counters"]["serve.completed"] == 1
    assert payload["sim_counters"]["fault.page"] > 0


def test_task_failing_during_drain_is_reported_once(monkeypatch, capsys):
    """A listener that raises while shutdown tears it down is not lost."""
    import asyncio
    import os
    import signal

    from repro.serve import SimulationService
    from repro.serve.http import ServeHttpServer, run_server

    async def failing_serve_forever(self):
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            raise RuntimeError("listener broke on teardown") from None

    monkeypatch.setattr(ServeHttpServer, "serve_forever",
                        failing_serve_forever)
    before = signal.getsignal(signal.SIGTERM)

    async def terminate_once_armed():
        while signal.getsignal(signal.SIGTERM) == before:
            await asyncio.sleep(0.01)
        os.kill(os.getpid(), signal.SIGTERM)

    async def main():
        killer = asyncio.create_task(terminate_once_armed())
        await run_server(SimulationService(jobs=1), "127.0.0.1", 0,
                         drain_timeout_s=5.0)
        await killer

    asyncio.run(main())
    out = capsys.readouterr()
    assert "draining" in out.out
    assert out.err.count("serve listener failed during shutdown") == 1
    assert "RuntimeError: listener broke on teardown" in out.err


async def _pending_handlers():
    return [
        task for task in asyncio.all_tasks()
        if task.get_coro().__qualname__ == "ServeHttpServer._handle"
        and not task.done()
    ]


def test_stop_ends_a_half_sent_request():
    """A connection still sending its request when the server stops is
    cancelled and awaited by stop(), not left pending on the loop."""
    sut = ServerThread(jobs=1)
    sock = socket.create_connection(("127.0.0.1", sut.port), timeout=10)
    try:
        sock.sendall(b"GET /heal")
        deadline = time.monotonic() + 10.0
        while not sut.run(_pending_handlers()):
            assert time.monotonic() < deadline, "connection never accepted"
            time.sleep(0.01)
        sut.run(sut.server.stop())
        assert sut.run(_pending_handlers()) == []
    finally:
        sock.close()
        sut.loop.call_soon_threadsafe(sut.loop.stop)
        sut.thread.join(timeout=10.0)
        assert not sut.thread.is_alive()
        sut.loop.close()
