"""Thin synchronous client for a running ``repro-oasis serve`` instance.

Stdlib-only (``http.client``), one connection per call — the consumers
are sweep scripts, the ``repro-oasis submit`` subcommand and the load
generator, all of which want a blocking "submit and give me the result"
call, not an async framework.

    client = ServeClient("127.0.0.1", 8343)
    result = client.submit("st", "oasis", lane="interactive")
    print(result.total_time_ns)

``submit`` reconstructs a full :class:`~repro.sim.SimulationResult`
from the service's JSON payload, so downstream analysis code cannot
tell a served result from a local :func:`repro.harness.run_sim` call.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection
from typing import Iterator

from repro.sim import SimulationResult


class ClientError(RuntimeError):
    """Any non-success HTTP response."""

    def __init__(self, status: int, message: str,
                 payload: dict | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}


class ServerBusy(ClientError):
    """The service applied backpressure (HTTP 429 or 503).

    ``retry_after_s`` carries the server's ``Retry-After`` hint
    end-to-end — including when the response was forwarded through the
    cluster router — so callers can back off by exactly what the
    overloaded hop asked for instead of guessing.
    """

    def __init__(self, status: int, message: str, retry_after_s: float,
                 payload: dict | None = None) -> None:
        super().__init__(status, message, payload)
        self.retry_after_s = retry_after_s


def call_with_retry(fn, *, attempts: int = 4, max_sleep_s: float = 5.0,
                    sleep=time.sleep):
    """Call ``fn`` with bounded retries on :class:`ServerBusy`.

    Honors each rejection's ``retry_after_s`` hint (clamped to
    ``max_sleep_s``); after ``attempts`` total calls the last
    :class:`ServerBusy` propagates so the caller still sees the
    (preserved) hint.  Other exceptions propagate immediately — a
    failed *job* is not a reason to resubmit it.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    for attempt in range(attempts):
        try:
            return fn()
        except ServerBusy as busy:
            if attempt == attempts - 1:
                raise
            sleep(min(max(busy.retry_after_s, 0.0), max_sleep_s))
    raise AssertionError("unreachable")  # pragma: no cover


class JobFailedError(ClientError):
    """The job ran but failed; ``failure`` holds the structured fields."""

    def __init__(self, status: int, failure: dict,
                 payload: dict | None = None) -> None:
        super().__init__(
            status,
            f"{failure.get('error_type', 'Error')}: "
            f"{failure.get('message', '')}",
            payload,
        )
        self.failure = dict(failure)


class ServeClient:
    """Synchronous HTTP client for the simulation service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8343,
                 timeout_s: float | None = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> tuple[int, dict, bytes]:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            resp_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, resp_headers, data
        finally:
            conn.close()

    def _json(self, method: str, path: str,
              body: dict | None = None) -> dict:
        status, headers, data = self._request(method, path, body)
        try:
            payload = json.loads(data.decode() or "{}")
        except json.JSONDecodeError:
            payload = {"error": data.decode(errors="replace")}
        except UnicodeDecodeError:
            raise ClientError(status, "reply body is not UTF-8") from None
        if not isinstance(payload, dict):
            # Every serve and router reply is a JSON object.
            raise ClientError(status, "reply is not a JSON object")
        if status in (429, 503):
            # 429: the service's own admission control; 503: an
            # intermediary (e.g. the cluster router) shedding on a
            # worker's behalf.  Either way the Retry-After header is
            # the authoritative hint and must survive the hop.
            raise ServerBusy(
                status,
                payload.get("error", "server busy"),
                retry_after_s=float(headers.get("retry-after", 1.0)),
                payload=payload,
            )
        if "failure" in payload:
            raise JobFailedError(status, payload["failure"], payload)
        if status >= 400:
            raise ClientError(status, payload.get("error", "error"), payload)
        return payload

    # -- API ---------------------------------------------------------------

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def metrics_text(self) -> str:
        status, _headers, data = self._request("GET", "/metrics")
        if status != 200:
            raise ClientError(status, "metrics unavailable")
        return data.decode()

    def submit(
        self,
        app: str,
        policy: str,
        *,
        footprint_mb: float | None = None,
        seed: int = 0,
        policy_kwargs: dict | None = None,
        config_kwargs: dict | None = None,
        lane: str = "batch",
        deadline_s: float | None = None,
    ) -> SimulationResult:
        """Submit one run and block until its result arrives.

        Raises :class:`ServerBusy` under backpressure,
        :class:`JobFailedError` when the run itself failed, and
        :class:`ClientError` for malformed requests.
        """
        payload = self._json("POST", "/submit", {
            "app": app,
            "policy": policy,
            "footprint_mb": footprint_mb,
            "seed": seed,
            "policy_kwargs": policy_kwargs or {},
            "config_kwargs": config_kwargs or {},
            "lane": lane,
            "deadline_s": deadline_s,
            "wait": True,
        })
        return SimulationResult.from_dict(payload["result"])

    def post(self, path: str, payload: dict) -> dict:
        """POST an arbitrary JSON payload (router forwarding, /register)."""
        return self._json("POST", path, payload)

    def submit_with_retry(self, app: str, policy: str, *, attempts: int = 4,
                          max_sleep_s: float = 5.0, **kwargs
                          ) -> SimulationResult:
        """:meth:`submit`, retrying busy rejections via their
        ``Retry-After`` hints (see :func:`call_with_retry`)."""
        return call_with_retry(
            lambda: self.submit(app, policy, **kwargs),
            attempts=attempts, max_sleep_s=max_sleep_s,
        )

    def submit_nowait(self, app: str, policy: str, *,
                      footprint_mb: float | None = None, seed: int = 0,
                      policy_kwargs: dict | None = None,
                      config_kwargs: dict | None = None,
                      lane: str = "batch",
                      deadline_s: float | None = None) -> dict:
        """Fire-and-forget submission; returns the job description."""
        payload = self._json("POST", "/submit", {
            "app": app,
            "policy": policy,
            "footprint_mb": footprint_mb,
            "seed": seed,
            "policy_kwargs": policy_kwargs or {},
            "config_kwargs": config_kwargs or {},
            "lane": lane,
            "deadline_s": deadline_s,
            "wait": False,
        })
        return payload["job"]

    def job(self, job_id: str) -> dict:
        """Status (and, when done, the result dict) of one job."""
        return self._json("GET", f"/jobs/{job_id}")

    def events(self, limit: int | None = None) -> Iterator[dict]:
        """Stream lifecycle events as dicts until ``limit`` or EOF.

        Holds one connection open; use a thread when consuming while
        also submitting from the same process.
        """
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            conn.request("GET", "/events")
            response = conn.getresponse()
            if response.status != 200:
                raise ClientError(response.status, "event stream refused")
            seen = 0
            while limit is None or seen < limit:
                line = response.fp.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                yield json.loads(line.decode())
                seen += 1
        finally:
            conn.close()
