"""Dependency-free HTTP front end for :class:`SimulationService`.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — the
container ships no aiohttp/uvicorn, and the service needs only six
routes:

* ``GET /healthz`` — liveness + headline counters (JSON).
* ``GET /metrics`` — Prometheus text: service metrics under
  ``repro_serve_*`` plus accumulated simulation counters under
  ``repro_sim_*`` (via :func:`repro.obs.export.prometheus_multi`).
* ``GET /stats`` — the full JSON stats payload.
* ``POST /submit`` — body: a job spec (``app``, ``policy``, optional
  ``footprint_mb``/``seed``/``policy_kwargs``/``config_kwargs``) plus
  transport fields ``lane``, ``deadline_s`` and ``wait``.  With
  ``wait`` (the default) the response carries the finished result;
  with ``wait: false`` it is a ``202`` with the job id to poll.
  Admission-control rejections map to ``429`` with ``Retry-After``.
* ``GET /jobs/<id>`` — job status (and the result once done).
* ``GET /events`` — newline-delimited JSON stream of lifecycle events
  until the client disconnects.

Every response closes its connection (``Connection: close``): the
clients here are sweep drivers and scrapers, not latency-critical
browsers, and one connection per request keeps the server honest about
cleanup.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path

from repro.serve.service import (
    AdmissionError,
    JobFailed,
    SimulationService,
    await_shutdown,
)

#: Largest accepted request body (a job spec is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


def _response_bytes(status: int, body: bytes, content_type: str,
                    headers: dict | None = None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _json_response(status: int, payload: dict,
                   headers: dict | None = None) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return _response_bytes(status, body, "application/json", headers)


class ServeHttpServer:
    """Bind a :class:`SimulationService` to a TCP port."""

    def __init__(self, service: SimulationService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: One task per open connection, so :meth:`stop` can end them.
        self._handlers: set[asyncio.Task] = set()

    async def start(self) -> None:
        """Start the service (if needed) and begin accepting requests."""
        if not self.service.running:
            await self.service.start()
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        # Resolve port 0 to the kernel-assigned ephemeral port.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, cancel and await every open connection's
        handler, then stop the service."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        handlers = list(self._handlers)
        for task in handlers:
            task.cancel()
        for task in handlers:
            await await_shutdown(task, "connection handler")
        if server is not None:
            await server.wait_closed()
        await self.service.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- request handling --------------------------------------------------

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        task = asyncio.get_running_loop().create_task(
            self._handle(reader, writer)
        )
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
                await self._route(method, path, body, writer)
            except HttpError as err:
                writer.write(_json_response(
                    err.status, {"error": str(err)}, err.headers
                ))
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            except Exception as exc:  # noqa: BLE001 - one bad request
                # must never take the server down with it.
                writer.write(_json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                ))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            # RuntimeError: the hosting loop may already be closed.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if length:
            body = await reader.readexactly(length)
        return method, path, body

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            writer.write(_json_response(200, self.service.stats()))
        elif path == "/metrics" and method == "GET":
            writer.write(_response_bytes(
                200, self.service.prometheus().encode(),
                "text/plain; version=0.0.4",
            ))
        elif path == "/stats" and method == "GET":
            writer.write(_json_response(200, {
                "service": self.service.stats(),
                "metrics": self.service.snapshot().to_dict(),
                "sim_counters": self.service.sim_snapshot().counters,
            }))
        elif path == "/submit" and method == "POST":
            await self._submit(body, writer)
        elif path.startswith("/jobs/") and method == "GET":
            self._job_status(path[len("/jobs/"):], writer)
        elif path == "/events" and method == "GET":
            await self._stream_events(writer)
        elif path in ("/healthz", "/metrics", "/stats", "/submit", "/events"):
            raise HttpError(405, f"{method} not allowed on {path}")
        else:
            raise HttpError(404, f"no route for {path}")

    async def _submit(self, body: bytes,
                      writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        lane = payload.pop("lane", "batch")
        wait = bool(payload.pop("wait", True))
        deadline_s = payload.pop("deadline_s", None)
        if deadline_s is not None:
            deadline_s = float(deadline_s)
        try:
            job = await self.service.submit(
                payload, lane=lane, deadline_s=deadline_s
            )
        except AdmissionError as busy:
            raise HttpError(429, str(busy), headers={
                "Retry-After": f"{busy.retry_after_s:g}"
            }) from None
        except ValueError as bad:
            raise HttpError(400, str(bad)) from None
        if not wait:
            writer.write(_json_response(202, {"job": job.describe()}))
            return
        try:
            result = await job.wait()
        except JobFailed as failed:
            writer.write(_json_response(504 if failed.failure.get(
                "error_type") == "DeadlineExceeded" else 500, {
                "job": job.describe(),
                "failure": failed.failure,
            }))
            return
        writer.write(_json_response(200, {
            "job": job.describe(),
            "result": result.to_dict(),
        }))

    def _job_status(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        job = self.service.job(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        payload = {"job": job.describe()}
        if job.status == "done":
            payload["result"] = job.future.result().to_dict()
        writer.write(_json_response(200, payload))

    async def _stream_events(self, writer: asyncio.StreamWriter) -> None:
        queue = self.service.subscribe()
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Cache-Control: no-store\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            while True:
                event = await queue.get()
                writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            self.service.unsubscribe(queue)


def _register_with_router(register_url: str, name: str, url: str,
                          journal_dir: str | None,
                          attempts: int = 60) -> bool:
    """Announce this worker to a cluster router, retrying while the
    router is still coming up.  Runs in a daemon thread so a dead
    router can never wedge worker startup."""
    from urllib.parse import urlparse

    from repro.serve.client import ClientError, ServeClient

    parsed = urlparse(register_url)
    client = ServeClient(parsed.hostname or "127.0.0.1",
                         parsed.port or 80, timeout_s=5.0)
    for attempt in range(attempts):
        try:
            client.post("/register", {
                "name": name, "url": url, "journal_dir": journal_dir,
            })
            return True
        except ClientError:
            return False  # the router answered and refused: do not spin
        except OSError:
            time.sleep(min(0.05 * (attempt + 1), 1.0))
    return False


async def run_server(service: SimulationService, host: str,
                     port: int, *,
                     drain_timeout_s: float | None = None,
                     ready_file: str | None = None,
                     register_url: str | None = None,
                     worker_name: str | None = None) -> None:
    """Blocking entry point used by ``repro-oasis serve``.

    ``SIGTERM``/``SIGINT`` trigger a graceful drain: the service
    refuses new work, finishes what is queued (up to
    ``drain_timeout_s``), and only then shuts down — with a journal
    attached, anything still unfinished at the timeout stays live for
    the next incarnation to recover.

    Cluster-worker extras (used by ``repro-oasis cluster``):
    ``ready_file`` gets a JSON ``{"url", "pid", "name"}`` written once
    the listening port is known (the supervisor polls it), and
    ``register_url`` names a router whose ``POST /register`` this
    worker announces itself to — with its journal directory, so the
    router can steal live jobs if this worker dies.
    """
    import os

    server = ServeHttpServer(service, host=host, port=port)
    await server.start()
    url = f"http://{server.host}:{server.port}"
    print(f"repro-oasis serve: listening on {url}"
          f" (jobs={service.jobs}, max_pending={service.max_pending})")
    name = worker_name or service.name or f"worker-{os.getpid()}"
    journal_dir = (
        str(service.journal.root) if service.journal is not None else None
    )
    if ready_file:
        Path(ready_file).write_text(json.dumps({
            "url": url, "pid": os.getpid(), "name": name,
        }))
    register_thread = None
    if register_url:
        register_thread = threading.Thread(
            target=_register_with_router,
            args=(register_url, name, url, journal_dir),
            name=f"repro-register-{name}", daemon=True,
        )
        register_thread.start()

    async def drain() -> None:
        print("repro-oasis serve: draining "
              f"({service.stats()['queue_depth']} queued) ...")
        drained = await service.drain(drain_timeout_s)
        print(
            "repro-oasis serve: drained; shutting down" if drained
            else "repro-oasis serve: drain timed out; unfinished "
                 "jobs stay journaled for the next start"
        )

    await serve_until_signalled(server, "serve", on_signal=drain)


async def serve_until_signalled(server, name: str, *, on_signal=None) -> None:
    """Run ``server.serve_forever()`` until SIGTERM/SIGINT, then stop it.

    ``on_signal`` (an async callable) runs first when a signal, not a
    listener failure, ended the wait: the serve CLI drains its service
    there.  The listener and signal-wait tasks are torn down through
    :func:`~repro.serve.service.await_shutdown`, so a failure in either
    is reported under ``name`` instead of lost.
    """
    import signal

    loop = asyncio.get_running_loop()
    shutdown = asyncio.Event()
    installed: list = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, shutdown.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal support
    serve_task = asyncio.create_task(server.serve_forever())
    stop_task = asyncio.create_task(shutdown.wait())
    try:
        done, _ = await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if stop_task in done and on_signal is not None:
            await on_signal()
    except asyncio.CancelledError:
        pass
    finally:
        for task, what in ((serve_task, f"{name} listener"),
                           (stop_task, f"{name} signal wait")):
            task.cancel()
            await await_shutdown(task, what)
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.stop()
