"""Local cluster supervisor: one router, N worker subprocesses.

:class:`LocalCluster` is what ``repro-oasis cluster --workers N`` and
the cluster bench/tests run: it hosts a :class:`ClusterRouter` (with
its HTTP front end) on a background event loop in *this* process and
spawns each worker as a real ``repro-oasis serve`` subprocess.

Workers must be separate processes, not threads: the harness's
parallel runner keeps module-global caches and a module-global sweep
summary, so two services dispatching in one interpreter would race.
A subprocess per worker also makes worker death honest — the chaos
layer kills with ``SIGKILL`` and the journal-steal path recovers from
an actual dead process image, not a simulated one.

Layout under ``state_dir``::

    cache/                shared result tier (workers + router)
    journals/<name>/      per-worker write-ahead job journal
    ready-<name>.json     worker ready files ({"url", "pid", "name"})
    <name>.log            worker stdout/stderr

Workers find the router through ``--register``: each one announces its
name, URL and journal directory to ``POST /register`` once its port is
bound, so the supervisor only has to wait for the registry to fill.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro.cluster.router import ClusterRouter, RouterHttpServer
from repro.serve.client import ServeClient

#: Seconds to wait for all workers to register before giving up.
DEFAULT_READY_TIMEOUT_S = 30.0


class ClusterStartupError(RuntimeError):
    """The cluster did not reach its expected worker count in time."""


class LocalCluster:
    """Router in-process (background loop) + N serve subprocesses."""

    def __init__(
        self,
        workers: int = 2,
        *,
        state_dir: str | Path | None = None,
        host: str = "127.0.0.1",
        router_port: int = 0,
        jobs: int = 1,
        max_pending: int = 256,
        max_inflight: int = 128,
        heartbeat_interval_s: float = 0.25,
        heartbeat_miss_limit: int = 3,
        worker_args: tuple[str, ...] = (),
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.n_workers = workers
        self.host = host
        self.router_port = router_port
        self.jobs = jobs
        self.max_pending = max_pending
        self.worker_args = tuple(worker_args)
        self.state_dir = Path(
            state_dir if state_dir is not None
            else tempfile.mkdtemp(prefix="repro-cluster-")
        )
        self.cache_dir = self.state_dir / "cache"
        self.journal_root = self.state_dir / "journals"
        self.state_dir.mkdir(parents=True, exist_ok=True)

        self.router = ClusterRouter(
            store_dir=self.cache_dir,
            max_inflight=max_inflight,
            heartbeat_interval_s=heartbeat_interval_s,
            heartbeat_miss_limit=heartbeat_miss_limit,
        )
        self.http: RouterHttpServer | None = None
        self.url: str | None = None
        self.procs: dict[str, subprocess.Popen] = {}
        self._logs: list = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- router hosting ----------------------------------------------------

    def _call(self, coro, timeout_s: float = 30.0):
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop
        ).result(timeout_s)

    def start(self, *, ready_timeout_s: float = DEFAULT_READY_TIMEOUT_S,
              wait_ready: bool = True) -> "LocalCluster":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-cluster-router", daemon=True,
        )
        self._thread.start()
        self.http = RouterHttpServer(
            self.router, host=self.host, port=self.router_port
        )
        self._call(self.http.start())
        self.url = f"http://{self.http.host}:{self.http.port}"
        for index in range(self.n_workers):
            self.spawn_worker(f"w{index}")
        if wait_ready:
            self.wait_ready(timeout_s=ready_timeout_s)
        return self

    def client(self, timeout_s: float | None = 300.0) -> ServeClient:
        assert self.http is not None, "call start() first"
        return ServeClient(self.http.host, self.http.port,
                           timeout_s=timeout_s)

    # -- workers -----------------------------------------------------------

    def _worker_cmd(self, name: str) -> list[str]:
        return [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", self.host, "--port", "0",
            "--jobs", str(self.jobs),
            "--max-pending", str(self.max_pending),
            "--journal-dir", str(self.journal_root / name),
            "--cache-dir", str(self.cache_dir),
            "--ready-file", str(self.state_dir / f"ready-{name}.json"),
            "--register", str(self.url),
            "--worker-name", name,
            *self.worker_args,
        ]

    def spawn_worker(self, name: str) -> subprocess.Popen:
        """Start (or restart) one named worker subprocess."""
        assert self.url is not None, "call start() first"
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        log = open(self.state_dir / f"{name}.log", "a")
        self._logs.append(log)
        proc = subprocess.Popen(
            self._worker_cmd(name),
            stdout=log, stderr=subprocess.STDOUT, env=env,
            cwd=str(self.state_dir),
        )
        self.procs[name] = proc
        return proc

    def wait_ready(self, *, count: int | None = None,
                   timeout_s: float = DEFAULT_READY_TIMEOUT_S) -> None:
        """Block until ``count`` workers are registered and alive."""
        want = count if count is not None else self.n_workers
        client = self.client(timeout_s=5.0)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                registry = client._json("GET", "/workers")["workers"]
            except OSError:
                registry = {}
            alive = [w for w in registry.values() if w.get("alive")]
            if len(alive) >= want:
                return
            for name, proc in self.procs.items():
                if proc.poll() is not None and name not in registry:
                    raise ClusterStartupError(
                        f"worker {name} exited with {proc.returncode} "
                        f"before registering (see "
                        f"{self.state_dir / f'{name}.log'})"
                    )
            time.sleep(0.05)
        raise ClusterStartupError(
            f"only {len(self.alive_workers())}/{want} workers registered "
            f"within {timeout_s:.0f}s"
        )

    def alive_workers(self) -> list[str]:
        return [
            name for name, proc in self.procs.items()
            if proc.poll() is None
        ]

    def kill_worker(self, name: str, *,
                    sig: int = signal.SIGKILL) -> None:
        """Kill one worker the hard way (chaos worker-kill events)."""
        proc = self.procs.get(name)
        if proc is None or proc.poll() is not None:
            return
        try:
            proc.send_signal(sig)
        except OSError:
            return
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)

    def ready_info(self, name: str) -> dict | None:
        """The worker's ready file ({"url", "pid", "name"}), if written."""
        path = self.state_dir / f"ready-{name}.json"
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    # -- shutdown ----------------------------------------------------------

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + 10
        for proc in self.procs.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    pass
        if self.http is not None and self._loop is not None:
            try:
                self._call(self.http.stop(), timeout_s=10)
            except (concurrent.futures.TimeoutError, TimeoutError, OSError,
                    RuntimeError) as exc:
                # The HTTP front end failing to stop must not wedge the
                # supervisor teardown (the loop is torn down right
                # below either way), but the failure is observable:
                # counted on the router registry and left on its trace.
                self.router.metrics.inc("cluster.swallowed_errors")
                self.router._emit(
                    "cluster_swallowed_error", where="http_stop",
                    error=f"{type(exc).__name__}: {exc}",
                )
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10)
            self._loop.close()
            self._loop = None
            self._thread = None
        for log in self._logs:
            try:
                log.close()
            except OSError:
                pass
        self._logs.clear()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def run_cluster_forever(cluster: LocalCluster) -> int:
    """CLI body for ``repro-oasis cluster``: run until SIGTERM/SIGINT."""
    shutdown = threading.Event()

    def _signal(_signo, _frame) -> None:
        shutdown.set()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _signal)
        except (ValueError, OSError):
            pass
    try:
        cluster.start()
        print(f"repro-oasis cluster: router at {cluster.url} with "
              f"{cluster.n_workers} worker(s); state in {cluster.state_dir}")
        while not shutdown.is_set():
            shutdown.wait(0.5)
            for name, proc in list(cluster.procs.items()):
                if proc.poll() is not None:
                    # The router's heartbeat already stole its journal;
                    # restart the worker so capacity recovers too.
                    print(f"repro-oasis cluster: worker {name} exited "
                          f"({proc.returncode}); respawning")
                    cluster.spawn_worker(name)
        print("repro-oasis cluster: shutting down")
        return 0
    finally:
        cluster.stop()
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
