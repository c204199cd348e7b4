"""The cluster router: consistent-hash request placement over N workers.

One :class:`ClusterRouter` fronts a fleet of ``repro-oasis serve``
workers.  Its job is four invariants:

* **Affinity** — every request is keyed by
  :func:`repro.harness.diskcache.cache_key` and placed on the
  :class:`~repro.cluster.ring.HashRing`, so identical requests always
  reach the same worker and the PR-5 single-flight dedup stays
  effective cluster-wide.  The router additionally single-flights
  *waiting* submissions itself, so a 64-identical burst costs one
  forwarded HTTP call, not 64.
* **Shared results** — router and workers share one result cache
  directory.  Workers persist results through their normal harness
  store path; the router reads it through a
  :class:`~repro.harness.diskcache.Store` and serves repeats straight
  from it (memory tier first) without touching any worker.
* **Liveness** — a heartbeat task polls every worker's ``/healthz``.
  A worker that misses ``heartbeat_miss_limit`` consecutive polls — or
  answers while visibly wedged (its ``oldest_unresolved_age_s`` beyond
  the wedge threshold) — is declared dead, removed from the ring, and
  its journal is **stolen**: the router replays the dead worker's
  write-ahead journal, re-forwards every still-live job to the ring's
  new owners (the new owner journals it as its own accepted work), and
  compacts the dead journal down to whatever could not be re-homed.
  No acknowledged job is lost on worker death.
* **Backpressure** — cluster-level load shedding respects the priority
  lanes: ``interactive`` may use the full forwarding window, ``batch``
  and ``bulk`` progressively less, so bulk traffic can never starve
  interactive work cluster-wide.  Shedding surfaces as HTTP 503 with a
  ``Retry-After`` hint; a worker's own 429 propagates through with its
  hint preserved (see :func:`repro.serve.client.call_with_retry`).

Like :class:`~repro.serve.service.SimulationService`, all routing state
is loop-confined; only blocking HTTP calls to workers leave the loop
via threads.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from http.client import HTTPException
from urllib.parse import urlparse

from repro import baseline_config
from repro.config import SystemConfig
from repro.cluster.ring import DEFAULT_VNODES, EmptyRingError, HashRing
from repro.harness.diskcache import DiskCache, Store
from repro.obs import MetricsRegistry, MetricsSnapshot, RecordingTracer
from repro.obs.export import prometheus_multi
from repro.serve.client import (
    ClientError,
    JobFailedError,
    ServeClient,
    ServerBusy,
    call_with_retry,
)
from repro.serve.http import (
    HttpError,
    ServeHttpServer,
    _json_response,
    _response_bytes,
    serve_until_signalled,
)
from repro.serve.journal import JobJournal
from repro.serve.service import (
    DEFAULT_LANE,
    LANES,
    SERVE_LATENCY_BUCKETS_MS,
    AdmissionError,
    JobFailed,
    JobSpec,
    await_shutdown,
)

#: Fraction of the forwarding window each lane may occupy before the
#: router sheds it.  ``interactive`` is never shed below the hard cap;
#: ``bulk`` yields first.
LANE_SHED_FRACTIONS = {"interactive": 1.0, "batch": 0.85, "bulk": 0.6}

#: Default cap on concurrently forwarded waiting requests.
DEFAULT_MAX_INFLIGHT = 128

#: Results the router keeps in its store's memory tier.
STORE_ENTRIES = 256

#: Heartbeat cadence and tolerance.
DEFAULT_HEARTBEAT_INTERVAL_S = 0.5
DEFAULT_HEARTBEAT_MISS_LIMIT = 3

#: A worker whose oldest unresolved job is older than this while its
#: queue is non-empty is treated as wedged (health checks still answer,
#: but nothing completes).
DEFAULT_WEDGE_AGE_S = 600.0

#: Busy-retry attempts per forwarded request before the rejection (and
#: its Retry-After hint) propagates to the router's own client.
DEFAULT_BUSY_RETRIES = 3

#: Chaos-injection hook (see :mod:`repro.chaos.cluster`); None = inert.
_CHAOS = None


@dataclass
class Worker:
    """One registered serve process."""

    name: str
    url: str
    journal_dir: str | None = None
    alive: bool = True
    misses: int = 0
    forwarded: int = 0
    completed: int = 0
    failed: int = 0
    stolen_from: int = 0
    last_health: dict = field(default_factory=dict)

    def client(self, timeout_s: float | None = 300.0) -> ServeClient:
        parsed = urlparse(self.url)
        return ServeClient(parsed.hostname or "127.0.0.1",
                           parsed.port or 80, timeout_s=timeout_s)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "url": self.url,
            "alive": self.alive,
            "misses": self.misses,
            "forwarded": self.forwarded,
            "completed": self.completed,
            "failed": self.failed,
            "stolen_from": self.stolen_from,
            "journal_dir": self.journal_dir,
        }


class ClusterRouter:
    """Consistent-hash front end over registered serve workers."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        store_dir: str | None = None,
        vnodes: int = DEFAULT_VNODES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        heartbeat_miss_limit: int = DEFAULT_HEARTBEAT_MISS_LIMIT,
        wedge_age_s: float = DEFAULT_WEDGE_AGE_S,
        busy_retries: int = DEFAULT_BUSY_RETRIES,
        forward_timeout_s: float | None = 300.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if heartbeat_miss_limit < 1:
            raise ValueError("heartbeat_miss_limit must be >= 1")
        self.config = config if config is not None else baseline_config()
        self.store = Store(DiskCache(store_dir), max_entries=STORE_ENTRIES)
        self.ring = HashRing(vnodes=vnodes)
        self.max_inflight = max_inflight
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_miss_limit = heartbeat_miss_limit
        self.wedge_age_s = wedge_age_s
        self.busy_retries = busy_retries
        self.forward_timeout_s = forward_timeout_s

        self.workers: dict[str, Worker] = {}
        self.metrics = MetricsRegistry()
        self.tracer = RecordingTracer()
        self._route_latency = self.metrics.histogram(
            "cluster.route_ms", SERVE_LATENCY_BUCKETS_MS
        )
        #: key -> future shared by every waiting submission of that key.
        self._inflight: dict[str, asyncio.Future] = {}
        self._forwarding = 0
        self._heartbeat: asyncio.Task | None = None
        self._steals: set[asyncio.Task] = set()
        self._running = False
        self._started_mono: float | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._started_mono = time.monotonic()
        self._heartbeat = asyncio.create_task(
            self._heartbeat_loop(), name="repro-cluster-heartbeat"
        )

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            await await_shutdown(self._heartbeat, "cluster heartbeat")
            self._heartbeat = None
        for task in list(self._steals):
            try:
                await task
            except asyncio.CancelledError:
                pass
            except (ClientError, JobFailed, AdmissionError, EmptyRingError,
                    OSError, RuntimeError, ValueError) as exc:
                # A steal that dies during shutdown must not block the
                # stop, but it is a real cleanup failure: make it
                # observable instead of dropping it on the floor.
                self.metrics.inc("cluster.swallowed_errors")
                self._emit(
                    "cluster_swallowed_error", where="steal_wait",
                    error=f"{type(exc).__name__}: {exc}",
                )
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(JobFailed({
                    "error_type": "RouterStopped",
                    "message": "router shut down before the job resolved",
                }))
                future.exception()
        self._inflight.clear()

    def _now_ns(self) -> float:
        base = self._started_mono if self._started_mono is not None else 0.0
        return (time.monotonic() - base) * 1e9

    def _emit(self, kind: str, **args) -> None:
        self.tracer.instant("cluster", kind, self._now_ns(), args)

    # -- membership --------------------------------------------------------

    def register(self, name: str, url: str,
                 journal_dir: str | None = None) -> dict:
        """Add (or revive/update) one worker; returns its description.

        Registration is idempotent: a worker that restarts re-registers
        under the same name and simply rejoins the ring, which moves
        only its own arcs back.
        """
        if not name or not url:
            raise ValueError("register needs both 'name' and 'url'")
        worker = self.workers.get(name)
        if worker is None:
            worker = Worker(name=name, url=url, journal_dir=journal_dir)
            self.workers[name] = worker
        else:
            worker.url = url
            if journal_dir:
                worker.journal_dir = journal_dir
            worker.misses = 0
            worker.alive = True
        self.ring.add(name)
        self.metrics.inc("cluster.registered")
        self._emit("cluster_register", worker=name, url=url)
        self._publish_gauges()
        return worker.describe()

    def alive_workers(self) -> list[Worker]:
        return [w for w in self.workers.values() if w.alive]

    def _declare_dead(self, worker: Worker, reason: str) -> None:
        if not worker.alive:
            return
        worker.alive = False
        self.ring.remove(worker.name)
        self.metrics.inc("cluster.workers_died")
        self._emit("cluster_worker_dead", worker=worker.name, reason=reason)
        self._publish_gauges()
        if worker.journal_dir and self._running:
            task = asyncio.create_task(
                self._steal_from(worker),
                name=f"repro-cluster-steal-{worker.name}",
            )
            self._steals.add(task)
            task.add_done_callback(self._steals.discard)

    # -- heartbeat ---------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        while self._running:
            await asyncio.sleep(self.heartbeat_interval_s)
            for worker in list(self.alive_workers()):
                try:
                    health = await asyncio.to_thread(
                        worker.client(timeout_s=5.0).health
                    )
                except (ClientError, OSError, HTTPException):
                    # No answer, an error status, a reply that is not
                    # HTTP, or a body that is not a JSON object.
                    worker.misses += 1
                    if worker.misses >= self.heartbeat_miss_limit:
                        self._declare_dead(
                            worker,
                            f"missed {worker.misses} heartbeats",
                        )
                    continue
                worker.misses = 0
                worker.last_health = health
                age = health.get("oldest_unresolved_age_s")
                if (age is not None and age > self.wedge_age_s
                        and health.get("queue_depth", 0) > 0):
                    # Answers health checks but completes nothing: the
                    # /healthz wedge fields exist exactly for this.
                    self._declare_dead(
                        worker, f"wedged ({age:.0f}s oldest unresolved)"
                    )
            self._publish_gauges()

    # -- job stealing ------------------------------------------------------

    async def _steal_from(self, worker: Worker) -> dict:
        """Re-home the dead worker's journaled live jobs.

        Replays its write-ahead journal off-loop, re-submits every live
        job through the normal routing path (the new owner's journal
        records the acceptance — that is the ownership handoff), and
        compacts the dead journal down to whatever could not be
        re-homed, so a restart of the dead worker cannot double-own
        stolen work.
        """
        assert worker.journal_dir is not None
        try:
            live = await asyncio.to_thread(
                self._replay_live_jobs, worker.journal_dir
            )
        except OSError as exc:
            self.metrics.inc("cluster.steal_errors")
            self._emit("cluster_steal_error", worker=worker.name,
                       error=str(exc))
            return {"stolen": 0, "unstolen": 0, "error": str(exc)}
        stolen = 0
        remainder: list[tuple[str, dict]] = []
        for state in live.values():
            data = state["data"]
            spec = data.get("spec")
            lane = data.get("lane", DEFAULT_LANE)
            if not isinstance(spec, dict):
                remainder.append(("accepted", data))
                continue
            try:
                await self.submit(spec, lane=lane, wait=False,
                                  shed_exempt=True)
                stolen += 1
                worker.stolen_from += 1
                self.metrics.inc("cluster.stolen")
                self._emit("cluster_steal", worker=worker.name,
                           job=data.get("job_id"), key=data.get("key"))
            except (AdmissionError, JobFailed, ValueError, EmptyRingError):
                # Could not re-home right now (no live workers, bad
                # spec): keep the record live in the dead journal so a
                # restarted worker still owes the work.
                remainder.append(("accepted", data))
        try:
            await asyncio.to_thread(
                self._compact_journal, worker.journal_dir, remainder
            )
        except OSError:
            self.metrics.inc("cluster.steal_errors")
        summary = {"stolen": stolen, "unstolen": len(remainder)}
        self._emit("cluster_steal_done", worker=worker.name, **summary)
        return summary

    @staticmethod
    def _replay_live_jobs(journal_dir: str) -> dict:
        with JobJournal(journal_dir) as journal:
            return journal.replay().live_jobs()

    @staticmethod
    def _compact_journal(journal_dir: str,
                         live: list[tuple[str, dict]]) -> None:
        with JobJournal(journal_dir) as journal:
            journal.compact(live)

    # -- submission --------------------------------------------------------

    def _resolve(self, payload: dict) -> tuple[JobSpec, str]:
        spec = JobSpec.from_dict(payload)
        spec.validate()
        return spec, spec.key(spec.resolve_config(self.config))

    def route(self, payload: dict) -> dict:
        """Pure placement lookup (``POST /route``): spec -> key + owner."""
        _spec, key = self._resolve(payload)
        try:
            owner = self.ring.owner(key)
        except EmptyRingError:
            owner = None
        return {"key": key, "worker": owner}

    def _shed_check(self, lane: str) -> None:
        window = int(self.max_inflight * LANE_SHED_FRACTIONS[lane])
        if self._forwarding >= max(1, window):
            self.metrics.inc("cluster.shed")
            self.metrics.inc(f"cluster.shed_{lane}")
            self._emit("cluster_shed", lane=lane,
                       forwarding=self._forwarding)
            raise AdmissionError(
                f"cluster forwarding window full for lane {lane!r} "
                f"({self._forwarding}/{self.max_inflight})",
                retry_after_s=1.0,
            )

    async def submit(self, payload: dict, *, lane: str = DEFAULT_LANE,
                     wait: bool = True, deadline_s: float | None = None,
                     shed_exempt: bool = False) -> dict:
        """Route one submission; returns the worker's response payload.

        The response dict always carries ``served_by``: the worker name,
        ``"store"`` for shared-tier hits, or the primary's worker for
        deduplicated waiters.  ``shed_exempt`` is for stolen jobs —
        acknowledged work is never load-shed.
        """
        if not self._running:
            raise RuntimeError("router is not running (call start())")
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; known: {sorted(LANES)}")
        spec, key = self._resolve(payload)
        self.metrics.inc("cluster.submitted")
        started = time.monotonic()

        cached = await asyncio.to_thread(self.store.get, key)
        if cached is not None:
            self.metrics.inc("cluster.cache_hits")
            self._observe_latency(started)
            self._emit("cluster_cache_hit", key=key)
            return {
                "served_by": "store",
                "job": {"key": key, "status": "done", "lane": lane},
                "result": cached.to_dict(),
            }

        if wait:
            shared = self._inflight.get(key)
            if shared is not None:
                self.metrics.inc("cluster.deduped")
                self._emit("cluster_dedup", key=key)
                payload_out = await asyncio.shield(shared)
                self._observe_latency(started)
                return payload_out

        if not shed_exempt:
            self._shed_check(lane)

        future: asyncio.Future | None = None
        if wait:
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
        self._forwarding += 1
        self._publish_gauges()
        try:
            response = await self._forward(spec, key, lane=lane, wait=wait,
                                           deadline_s=deadline_s)
        except BaseException as exc:
            if future is not None and self._inflight.get(key) is future:
                del self._inflight[key]
                if not future.done():
                    if isinstance(exc, Exception):
                        future.set_exception(exc)
                        future.exception()
                    else:
                        future.cancel()
            raise
        finally:
            self._forwarding -= 1
            self._publish_gauges()
        if wait and "result" in response:
            # The worker already persisted the result to the shared
            # tier; remembering it here only warms the memory tier.
            await asyncio.to_thread(
                self._warm_memory, key, response["result"]
            )
        if future is not None:
            if self._inflight.get(key) is future:
                del self._inflight[key]
            if not future.done():
                future.set_result(response)
        self._observe_latency(started)
        return response

    def _warm_memory(self, key: str, result_dict: dict) -> None:
        from repro.sim import SimulationResult

        try:
            result = SimulationResult.from_dict(result_dict)
        except (KeyError, TypeError, ValueError):
            return  # an odd payload only costs the memory-tier warm-up
        self.store.put(key, result, persist=False)

    def _observe_latency(self, started: float) -> None:
        self._route_latency.observe((time.monotonic() - started) * 1e3)

    async def _forward(self, spec: JobSpec, key: str, *, lane: str,
                       wait: bool, deadline_s: float | None) -> dict:
        """Forward to the ring owner, failing over past dead workers."""
        body = dict(spec.to_dict())
        body.update({"lane": lane, "wait": wait, "deadline_s": deadline_s})
        attempts = max(1, len(self.alive_workers()))
        last_busy: ServerBusy | None = None
        for _attempt in range(attempts):
            try:
                owner = self.ring.owner(key)
            except EmptyRingError:
                break
            worker = self.workers[owner]
            if _CHAOS is not None:
                _CHAOS.on_forward(key, worker.name)
            worker.forwarded += 1
            self.metrics.inc("cluster.forwarded")
            self._emit("cluster_forward", key=key, worker=worker.name,
                       lane=lane, wait=wait)
            client = worker.client(timeout_s=self.forward_timeout_s)
            try:
                response = await asyncio.to_thread(
                    call_with_retry,
                    lambda: client.post("/submit", body),
                    attempts=self.busy_retries,
                )
            except ServerBusy as busy:
                # The worker's own admission control said no after our
                # bounded retries: hand its Retry-After hint through
                # unmodified (the satellite fix this PR depends on).
                last_busy = busy
                break
            except JobFailedError as failed:
                worker.failed += 1
                self.metrics.inc("cluster.job_failures")
                raise JobFailed(failed.failure) from None
            except ClientError as err:
                raise JobFailed({
                    "error_type": f"HTTP{err.status}",
                    "message": str(err),
                }) from None
            except (OSError, HTTPException) as exc:
                # Connection refused / reset / timeout, or a reply that
                # is not HTTP: the owner is gone.  Declare it dead (which
                # also steals its journal) and walk to the ring's next
                # owner.
                self.metrics.inc("cluster.forward_errors")
                self._declare_dead(worker, f"forward failed: {exc}")
                continue
            worker.completed += 1
            self.metrics.inc("cluster.completed")
            response["served_by"] = worker.name
            return response
        if last_busy is not None:
            raise AdmissionError(
                str(last_busy), retry_after_s=last_busy.retry_after_s,
            ) from last_busy
        raise AdmissionError(
            "no live workers in the cluster", retry_after_s=2.0,
        )

    # -- introspection -----------------------------------------------------

    def _publish_gauges(self) -> None:
        self.metrics.set_gauge(
            "cluster.workers_alive", float(len(self.alive_workers()))
        )
        self.metrics.set_gauge(
            "cluster.workers_known", float(len(self.workers))
        )
        self.metrics.set_gauge("cluster.forwarding", float(self._forwarding))
        self.metrics.set_gauge(
            "cluster.inflight_keys", float(len(self._inflight))
        )
        self.metrics.set_gauge("cluster.store_lru_size",
                               float(self.store.stats()["entries"]))
        for worker in self.workers.values():
            prefix = f"cluster.worker.{worker.name}"
            self.metrics.set_gauge(f"{prefix}.alive", float(worker.alive))
            self.metrics.set_gauge(f"{prefix}.forwarded",
                                   float(worker.forwarded))
            self.metrics.set_gauge(f"{prefix}.completed",
                                   float(worker.completed))

    def stats(self) -> dict:
        uptime = (
            time.monotonic() - self._started_mono
            if self._started_mono is not None else 0.0
        )
        counters = self.metrics.stats.as_dict()
        return {
            "status": "ok" if self._running else "stopped",
            "uptime_s": round(uptime, 3),
            "workers": {
                name: worker.describe()
                for name, worker in sorted(self.workers.items())
            },
            "ring": self.ring.describe(),
            "store": self.store.stats(),
            "submitted": counters.get("cluster.submitted", 0.0),
            "forwarded": counters.get("cluster.forwarded", 0.0),
            "completed": counters.get("cluster.completed", 0.0),
            "deduped": counters.get("cluster.deduped", 0.0),
            "cache_hits": counters.get("cluster.cache_hits", 0.0),
            "shed": counters.get("cluster.shed", 0.0),
            "stolen": counters.get("cluster.stolen", 0.0),
            "workers_died": counters.get("cluster.workers_died", 0.0),
            "forwarding": self._forwarding,
        }

    def snapshot(self) -> MetricsSnapshot:
        self._publish_gauges()
        return self.metrics.snapshot()

    def prometheus(self) -> str:
        return prometheus_multi({"repro": self.snapshot()})


class RouterHttpServer(ServeHttpServer):
    """HTTP front end for a :class:`ClusterRouter`.

    Reuses the serve layer's request plumbing; only the routes differ:

    * ``GET /healthz`` / ``GET /metrics`` — router health and
      Prometheus text (``repro_cluster_*`` series).
    * ``GET /workers`` — registry + ring placement view.
    * ``POST /register`` — worker announcement (name, url, journal).
    * ``POST /route`` — debugging: spec in, ``{key, worker}`` out.
    * ``POST /submit`` — the serve-compatible submit surface; shed
      requests return **503** (it is the cluster, not one service,
      that is busy) with the ``Retry-After`` hint preserved.
    """

    def __init__(self, router: ClusterRouter, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(router, host=host, port=port)  # type: ignore[arg-type]
        self.router = router

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            writer.write(_json_response(200, self.router.stats()))
        elif path == "/metrics" and method == "GET":
            writer.write(_response_bytes(
                200, self.router.prometheus().encode(),
                "text/plain; version=0.0.4",
            ))
        elif path == "/workers" and method == "GET":
            writer.write(_json_response(200, {
                "workers": {
                    name: worker.describe()
                    for name, worker in sorted(self.router.workers.items())
                },
                "ring": self.router.ring.describe(),
            }))
        elif path == "/register" and method == "POST":
            payload = self._parse_json(body)
            try:
                info = self.router.register(
                    str(payload.get("name", "")),
                    str(payload.get("url", "")),
                    payload.get("journal_dir"),
                )
            except ValueError as bad:
                raise HttpError(400, str(bad)) from None
            writer.write(_json_response(200, {"worker": info}))
        elif path == "/route" and method == "POST":
            payload = self._parse_json(body)
            payload.pop("lane", None)
            payload.pop("wait", None)
            payload.pop("deadline_s", None)
            try:
                writer.write(_json_response(200, self.router.route(payload)))
            except ValueError as bad:
                raise HttpError(400, str(bad)) from None
        elif path == "/submit" and method == "POST":
            await self._submit(body, writer)
        elif path in ("/healthz", "/metrics", "/workers", "/register",
                      "/route", "/submit"):
            raise HttpError(405, f"{method} not allowed on {path}")
        else:
            raise HttpError(404, f"no route for {path}")

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        return payload

    async def _submit(self, body: bytes,
                      writer: asyncio.StreamWriter) -> None:
        payload = self._parse_json(body)
        lane = payload.pop("lane", DEFAULT_LANE)
        wait = bool(payload.pop("wait", True))
        deadline_s = payload.pop("deadline_s", None)
        if deadline_s is not None:
            deadline_s = float(deadline_s)
        try:
            response = await self.router.submit(
                payload, lane=lane, wait=wait, deadline_s=deadline_s
            )
        except AdmissionError as busy:
            raise HttpError(503, str(busy), headers={
                "Retry-After": f"{busy.retry_after_s:g}"
            }) from None
        except ValueError as bad:
            raise HttpError(400, str(bad)) from None
        except JobFailed as failed:
            status = 504 if failed.failure.get(
                "error_type") == "DeadlineExceeded" else 500
            writer.write(_json_response(status, {
                "failure": failed.failure,
            }))
            return
        status = 200 if "result" in response else 202
        writer.write(_json_response(status, response))


async def run_router(router: ClusterRouter, host: str, port: int) -> None:
    """Blocking entry point: serve the router until SIGTERM/SIGINT."""
    server = RouterHttpServer(router, host=host, port=port)
    await server.start()
    print(f"repro-oasis cluster: router on http://{server.host}:{server.port}"
          f" (max_inflight={router.max_inflight})")
    await serve_until_signalled(server, "router")
