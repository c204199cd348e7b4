"""Asyncio core of the simulation service.

One :class:`SimulationService` owns four cooperating pieces:

* an **admission-controlled priority queue** — jobs land in a named lane
  (``interactive`` before ``batch`` before ``bulk``) and the queue
  refuses new work past ``max_pending`` (:class:`AdmissionError`
  carries a retry hint, the HTTP layer maps it to ``429``), so a
  traffic burst backs up at the front door instead of growing an
  unbounded heap;
* a **single-flight table** — every request hashes to its
  :func:`repro.harness.diskcache.cache_key`; while a key is queued or
  running, identical submissions attach to the in-flight job's future
  instead of enqueueing again, so a thundering herd of equal requests
  performs exactly one simulation;
* a **dispatcher** — one background task pops up to ``batch_max`` jobs
  in lane order, drops jobs whose deadline already passed, and hands
  the batch to :func:`repro.harness.run_sims_parallel` in a worker
  thread, mapping the tightest remaining per-job deadline onto the
  pool's per-run wall-clock timeout.  The pool keeps its PR-2 crash
  tolerance: a poisoned run comes back as a structured
  :class:`~repro.harness.RunFailure`, which fails only its own job;
* an **observability surface** — job lifecycle events are recorded as
  typed ``serve_*`` instants on a :class:`~repro.obs.RecordingTracer`
  (track ``"serve"``, wall-clock nanoseconds since service start) and
  fanned out to any number of streaming subscribers; counters, queue
  gauges and a latency histogram live in a
  :class:`~repro.obs.MetricsRegistry` and export through the same
  Prometheus path every other subsystem uses.

The dispatcher runs one batch at a time because a
:class:`~repro.harness.runner.Runner`'s store, counters and sweep
summary belong to one sweep at a time; concurrency comes from the worker
processes inside the pool, not from overlapping sweeps.  A service runs
on the process-default runner unless it is given its own ``runner=``.
"""

from __future__ import annotations

import asyncio
import itertools
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro import POLICY_FACTORIES, baseline_config
from repro.config import SystemConfig
from repro.harness.diskcache import cache_key
from repro.harness.runner import (
    Runner,
    RunFailure,
    default_runner,
    run_sims_parallel,
)
from repro.obs import MetricsRegistry, MetricsSnapshot, RecordingTracer
from repro.obs.export import prometheus_multi
from repro.serve.journal import JobJournal, JournalError
from repro.sim import SimulationResult
from repro.sim.sweep import COUNTERS as MEMO_COUNTERS
from repro.tenancy.mix import parse_mix
from repro.workloads import APPLICATIONS

#: Priority lanes, lowest number dispatched first.
LANES = {"interactive": 0, "batch": 1, "bulk": 2}

DEFAULT_LANE = "batch"

#: Default admission-control bound on queued (not yet dispatched) jobs.
DEFAULT_MAX_PENDING = 256

#: Default max jobs handed to the pool per dispatch round.
DEFAULT_BATCH_MAX = 16

#: Completed jobs kept for ``/jobs/<id>`` lookups.
DEFAULT_HISTORY_LIMIT = 1024

#: End-to-end job latency buckets (milliseconds): cache hits land in the
#: low buckets, cold multi-second simulations in the tail.
SERVE_LATENCY_BUCKETS_MS = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 30_000.0,
)

#: Per-subscriber event-queue bound; a slow consumer drops events rather
#: than growing the service's memory.
EVENT_QUEUE_LIMIT = 1024

#: Consecutive run failures before the worker-pool circuit breaker opens.
DEFAULT_BREAKER_THRESHOLD = 5

#: Seconds the breaker stays open before letting one probe batch through.
DEFAULT_BREAKER_COOLDOWN_S = 5.0

#: Numeric gauge encoding of breaker states (``serve.breaker_state``).
BREAKER_STATES = {"closed": 0, "half_open": 1, "open": 2}

_MS_PER_NS = 1e-6


class AdmissionError(RuntimeError):
    """The queue is at capacity; retry after ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class JobFailed(RuntimeError):
    """Awaiting a job whose run failed raises this.

    ``failure`` is a plain dict (the structured
    :class:`~repro.harness.RunFailure` fields, or the service's own
    diagnosis for expired deadlines / shutdown).
    """

    def __init__(self, failure: dict) -> None:
        super().__init__(
            f"{failure.get('error_type', 'Error')}: "
            f"{failure.get('message', '')}"
        )
        self.failure = dict(failure)


@dataclass
class JobSpec:
    """One requested simulation, before key resolution."""

    app: str
    policy: str
    footprint_mb: float | None = None
    seed: int = 0
    policy_kwargs: dict = field(default_factory=dict)
    #: Optional :func:`repro.baseline_config` overrides (``n_gpus``,
    #: ``page_size``, ...); empty means the service's base config.
    config_kwargs: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        known = {
            "app", "policy", "footprint_mb", "seed",
            "policy_kwargs", "config_kwargs",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown spec field(s): {sorted(unknown)}")
        try:
            spec = cls(app=payload["app"], policy=payload["policy"])
        except KeyError as missing:
            raise ValueError(f"spec is missing {missing.args[0]!r}") from None
        if payload.get("footprint_mb") is not None:
            spec.footprint_mb = float(payload["footprint_mb"])
        spec.seed = int(payload.get("seed", 0))
        spec.policy_kwargs = dict(payload.get("policy_kwargs") or {})
        spec.config_kwargs = dict(payload.get("config_kwargs") or {})
        return spec

    def validate(self) -> None:
        """Refuse (:class:`ValueError`) an unknown policy, or an app that
        is neither a registry app nor a mix (``c2d+st``) of them."""
        if "+" in self.app:
            apps = [tenant.app for tenant in parse_mix(self.app).tenants]
        else:
            apps = [self.app]
        for app in apps:
            if app not in APPLICATIONS:
                raise ValueError(f"unknown app {app!r}")
        if self.policy not in POLICY_FACTORIES:
            raise ValueError(f"unknown policy {self.policy!r}")

    def resolve_config(self, base: SystemConfig) -> SystemConfig:
        if not self.config_kwargs:
            return base
        return baseline_config(**self.config_kwargs)

    def key(self, config: SystemConfig) -> str:
        """This run's identity (:func:`cache_key`) under ``config``."""
        return cache_key(config, self.app, self.policy, self.footprint_mb,
                         self.seed, self.policy_kwargs)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "policy": self.policy,
            "footprint_mb": self.footprint_mb,
            "seed": self.seed,
            "policy_kwargs": dict(self.policy_kwargs),
            "config_kwargs": dict(self.config_kwargs),
        }


class Job:
    """One admitted request (and everyone deduplicated onto it)."""

    def __init__(self, job_id: str, spec: JobSpec, config: SystemConfig,
                 key: str, lane: str, deadline_s: float | None,
                 future: asyncio.Future) -> None:
        self.id = job_id
        self.spec = spec
        self.config = config
        self.key = key
        self.lane = lane
        self.deadline_s = deadline_s
        self.future = future
        self.status = "queued"
        self.waiters = 1
        self.submitted_mono = time.monotonic()
        self.finished_mono: float | None = None
        self.failure: dict | None = None

    def remaining_s(self, now: float) -> float | None:
        """Seconds left on the deadline (None = no deadline)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - (now - self.submitted_mono)

    @property
    def latency_s(self) -> float | None:
        if self.finished_mono is None:
            return None
        return self.finished_mono - self.submitted_mono

    async def wait(self) -> SimulationResult:
        """Block until the job resolves; raises :class:`JobFailed`.

        The future is shared by every deduplicated waiter, so it is
        shielded — cancelling one waiter never cancels the computation.
        """
        return await asyncio.shield(self.future)

    def describe(self) -> dict:
        """JSON-serializable status view (the ``/jobs/<id>`` payload)."""
        info = {
            "id": self.id,
            "key": self.key,
            "lane": self.lane,
            "status": self.status,
            "waiters": self.waiters,
            "deadline_s": self.deadline_s,
            "latency_s": self.latency_s,
            "spec": self.spec.to_dict(),
        }
        if self.failure is not None:
            info["failure"] = dict(self.failure)
        return info


async def await_shutdown(task: "asyncio.Future", name: str) -> None:
    """Await a task being torn down; report, never swallow, its failure.

    Cancellation is the expected end of a task at shutdown and passes
    silently.  Any other exception is reported once on stderr, naming
    the task, so an error raised during a drain is not lost.
    """
    try:
        await task
    except asyncio.CancelledError:
        pass
    except Exception as exc:
        print(f"repro-oasis: {name} failed during shutdown: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)


def _chain_future(job: Job, primary: Job) -> None:
    """Resolve ``job`` whenever ``primary`` resolves (recovery dedup)."""

    def _copy(done: asyncio.Future) -> None:
        if job.future.done():
            return
        exc = done.exception() if not done.cancelled() else None
        job.finished_mono = time.monotonic()
        if done.cancelled():
            job.status = "failed"
            job.failure = {"error_type": "Cancelled",
                           "message": "primary job was cancelled"}
            job.future.cancel()
        elif exc is not None:
            job.status = "failed"
            job.failure = dict(getattr(exc, "failure", {})) or {
                "error_type": type(exc).__name__, "message": str(exc),
            }
            job.future.set_exception(exc)
            job.future.exception()
        else:
            job.status = "done"
            job.future.set_result(done.result())

    primary.future.add_done_callback(_copy)


class SimulationService:
    """Admission-controlled, single-flight front end over the harness.

    Args:
        config: base :class:`SystemConfig` for specs without
            ``config_kwargs`` (default: the Table I baseline).
        jobs: worker processes per dispatched batch (1 = in-process
            serial; per-run timeouts need ``jobs >= 2`` for process
            isolation).
        max_pending: admission bound on queued jobs.
        batch_max: max jobs per dispatch round.
        run_timeout_s: per-run wall-clock cap applied to every batch in
            addition to job deadlines.
        history_limit: completed jobs retained for status lookups.
        journal_dir: directory for the write-ahead job journal (see
            :mod:`repro.serve.journal`).  None (the default) keeps the
            pre-journal in-memory behavior; with a directory, every job
            state transition is made durable and :meth:`start` replays
            any prior journal before accepting new work.
        breaker_threshold: consecutive run failures before the circuit
            breaker around the worker pool opens.
        breaker_cooldown_s: seconds the breaker stays open before a
            half-open single-job probe batch is allowed through.
        name: optional worker identity reported in ``/healthz``; the
            cluster router uses it to match health to ring members.
        runner: the :class:`~repro.harness.runner.Runner` batches run
            on (default: the process-default runner, so
            :func:`repro.harness.configure` applies).

    Construct and drive it inside one event loop; all queue state is
    loop-confined (no locks), only the simulation batch leaves the loop
    via ``asyncio.to_thread``.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        jobs: int = 1,
        max_pending: int = DEFAULT_MAX_PENDING,
        batch_max: int = DEFAULT_BATCH_MAX,
        run_timeout_s: float | None = None,
        history_limit: int = DEFAULT_HISTORY_LIMIT,
        journal_dir: str | None = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        name: str | None = None,
        runner: Runner | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s must be >= 0")
        self.config = config if config is not None else baseline_config()
        self.jobs = jobs
        self.max_pending = max_pending
        self.batch_max = batch_max
        self.run_timeout_s = run_timeout_s
        self.history_limit = history_limit
        self.journal = JobJournal(journal_dir) if journal_dir else None
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        #: Optional worker identity, surfaced in ``/healthz`` so the
        #: cluster router can match health reports to ring members.
        self.name = name
        self.runner = runner if runner is not None else default_runner()

        self.metrics = MetricsRegistry()
        self.tracer = RecordingTracer()
        self._latency = self.metrics.histogram(
            "serve.latency_ms", SERVE_LATENCY_BUCKETS_MS
        )
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._inflight: dict[str, Job] = {}
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._subscribers: set[asyncio.Queue] = set()
        self._wakeup: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._running = False
        self._draining = False
        self._batch_inflight = False
        self._batch_future: asyncio.Future | None = None
        self._started_mono: float | None = None
        #: Circuit breaker around the worker pool.
        self._breaker_state = "closed"
        self._consec_failures = 0
        self._breaker_open_until = 0.0
        #: Recovery summary of the last :meth:`recover` (stats()).
        self._recovery: dict | None = None
        #: Simulation counters accumulated across every dispatched batch
        #: (merged from the runner's sweep summaries).
        self._sim_counters: dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self, *, dispatch: bool = True) -> None:
        """Begin accepting jobs; with ``dispatch=False`` the queue fills
        but nothing runs until :meth:`resume` (warm-up / deterministic
        ordering tests).

        With a journal attached, any state a previous incarnation left
        behind is replayed first (see :meth:`recover`), so recovered
        jobs are already queued when the dispatcher starts.
        """
        if self._running:
            return
        self._running = True
        self._started_mono = time.monotonic()
        self._wakeup = asyncio.Event()
        if self.journal is not None:
            await self.recover()
        if dispatch:
            self.resume()

    def resume(self) -> None:
        """Start the dispatcher after a paused :meth:`start`."""
        if not self._running:
            raise RuntimeError("service is not running (call start())")
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(
                self._dispatch_loop(), name="repro-serve-dispatcher"
            )

    async def stop(self) -> None:
        """Drain nothing: finish the in-flight batch, fail queued jobs.

        Queued jobs fail for their *current* waiters, but with a journal
        attached they are deliberately **not** journaled as failed: their
        ``accepted`` records stay live, so the next :meth:`start` on the
        same journal re-enqueues them.  A clean shutdown never forfeits
        acknowledged work.
        """
        if not self._running:
            return
        self._running = False
        assert self._wakeup is not None
        self._wakeup.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        while self._heap:
            _, _, job = heappop(self._heap)
            self._finish_failure(job, {
                "error_type": "ServiceStopped",
                "message": "service shut down before the job ran",
            }, journal=False)
        self._publish_gauges()
        if self.journal is not None:
            self.journal.close()

    async def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: refuse new work, finish queued work, stop.

        Returns True when the queue fully drained inside ``timeout_s``
        (None = wait indefinitely); on timeout the remaining jobs fail
        with ``ServiceStopped`` for current waiters but stay live in the
        journal, exactly like :meth:`stop`.  This is what the serve CLI
        runs on ``SIGTERM``.
        """
        if not self._running:
            return True
        self._draining = True
        self._emit("serve_drain", queued=len(self._heap))
        assert self._wakeup is not None
        self._wakeup.set()
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        drained = True
        while self._heap or self._batch_inflight:
            if deadline is not None and time.monotonic() >= deadline:
                drained = False
                break
            await asyncio.sleep(0.02)
        await self.stop()
        return drained

    async def abandon(self) -> None:
        """Crash simulation for chaos tests: die without cleanup.

        The dispatcher is cancelled mid-flight, queued jobs are neither
        failed nor journaled, and no terminal records are written — the
        closest an in-process service can get to ``kill -9``.  Only the
        journal's file handle is closed (its records were already
        fsync'd), so a new service can reopen the directory.

        A batch running in the worker thread when the crash lands is
        waited out (its jobs still resolve nothing — like a pool whose
        results nobody collects) so a successor service never races it
        on a shared runner's caches.
        """
        self._running = False
        self._draining = False
        batch = self._batch_future
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if batch is not None:
            await await_shutdown(batch, "serve batch")
        if self.journal is not None:
            self.journal.close()

    @property
    def running(self) -> bool:
        return self._running

    def _now_ns(self) -> float:
        base = self._started_mono if self._started_mono is not None else 0.0
        return (time.monotonic() - base) * 1e9

    # -- recovery ----------------------------------------------------------

    async def recover(self) -> dict:
        """Replay the journal and re-own every job a crash left behind.

        For each journaled job, in acknowledgement order:

        * last record ``failed`` — re-materialized in history with its
          stored diagnosis (the failure was served before the crash);
        * any other state (``accepted``/``dispatched``/``done``) — the
          result cache is consulted first, under the spec's
          ``cache_key`` computed afresh (never the journaled one): a hit
          resolves the job immediately with **zero** re-simulation
          (``recovered_cached``), a miss re-enqueues it on its original
          lane (``recovered_requeued``).  Jobs that were ``done`` but
          whose cache entry was lost are recomputed rather than lost.

        Queue-relative deadlines died with the old process and are
        dropped.  After classification the journal is compacted down to
        the still-live jobs.  Returns the recovery summary that
        :meth:`stats` also exposes.
        """
        assert self.journal is not None, "recover() needs a journal"
        replay = self.journal.replay()
        disk = self.runner.results.disk
        loop = asyncio.get_running_loop()
        summary = {
            "journal_records": replay.records,
            "journal_torn": replay.torn,
            "recovered_cached": 0,
            "recovered_requeued": 0,
            "recovered_failed": 0,
        }
        live: list[tuple[str, dict]] = []
        max_id = 0
        for job_id, state in replay.jobs.items():
            data = state["data"]
            try:
                spec = JobSpec.from_dict(data["spec"])
                lane = data.get("lane", DEFAULT_LANE)
                config = spec.resolve_config(self.config)
                # Keyed afresh, not from the journal: the key digests the
                # simulator source, which may have changed since the ack.
                key = spec.key(config)
            except (KeyError, TypeError, ValueError):
                # A record that checksummed but no longer parses as a
                # spec (schema drift): count it as torn, don't crash
                # recovery for every other job.
                summary["journal_torn"] += 1
                continue
            try:
                max_id = max(max_id, int(job_id.rsplit("-", 1)[-1]))
            except ValueError:
                pass
            job = Job(
                job_id=job_id, spec=spec, config=config, key=key,
                lane=lane if lane in LANES else DEFAULT_LANE,
                deadline_s=None, future=loop.create_future(),
            )
            if state["kind"] == "failed":
                job.status = "failed"
                job.failure = dict(data.get("failure") or {
                    "error_type": "Unknown",
                    "message": "failure recorded before crash",
                })
                job.future.set_exception(JobFailed(job.failure))
                job.future.exception()
                job.finished_mono = time.monotonic()
                self._jobs[job.id] = job
                summary["recovered_failed"] += 1
                continue
            result = disk.load(key) if disk is not None else None
            if result is not None:
                job.status = "done"
                job.finished_mono = time.monotonic()
                job.future.set_result(result)
                self._jobs[job.id] = job
                summary["recovered_cached"] += 1
                if state["kind"] != "done":
                    self._journal_append("done", {
                        "job_id": job.id, "key": job.key,
                    })
                self._emit("serve_recover", job=job.id, key=key,
                           outcome="cached")
                continue
            accepted = {
                "job_id": job.id, "spec": spec.to_dict(),
                "key": key, "lane": job.lane,
            }
            shared = self._inflight.get(key)
            if shared is not None:
                # Two acked jobs with one key (the first completed, the
                # second was accepted later, then the cache was lost):
                # chain onto the primary instead of double-simulating.
                shared.waiters += 1
                job.status = "queued"
                _chain_future(job, shared)
                self._jobs[job.id] = job
            else:
                job.status = "queued"
                self._inflight[key] = job
                self._jobs[job.id] = job
                heappush(self._heap, (LANES[job.lane], next(self._seq), job))
            live.append(("accepted", accepted))
            summary["recovered_requeued"] += 1
            self._emit("serve_recover", job=job.id, key=key,
                       outcome="requeued")
        # Continue job-id allocation past everything the journal named.
        self._ids = itertools.count(max_id + 1)
        self.journal.compact(live)
        for name in (
            "recovered_cached", "recovered_requeued", "recovered_failed",
            "journal_torn",
        ):
            self.metrics.inc(f"serve.{name}", float(summary[name]))
        self._recovery = summary
        self._publish_gauges()
        if self._heap:
            assert self._wakeup is not None
            self._wakeup.set()
        return summary

    def _journal_append(self, kind: str, data: dict) -> bool:
        """Best-effort journal append for non-ack records.

        ``accepted`` records go through the strict path in
        :meth:`submit` (a failure there refuses the job); transition
        records here only narrow recovery work, so an append failure is
        counted and tolerated — replay semantics stay correct with any
        prefix of the transitions.
        """
        if self.journal is None:
            return True
        try:
            self.journal.append(kind, data)
            return True
        except JournalError:
            self.metrics.inc("serve.journal_errors")
            return False

    # -- submission --------------------------------------------------------

    async def submit(
        self,
        spec: JobSpec | dict,
        *,
        lane: str = DEFAULT_LANE,
        deadline_s: float | None = None,
    ) -> Job:
        """Admit one request; returns its (possibly shared) :class:`Job`.

        Identical in-flight requests — same cache key — coalesce onto
        the existing job regardless of lane.  A full queue raises
        :class:`AdmissionError` (backpressure), and malformed specs
        raise :class:`ValueError` before touching the queue.

        With a journal attached, the job's ``accepted`` record is made
        durable *before* this method returns — if the append fails, the
        job is refused (:class:`AdmissionError`), never half-accepted.
        """
        if not self._running:
            raise RuntimeError("service is not running (call start())")
        if self._draining:
            self.metrics.inc("serve.rejected")
            raise AdmissionError(
                "service is draining and refuses new work",
                retry_after_s=5.0,
            )
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; known: {sorted(LANES)}")
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        spec.validate()
        config = spec.resolve_config(self.config)
        key = spec.key(config)
        self.metrics.inc("serve.submitted")

        shared = self._inflight.get(key)
        if shared is not None:
            shared.waiters += 1
            self.metrics.inc("serve.deduped")
            self._emit("serve_dedup", job=shared.id, key=key,
                       waiters=shared.waiters)
            return shared

        queued = len(self._heap)
        if queued >= self.max_pending:
            self.metrics.inc("serve.rejected")
            self._emit("serve_reject", key=key, queued=queued)
            raise AdmissionError(
                f"queue full ({queued}/{self.max_pending} pending)",
                retry_after_s=1.0,
            )

        job = Job(
            job_id=f"job-{next(self._ids)}",
            spec=spec,
            config=config,
            key=key,
            lane=lane,
            deadline_s=deadline_s,
            future=asyncio.get_running_loop().create_future(),
        )
        if self.journal is not None:
            try:
                self.journal.append("accepted", {
                    "job_id": job.id,
                    "spec": spec.to_dict(),
                    "key": key,
                    "lane": lane,
                    "deadline_s": deadline_s,
                })
            except JournalError as exc:
                # The ack could not be made durable, so there is no ack:
                # refuse the job and let the client retry.
                self.metrics.inc("serve.journal_errors")
                self.metrics.inc("serve.rejected")
                raise AdmissionError(
                    f"journal write failed: {exc}", retry_after_s=1.0,
                ) from exc
        self._inflight[key] = job
        self._remember_job(job)
        heappush(self._heap, (LANES[lane], next(self._seq), job))
        self._emit("serve_submit", job=job.id, key=key, lane=lane)
        self._publish_gauges()
        assert self._wakeup is not None
        self._wakeup.set()
        return job

    def job(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def _remember_job(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._jobs) > self.history_limit:
            oldest_id, oldest = next(iter(self._jobs.items()))
            if oldest.status in ("queued", "running"):
                break  # never forget live jobs, whatever the limit
            del self._jobs[oldest_id]

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while self._running:
            if not self._heap:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            if not self._breaker_admits():
                # Breaker open: hold dispatch until the cooldown expires,
                # in small quanta so stop()/drain() stay responsive.
                remaining = self._breaker_open_until - time.monotonic()
                await asyncio.sleep(min(0.05, max(0.01, remaining)))
                continue
            # A half-open breaker lets exactly one probe job through; its
            # outcome decides between closing and re-opening.
            batch_limit = (
                1 if self._breaker_state == "half_open" else self.batch_max
            )
            batch: list[Job] = []
            now = time.monotonic()
            while self._heap and len(batch) < batch_limit:
                _, _, job = heappop(self._heap)
                remaining = job.remaining_s(now)
                if remaining is not None and remaining <= 0:
                    self.metrics.inc("serve.expired")
                    # Expiring is a served, terminal outcome — journal it
                    # so recovery does not resurrect a dead deadline.
                    self._finish_failure(job, {
                        "error_type": "DeadlineExceeded",
                        "message": (
                            f"deadline of {job.deadline_s}s passed while "
                            "queued"
                        ),
                    })
                    continue
                batch.append(job)
            if not batch:
                self._publish_gauges()
                continue

            timeouts = [self.run_timeout_s] + [
                job.remaining_s(now) for job in batch
            ]
            effective = [t for t in timeouts if t is not None]
            batch_timeout = min(effective) if effective else None
            requests = [
                (job.config, job.spec.app, job.spec.policy, {
                    "footprint_mb": job.spec.footprint_mb,
                    "seed": job.spec.seed,
                    "policy_kwargs": dict(job.spec.policy_kwargs),
                    "key": job.key,
                })
                for job in batch
            ]
            for job in batch:
                job.status = "running"
                self.metrics.inc("serve.dispatched")
                self._journal_append("dispatched", {
                    "job_id": job.id, "key": job.key,
                })
                self._emit("serve_dispatch", job=job.id, key=job.key,
                           lane=job.lane)
            self.metrics.inc("serve.batches")
            self._publish_gauges()

            self._batch_inflight = True
            self._batch_future = asyncio.get_running_loop().run_in_executor(
                None, self._run_batch, requests, batch_timeout
            )
            try:
                results, summary = await self._batch_future
            except asyncio.CancelledError:
                # abandon(): a crash writes no terminal records — the
                # in-flight jobs simply die with the process image.
                raise
            except BaseException as exc:  # defensive: the pool never raises
                for job in batch:
                    self._finish_failure(job, {
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                    }, breaker=True)
                self._publish_gauges()
                continue
            finally:
                self._batch_inflight = False
                self._batch_future = None

            if summary:
                for name, value in summary.get("counters", {}).items():
                    self._sim_counters[name] = (
                        self._sim_counters.get(name, 0.0) + value
                    )
                memo = summary.get("memo") or {}
                self.metrics.set_gauge(
                    "serve.memo_enabled", float(bool(memo.get("enabled")))
                )
                for name in MEMO_COUNTERS:
                    self.metrics.inc(
                        f"serve.memo_{name}", float(memo.get(name, 0))
                    )
            for job, result in zip(batch, results):
                if isinstance(result, SimulationResult):
                    self._finish_ok(job, result)
                elif isinstance(result, RunFailure):
                    self._finish_failure(job, {
                        "error_type": result.error_type,
                        "message": result.message,
                        "attempts": result.attempts,
                    }, breaker=True)
                else:  # pragma: no cover - the runner returns only those
                    self._finish_failure(job, {
                        "error_type": "InternalError",
                        "message": f"unexpected result {type(result).__name__}",
                    }, breaker=True)
            self._publish_gauges()

    def _run_batch(self, requests: list, timeout_s: float | None):
        """Worker-thread body: one crash-tolerant sweep + its summary."""
        results = run_sims_parallel(
            requests, jobs=self.jobs, timeout_s=timeout_s,
            runner=self.runner,
        )
        return results, self.runner.last_sweep

    # -- circuit breaker ---------------------------------------------------

    def _breaker_admits(self) -> bool:
        """May the dispatcher hand work to the pool right now?"""
        if self._breaker_state != "open":
            return True
        if time.monotonic() >= self._breaker_open_until:
            self._breaker_state = "half_open"
            self._emit("serve_breaker", state="half_open")
            self._publish_gauges()
            return True
        return False

    def _breaker_note(self, ok: bool) -> None:
        """Fold one pool-run outcome into the breaker state machine."""
        if ok:
            self._consec_failures = 0
            if self._breaker_state != "closed":
                self._breaker_state = "closed"
                self._emit("serve_breaker", state="closed")
            return
        self._consec_failures += 1
        failed_probe = self._breaker_state == "half_open"
        if failed_probe or self._consec_failures >= self.breaker_threshold:
            if self._breaker_state != "open":
                self.metrics.inc("serve.breaker_opens")
                self._emit("serve_breaker", state="open",
                           consecutive=self._consec_failures)
            self._breaker_state = "open"
            self._breaker_open_until = (
                time.monotonic() + self.breaker_cooldown_s
            )

    # -- completion --------------------------------------------------------

    def _finish_ok(self, job: Job, result: SimulationResult) -> None:
        job.status = "done"
        job.finished_mono = time.monotonic()
        self._inflight.pop(job.key, None)
        self.metrics.inc("serve.completed")
        self._breaker_note(True)
        self._journal_append("done", {"job_id": job.id, "key": job.key})
        latency_ms = (job.latency_s or 0.0) * 1e3
        self._latency.observe(latency_ms)
        if not job.future.done():
            job.future.set_result(result)
        self._emit("serve_done", job=job.id, key=job.key,
                   latency_ms=round(latency_ms, 3), waiters=job.waiters)

    def _finish_failure(self, job: Job, failure: dict, *,
                        journal: bool = True, breaker: bool = False) -> None:
        """Fail one job.

        ``journal=False`` (shutdown path) keeps the job's ``accepted``
        record live so the next incarnation re-owns it; every other
        failure is terminal and journaled.  ``breaker=True`` marks
        pool-run outcomes, which are the only failures the circuit
        breaker should count (deadline expiries and shutdowns say
        nothing about pool health).
        """
        job.status = "failed"
        job.finished_mono = time.monotonic()
        job.failure = dict(failure)
        self._inflight.pop(job.key, None)
        self.metrics.inc("serve.failed")
        if breaker:
            self._breaker_note(False)
        if journal:
            self._journal_append("failed", {
                "job_id": job.id,
                "key": job.key,
                "failure": {
                    "error_type": failure.get("error_type", "Error"),
                    "message": failure.get("message", ""),
                },
            })
        if not job.future.done():
            job.future.set_exception(JobFailed(failure))
            # A fire-and-forget submission may never await this future;
            # retrieve the exception once so GC never logs it as lost.
            job.future.exception()
        self._emit("serve_fail", job=job.id, key=job.key,
                   error_type=failure.get("error_type", "Error"))

    # -- events ------------------------------------------------------------

    def subscribe(self) -> asyncio.Queue:
        """Register a streaming consumer; pair with :meth:`unsubscribe`."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=EVENT_QUEUE_LIMIT)
        self._subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        self._subscribers.discard(queue)

    def _emit(self, kind: str, **args) -> None:
        """Record one lifecycle event and fan it out to subscribers.

        The tracer is the source of truth: the event lands as a typed
        ``serve_*`` instant on the ``"serve"`` track (exportable as a
        Chrome trace like any simulated run), and the streamed payload
        is built from the same record.
        """
        ts_ns = self._now_ns()
        self.tracer.instant("serve", kind, ts_ns, args)
        event = {"kind": kind, "ts_ns": ts_ns, **args}
        for queue in list(self._subscribers):
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                self.metrics.inc("serve.events_dropped")

    # -- introspection -----------------------------------------------------

    def _publish_gauges(self) -> None:
        self.metrics.set_gauge("serve.queue_depth", float(len(self._heap)))
        self.metrics.set_gauge(
            "serve.inflight", float(len(self._inflight))
        )
        self.metrics.set_gauge(
            "serve.subscribers", float(len(self._subscribers))
        )
        self.metrics.set_gauge(
            "serve.breaker_state",
            float(BREAKER_STATES[self._breaker_state]),
        )
        if self.journal is not None:
            self.metrics.set_gauge(
                "serve.journal_segments",
                float(self.journal.stats()["segments"]),
            )

    def oldest_unresolved_age_s(self) -> float | None:
        """Age of the oldest job still queued or running (None = none).

        The cluster health checker reads this from ``/healthz``: a
        worker whose oldest unresolved job keeps aging while its queue
        stays non-empty is wedged, even if its HTTP front end still
        answers.
        """
        now = time.monotonic()
        ages = [
            now - job.submitted_mono
            for job in self._jobs.values()
            if job.status in ("queued", "running")
        ]
        return round(max(ages), 3) if ages else None

    def stats(self) -> dict:
        """The ``/healthz`` payload: liveness plus headline counters."""
        uptime = (
            time.monotonic() - self._started_mono
            if self._started_mono is not None else 0.0
        )
        counters = self.metrics.stats.as_dict()
        info = {
            "status": (
                "draining" if self._draining and self._running
                else "ok" if self._running else "stopped"
            ),
            "worker": self.name,
            "uptime_s": round(uptime, 3),
            # Wedge detection for cluster health checks: segment count
            # growing without bound or an ever-aging unresolved job are
            # both visible straight off /healthz.
            "journal_segments": (
                self.journal.stats()["segments"]
                if self.journal is not None else 0
            ),
            "oldest_unresolved_age_s": self.oldest_unresolved_age_s(),
            "queue_depth": len(self._heap),
            "inflight": len(self._inflight),
            "max_pending": self.max_pending,
            "jobs": self.jobs,
            "batch_max": self.batch_max,
            "submitted": counters.get("serve.submitted", 0.0),
            "deduped": counters.get("serve.deduped", 0.0),
            "completed": counters.get("serve.completed", 0.0),
            "failed": counters.get("serve.failed", 0.0),
            "rejected": counters.get("serve.rejected", 0.0),
            # Slow consumers shed events rather than growing queues; the
            # drop count is part of liveness, not a hidden metric.
            "events_dropped": counters.get("serve.events_dropped", 0.0),
            "breaker": {
                "state": self._breaker_state,
                "consecutive_failures": self._consec_failures,
                "opens": counters.get("serve.breaker_opens", 0.0),
            },
        }
        if self.journal is not None:
            info["journal"] = self.journal.stats()
            info["journal"]["errors"] = counters.get(
                "serve.journal_errors", 0.0
            )
        if self._recovery is not None:
            info["recovery"] = dict(self._recovery)
        return info

    def snapshot(self) -> MetricsSnapshot:
        """Service-side metrics (counters, gauges, latency histogram)."""
        self._publish_gauges()
        return self.metrics.snapshot()

    def sim_snapshot(self) -> MetricsSnapshot:
        """Simulation counters accumulated over every dispatched batch."""
        return MetricsSnapshot.from_counters(self._sim_counters)

    def prometheus(self) -> str:
        """The ``/metrics`` payload: service + simulation metrics.

        Service metrics render as ``repro_serve_*`` (the counters are
        already namespaced ``serve.*``, so the bare ``repro`` prefix
        composes without stuttering) and the accumulated simulation
        counters as ``repro_sim_*``.
        """
        return prometheus_multi({
            "repro": self.snapshot(),
            "repro_sim": self.sim_snapshot(),
        })
