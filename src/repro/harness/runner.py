"""Cached simulation runner.

Several figures share (config, workload, policy) combinations — Fig. 2 is
a subset of Fig. 15, Figs. 22/23/24 reuse the same OASIS/GRIT runs — so
simulation results are memoized at two levels, in one
:class:`~repro.harness.diskcache.Store` keyed by each run's
:func:`~repro.harness.diskcache.cache_key` digest, computed once per run:

* **in process** — a bounded LRU (default 256 results) keeps long sweep
  sessions from holding every result ever computed.
* **on disk** — optionally, a persistent content-addressed tier shared
  across processes and sessions.

A :class:`Runner` owns that store, its optional phase memo (see
:mod:`repro.sim.sweep`), a default worker count, its counters and the
summary of its last sweep.  The module keeps one process-default runner
behind :func:`configure`, :func:`run_sim`, :func:`run_sims_parallel`,
:func:`cache_stats` and the other module functions; it reads
``REPRO_DISK_CACHE``, ``REPRO_MEMO``/``REPRO_MEMO_DIR`` and the
``REPRO_RUNNER_CACHE_SIZE`` bound once, at import.  A caller that needs
a differently configured runner — the chaos soak, the recovery bench —
builds its own :class:`Runner` and passes ``runner=`` to
:func:`run_sims_parallel` (or to
:class:`~repro.serve.service.SimulationService`).

Independent runs can also be computed in parallel across worker
processes with :func:`run_sims_parallel`; :func:`speedup_table` uses it
to pre-warm the caches when ``jobs > 1``.  Every task carries the
parent runner's :class:`RunnerSettings`, and each worker builds one
runner from them that it reuses across its tasks.

The parallel path is crash-tolerant: each run has a bounded number of
attempts with exponential backoff, a per-run wall-clock timeout, and a
dying worker process takes down only its own run — the pool is rebuilt,
innocent in-flight runs are re-dispatched without penalty, and after
repeated pool failures the remaining work degrades to in-process serial
execution.  A run that still cannot complete yields a structured
:class:`RunFailure` in its result slot instead of aborting the sweep.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache

from repro import POLICY_FACTORIES, make_policy
from repro.config import SystemConfig
from repro.harness.diskcache import DISK_COUNTERS, DiskCache, Store, cache_key
from repro.harness.report import geomean
from repro.sim import SimulationResult, simulate
from repro.sim.sweep import COUNTERS as MEMO_COUNTERS, PhaseMemo
from repro.workloads import get_workload

#: Default cap on in-process memoized results.
DEFAULT_CACHE_SIZE = 256

#: Default attempts per run in :func:`run_sims_parallel` (1 = no retry).
DEFAULT_MAX_ATTEMPTS = 2

#: Pool rebuilds tolerated before degrading to in-process execution.
DEFAULT_POOL_FAILURE_LIMIT = 2

#: Counters every runner keeps, in :func:`cache_stats` order.
_STAT_NAMES = (
    # Request slots served from / missing the memory tier (a disk hit
    # counts as a miss: the run was not in memory).
    "hits", "misses", "run_retries", "pool_failures",
)
#: Chaos-injection hook (see :mod:`repro.chaos.inject`); None = inert.
_CHAOS = None


@dataclass(frozen=True)
class RunnerSettings:
    """Everything a :class:`Runner` is built from, as one picklable value.

    Pool workers get their parent runner's settings with every task: a
    ``spawn``-started worker (or one forked before a later
    :meth:`Runner.configure`) would otherwise compute under defaults.
    """

    jobs: int = 1
    #: Persistent result-store directory; None = no disk tier.
    cache_dir: str | None = None
    cache_size: int = DEFAULT_CACHE_SIZE
    memo: bool = False
    memo_dir: str | None = None


class Runner:
    """A results store, an optional phase memo, a default worker count,
    counters and the last sweep's summary.

    Built from the :meth:`configure` arguments plus ``cache_size``, the
    memory tier's bound, or from :class:`RunnerSettings`.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        disk_cache: bool = False,
        cache_dir: str | None = None,
        memo: bool | None = None,
        memo_dir: str | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.jobs = 1
        self.results = Store(None, max_entries=cache_size)
        self.stats = dict.fromkeys(_STAT_NAMES, 0)
        #: Observability summary of the most recent
        #: :func:`run_sims_parallel` sweep (see :func:`last_sweep_summary`).
        self.last_sweep: dict | None = None
        self._memo: PhaseMemo | None = None
        self._memo_dir: str | None = None
        self._memo_enabled = False
        self.configure(jobs=jobs, disk_cache=disk_cache, cache_dir=cache_dir,
                       memo=memo, memo_dir=memo_dir)

    @classmethod
    def from_settings(cls, settings: RunnerSettings) -> Runner:
        return cls(**dataclasses.asdict(settings))

    def settings(self) -> RunnerSettings:
        disk = self.results.disk
        return RunnerSettings(
            jobs=self.jobs,
            cache_dir=str(disk.root) if disk is not None else None,
            cache_size=self.results.max_entries,
            memo=self._memo_enabled,
            memo_dir=self._memo_dir,
        )

    def configure(
        self,
        jobs: int | None = None,
        disk_cache: bool | None = None,
        cache_dir: str | None = None,
        memo: bool | None = None,
        memo_dir: str | None = None,
    ) -> None:
        """Adjust this runner's settings; None leaves one unchanged.

        Args:
            jobs: default worker-process count for :func:`run_sims_parallel`
                and :func:`speedup_table` (1 = serial).
            disk_cache: enable/disable the persistent result store.
            cache_dir: directory for the persistent store (implies enabling
                it); defaults to ``results/cache`` / ``REPRO_CACHE_DIR``.
            memo: enable/disable the phase memo (per-run resume
                snapshots; see :mod:`repro.sim.sweep`).  Off by default
                (``REPRO_MEMO=1`` enables it on the process-default
                runner); the sweep CLI turns it on for sweeps unless
                ``--no-memo`` is given.
            memo_dir: directory for a persistent snapshot tier (implies
                enabling the memo).  Without it, snapshots share the result
                store's directory when the disk cache is on, else stay
                purely in-memory.
        """
        if jobs is not None:
            if jobs < 1:
                raise ValueError("jobs must be >= 1")
            self.jobs = jobs
        if cache_dir is not None:
            self.results.disk = DiskCache(cache_dir)
            self._memo = None  # a shared-disk memo tier must follow the move
        elif disk_cache is not None:
            self.results.disk = DiskCache() if disk_cache else None
            self._memo = None
        if memo_dir is not None:
            self._memo_dir = memo_dir or None
            self._memo = None
            if memo is None:
                memo = True
        if memo is not None:
            self._memo_enabled = bool(memo)
            if not self._memo_enabled:
                self._memo = None

    def memo_store(self) -> PhaseMemo | None:
        """The snapshot store, built lazily when enabled."""
        if not self._memo_enabled:
            return None
        if self._memo is None:
            disk = DiskCache(self._memo_dir) if self._memo_dir else self.results.disk
            self._memo = PhaseMemo(disk=disk)
        return self._memo

    def clear(self) -> None:
        """Drop all in-process memoized results and reset counters."""
        self.results.clear()
        self.stats.update(dict.fromkeys(self.stats, 0))
        if self.results.disk is not None:
            self.results.disk.reset_stats()
        if self._memo is not None:
            self._memo.clear()

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters for both cache levels."""
        store = self.results.stats()
        disk = self.results.disk
        return {
            "size": store["entries"],
            "capacity": self.results.max_entries,
            "evictions": store["evictions"],
            # Result writes that failed with OSError (disk full, chaos
            # injection): the result survives in memory and is recomputed
            # by a later process instead of crashing this one.
            "store_errors": store["store_errors"],
            **self.stats,
            **(disk.stats() if disk is not None
               else dict.fromkeys(DISK_COUNTERS, 0)),
        }

    def memo_stats(self) -> dict:
        """Phase-memo counters: this runner's :class:`PhaseMemo` counts
        serial runs itself and adds the deltas pool workers ship back."""
        if self._memo is not None:
            stats = self._memo.stats()
        else:
            stats = dict.fromkeys(
                (*MEMO_COUNTERS, "mem_entries", "mem_bytes"), 0
            )
        stats["enabled"] = self._memo_enabled
        return stats

    def publish_memo_metrics(self, registry) -> None:
        """Publish :meth:`memo_stats` as gauges on an obs registry.

        Serve-mode and CLI sweeps call this after each sweep so dashboards
        see the same numbers ``last_sweep_summary`` reports.
        """
        for name, value in self.memo_stats().items():
            registry.set_gauge(f"memo.{name}", float(value))

    def run_sim(
        self,
        config: SystemConfig,
        app: str,
        policy: str,
        *,
        footprint_mb: float | None = None,
        seed: int = 0,
        **policy_kwargs,
    ) -> SimulationResult:
        """Simulate one (config, app, policy) combination, memoized."""
        return self.run(_normalize_request({
            "config": config, "app": app, "policy": policy,
            "footprint_mb": footprint_mb, "seed": seed,
            "policy_kwargs": policy_kwargs,
        }))

    def run(self, spec: dict) -> SimulationResult:
        """Serve one normalized spec from the store, or simulate and
        store it."""
        config, app, policy = spec["config"], spec["app"], spec["policy"]
        if policy not in POLICY_FACTORIES:
            known = ", ".join(sorted(POLICY_FACTORIES))
            raise ValueError(f"unknown policy {policy!r}; known: {known}")
        key = spec["key"]
        result, tier = self.results.lookup(key)
        self.stats["hits" if tier == "memory" else "misses"] += 1
        if result is not None:
            return result
        trace = get_workload(
            app, config, footprint_mb=spec["footprint_mb"], seed=spec["seed"]
        )
        memo = self.memo_store()
        session = memo.session(key) if memo is not None else None
        result = simulate(
            config, trace, make_policy(policy, **spec["policy_kwargs"]),
            memo=session,
        )
        # A failed disk write (disk full, injected fault) keeps the valid
        # result in memory; the store counts it and a later process
        # recomputes it.
        self.results.put(key, result)
        return result


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip() not in ("", "0")


def _cache_capacity() -> int:
    raw = os.environ.get("REPRO_RUNNER_CACHE_SIZE", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return DEFAULT_CACHE_SIZE


#: The process-default runner behind the module-level functions
#: (``REPRO_MEMO_DIR`` implies the memo, as ``memo_dir`` does).
_DEFAULT = Runner(
    disk_cache=_env_flag("REPRO_DISK_CACHE"),
    memo=_env_flag("REPRO_MEMO") or None,
    memo_dir=os.environ.get("REPRO_MEMO_DIR", "").strip() or None,
    cache_size=_cache_capacity(),
)


def default_runner() -> Runner:
    """The process-default runner the module-level functions act on."""
    return _DEFAULT


def disk_cache() -> DiskCache | None:
    """The default runner's persistent result store, or None."""
    return _DEFAULT.results.disk


def result_store() -> Store:
    """The default runner's two-tier results store."""
    return _DEFAULT.results


def last_sweep_summary() -> dict | None:
    """Observability summary of the default runner's most recent sweep.

    ``None`` until :func:`run_sims_parallel` has run.  The summary is a
    plain JSON-serializable dict::

        {
          "runs": 12, "ok": 11, "failed": 1,
          "cache": {"hits": 4, "misses": 8,
                    "run_retries": 1, "pool_failures": 0},
          "memo": {"enabled": True, "hits": 6, "misses": 2,
                   "stores": 14, "snapshot_bytes": 5242880,
                   "resumed_phases": 38, "corrupt": 0,
                   "io_errors": 0},
          "wall_clock_s": {"total": 3.2,
                           "per_run": {"st/oasis": 0.41, ...}},
          "counters": {"fault.page": ..., "migration.count": ..., ...},
        }

    ``counters`` is the merge of every successful run's metric snapshot,
    so a sweep report and the individual run traces can never disagree
    on a total.
    """
    return _DEFAULT.last_sweep


# The process-default runner's methods, as module functions.
configure = _DEFAULT.configure
clear_cache = _DEFAULT.clear
cache_stats = _DEFAULT.cache_stats
memo_stats = _DEFAULT.memo_stats
publish_memo_metrics = _DEFAULT.publish_memo_metrics
run_sim = _DEFAULT.run_sim


def _spec_label(spec: dict) -> str:
    """Human-readable run label for the sweep summary."""
    label = f"{spec['app']}/{spec['policy']}"
    if spec["footprint_mb"] is not None:
        label += f"@{spec['footprint_mb']:g}MB"
    if spec["seed"]:
        label += f"#{spec['seed']}"
    return label


# -- parallel execution ----------------------------------------------------


@dataclass
class RunFailure:
    """Structured diagnosis of one run that could not be completed.

    :func:`run_sims_parallel` puts one of these in the failed run's
    result slot instead of aborting the sweep — a 55-run sweep with one
    poisoned run yields 54 results plus one ``RunFailure``.
    """

    app: str
    policy: str
    footprint_mb: float | None = None
    seed: int = 0
    policy_kwargs: dict = field(default_factory=dict)
    #: Exception class name (``"TimeoutError"``, ``"WorkerCrash"``, ...).
    error_type: str = ""
    message: str = ""
    #: Attempts consumed before giving up.
    attempts: int = 0
    traceback: str = ""

    @property
    def ok(self) -> bool:
        return False

    def __str__(self) -> str:
        return (
            f"FAILED {self.app}/{self.policy} (seed={self.seed}): "
            f"{self.error_type}: {self.message} "
            f"[{self.attempts} attempt(s)]"
        )


def _normalize_request(request) -> dict:
    if isinstance(request, dict):
        spec = dict(request)
    else:
        config, app, policy, *rest = request
        spec = {"config": config, "app": app, "policy": policy}
        if rest:
            spec.update(rest[0])
    spec.setdefault("footprint_mb", None)
    spec.setdefault("seed", 0)
    spec.setdefault("policy_kwargs", {})
    if "key" not in spec:
        # The run identity everywhere below, computed once per spec.
        spec["key"] = cache_key(
            spec["config"], spec["app"], spec["policy"],
            spec["footprint_mb"], spec["seed"], spec["policy_kwargs"],
        )
    return spec


def _run_spec(runner: Runner, spec: dict) -> SimulationResult:
    if _CHAOS is not None:
        # May raise a retryable ChaosWorkerKill before the run counts a
        # cache miss, mirroring a worker that dies pre-compute.
        _CHAOS.run_fault(spec["app"], spec["policy"])
    return runner.run(spec)


def _maybe_fault_hook(spec: dict) -> None:
    """Honor the harness's own fault hooks (for resilience self-tests).

    ``REPRO_HARNESS_CRASH="app:policy@/path/sentinel"`` hard-kills the
    worker (``os._exit``) the first time it runs that spec; the sentinel
    file makes the crash one-shot so the retry can succeed.  Omitting
    ``@sentinel`` crashes every attempt (a deterministically poisoned
    run).  ``REPRO_HARNESS_HANG`` sleeps instead, exercising the per-run
    timeout path, and ``REPRO_HARNESS_RAISE`` raises a retryable
    ``OSError`` in-process, exercising the retry/backoff path without
    killing the worker.
    """
    for env, action in (
        ("REPRO_HARNESS_CRASH", "crash"),
        ("REPRO_HARNESS_HANG", "hang"),
        ("REPRO_HARNESS_RAISE", "raise"),
    ):
        raw = os.environ.get(env, "").strip()
        if not raw:
            continue
        target, _, sentinel = raw.partition("@")
        if target != f"{spec['app']}:{spec['policy']}":
            continue
        if sentinel:
            if os.path.exists(sentinel):
                continue
            with open(sentinel, "w"):
                pass
        if action == "crash":
            os._exit(13)
        if action == "raise":
            raise OSError(f"injected transient failure for {target}")
        time.sleep(3600.0)


@lru_cache(maxsize=1)
def _worker_runner(settings: RunnerSettings) -> Runner:
    """The one runner a pool worker reuses across its tasks, so the
    worker-side memo memory tier spans runs."""
    return Runner.from_settings(settings)


def _worker(payload: tuple) -> tuple:
    """Pool entry point: run one spec, ship back (result, memo delta).

    Workers are long-lived, so memo counters accumulate across the runs
    one worker computes; the delta is this run's counter movement, which
    the parent adds into its own :class:`PhaseMemo`.
    """
    spec, settings = payload
    runner = _worker_runner(settings)
    _maybe_fault_hook(spec)
    memo = runner.memo_store()
    before = memo.stats() if memo is not None else None
    result = _run_spec(runner, spec)
    if memo is None:
        return result, None
    after = memo.stats()
    return result, {key: after[key] - before[key] for key in MEMO_COUNTERS}


def _failure_from(spec: dict, attempts: int, exc: BaseException | None,
                  error_type: str = "", message: str = "") -> RunFailure:
    if exc is not None:
        error_type = type(exc).__name__
        message = str(exc)
        tb = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    else:
        tb = ""
    return RunFailure(
        app=spec["app"],
        policy=spec["policy"],
        footprint_mb=spec["footprint_mb"],
        seed=spec["seed"],
        policy_kwargs=dict(spec["policy_kwargs"]),
        error_type=error_type,
        message=message,
        attempts=attempts,
        traceback=tb,
    )


#: Exception classes worth retrying: environmental, not deterministic.
_RETRYABLE = (OSError, EOFError, MemoryError)

#: Ceiling on one retry-backoff sleep (override with
#: ``REPRO_RETRY_BACKOFF_MAX_S``).  Without it the exponential grows
#: unboundedly — at the default 50 ms base, attempt 12 would already
#: sleep 102 s, stalling a sweep for minutes on a flaky run.
DEFAULT_RETRY_BACKOFF_MAX_S = 5.0


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            return max(0.0, float(raw))
        except ValueError:
            pass
    return default


def _backoff_delay(attempt: int) -> float:
    """Exponential backoff for retry ``attempt``, capped at a max delay."""
    base = _env_float("REPRO_RETRY_BACKOFF_S", 0.05)
    cap = _env_float("REPRO_RETRY_BACKOFF_MAX_S", DEFAULT_RETRY_BACKOFF_MAX_S)
    return min(base * (2.0 ** max(0, attempt - 1)), cap)


def _retry_backoff(attempt: int) -> None:
    delay = _backoff_delay(attempt)
    if delay:
        time.sleep(delay)


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a (possibly wedged) pool down hard, killing stray workers."""
    procs = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()


def _drain_pool(
    runner: Runner,
    pending: dict,
    n_jobs: int,
    timeout_s: float | None,
    max_attempts: int,
    pool_failure_limit: int,
    fresh: dict,
    failures: dict,
    timings: dict,
) -> dict[str, int]:
    """Compute every ``pending`` run with crash/timeout isolation.

    Fills ``fresh`` (key → result) and ``failures`` (key → RunFailure);
    each completed run records its wall-clock seconds (including
    queueing on a busy pool) in ``timings`` under its key.  Returns the
    runs a pool that kept dying left unfinished, each with the attempts
    it already used, for the caller's in-process loop.
    """
    settings = runner.settings()
    queue: deque = deque(pending.items())
    attempts = {key: 0 for key in pending}
    pool: ProcessPoolExecutor | None = ProcessPoolExecutor(max_workers=n_jobs)
    pool_failures = 0
    inflight: dict = {}
    try:
        while queue or inflight:
            broken = False
            while not broken and queue and len(inflight) < n_jobs:
                key, spec = queue.popleft()
                attempts[key] += 1
                try:
                    future = pool.submit(_worker, (spec, settings))
                except Exception:
                    attempts[key] -= 1
                    queue.appendleft((key, spec))
                    broken = True
                    break
                deadline = (
                    time.monotonic() + timeout_s if timeout_s else None
                )
                inflight[future] = (key, spec, deadline, time.monotonic())
            if not broken and inflight:
                wait_timeout = None
                deadlines = [
                    d for (_, _, d, _) in inflight.values() if d is not None
                ]
                if deadlines:
                    wait_timeout = max(
                        0.01, min(deadlines) - time.monotonic()
                    )
                done, _ = wait(
                    set(inflight),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    key, spec, _deadline, started = inflight.pop(future)
                    try:
                        result, memo_delta = future.result()
                    except BrokenProcessPool:
                        # The dead worker poisoned every in-flight future;
                        # the culprit cannot be attributed, so nobody is
                        # charged an attempt — termination is bounded by
                        # the pool-failure limit instead.
                        broken = True
                        attempts[key] -= 1
                        queue.append((key, spec))
                        continue
                    except Exception as exc:
                        if (
                            isinstance(exc, _RETRYABLE)
                            and attempts[key] < max_attempts
                        ):
                            runner.stats["run_retries"] += 1
                            _retry_backoff(attempts[key])
                            queue.append((key, spec))
                        else:
                            failures[key] = _failure_from(
                                spec, attempts[key], exc
                            )
                        continue
                    if memo_delta is not None:
                        runner.memo_store().merge(memo_delta)
                    fresh[key] = result
                    timings[key] = time.monotonic() - started
                now = time.monotonic()
                expired = [
                    f
                    for f, (_, _, d, _) in inflight.items()
                    if d is not None and d <= now
                ]
                for future in expired:
                    # A hung run: the only way to reclaim its worker is
                    # to tear the whole pool down.
                    broken = True
                    key, spec, _deadline, _started = inflight.pop(future)
                    if attempts[key] < max_attempts:
                        runner.stats["run_retries"] += 1
                        queue.append((key, spec))
                    else:
                        failures[key] = _failure_from(
                            spec,
                            attempts[key],
                            None,
                            error_type="TimeoutError",
                            message=f"run exceeded {timeout_s}s wall clock",
                        )
            if broken:
                for future, (key, spec, _deadline, _started) in inflight.items():
                    # Innocent victims of the rebuild: no attempt charged.
                    attempts[key] -= 1
                    queue.append((key, spec))
                inflight.clear()
                _teardown_pool(pool)
                runner.stats["pool_failures"] += 1
                pool_failures += 1
                if pool_failures > pool_failure_limit:
                    pool = None
                    break
                pool = ProcessPoolExecutor(max_workers=n_jobs)
    finally:
        if pool is not None:
            _teardown_pool(pool)
    # Empty unless the pool degraded: its broken branch moved every
    # in-flight run back onto the queue, uncharged.
    return {key: attempts[key] for key, _spec in queue}


def run_sims_parallel(
    requests,
    jobs: int | None = None,
    *,
    timeout_s: float | None = None,
    max_attempts: int | None = None,
    pool_failure_limit: int = DEFAULT_POOL_FAILURE_LIMIT,
    runner: Runner | None = None,
) -> list:
    """Run many independent simulations across worker processes.

    Args:
        requests: iterable of run specs — either
            ``(config, app, policy)`` triples (optionally with a fourth
            element: a dict of ``footprint_mb`` / ``seed`` /
            ``policy_kwargs`` extras) or dicts with those keys.
        jobs: worker processes; defaults to the runner's ``jobs``.
            With ``jobs=1`` everything runs serially in-process.
        timeout_s: per-run wall-clock limit (pool mode only); defaults
            to ``REPRO_RUN_TIMEOUT_S`` (unset = no limit).  A run that
            exceeds it is killed with its pool and retried.
        max_attempts: attempts per run before recording a failure;
            defaults to ``REPRO_RUN_MAX_ATTEMPTS`` (fallback 2).
        pool_failure_limit: pool rebuilds tolerated before the remaining
            work degrades to in-process serial execution.
        runner: the :class:`Runner` whose store, memo, counters and
            sweep summary the sweep uses; defaults to the process-default
            runner.

    Returns:
        One entry per request, in request order: a
        :class:`~repro.sim.SimulationResult`, or a :class:`RunFailure`
        for a run that exhausted its attempts.  The sweep itself never
        raises for a failing run.  Each successful result also lands in
        the in-process cache (and, when enabled, the disk cache —
        workers write it, so a crashed sweep keeps its finished runs).
    """
    if runner is None:
        runner = _DEFAULT
    stats = runner.stats
    if _CHAOS is not None:
        delay = _CHAOS.dispatch_delay()
        if delay:
            time.sleep(delay)
    sweep_started = time.monotonic()
    stats_before = dict(stats)
    memo_before = runner.memo_stats()
    timings: dict[str, float] = {}
    specs = [_normalize_request(r) for r in requests]
    n_jobs = jobs if jobs is not None else runner.jobs
    if n_jobs < 1:
        raise ValueError("jobs must be >= 1")
    n_jobs = min(n_jobs, max(1, len(specs)))
    if timeout_s is None:
        raw = os.environ.get("REPRO_RUN_TIMEOUT_S", "").strip()
        if raw:
            try:
                timeout_s = float(raw)
            except ValueError:
                timeout_s = None
    if max_attempts is None:
        raw = os.environ.get("REPRO_RUN_MAX_ATTEMPTS", "").strip()
        max_attempts = DEFAULT_MAX_ATTEMPTS
        if raw:
            try:
                max_attempts = max(1, int(raw))
            except ValueError:
                pass
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")

    # Only ship cache misses to the pool, and each distinct run once.
    pending: dict[str, dict] = {}
    for spec in specs:
        key = spec["key"]
        if key not in runner.results and key not in pending:
            pending[key] = spec

    fresh: dict[str, SimulationResult] = {}
    failures: dict[str, RunFailure] = {}
    used: dict[str, int] = {}
    if pending and n_jobs > 1:
        used = _drain_pool(
            runner,
            pending,
            n_jobs,
            timeout_s,
            max_attempts,
            pool_failure_limit,
            fresh,
            failures,
            timings,
        )

    # Assemble results in request order.  Cache accounting reconciles:
    # every request slot is exactly one hit or one miss (failures are
    # neither — they were never computed).  Work computed in the pool is
    # counted as a miss at its first request slot.  Everything else runs
    # here, in-process: duplicates and already-cached specs (a hit), the
    # serial path (jobs=1), and runs a degraded pool left unfinished,
    # which keep the attempts they used there.  (Timeouts cannot be
    # enforced without process isolation.)
    out: list = []
    counted: set[str] = set()
    for spec in specs:
        key = spec["key"]
        if key in failures:
            out.append(failures[key])
            continue
        if key in fresh and key not in counted:
            counted.add(key)
            stats["misses"] += 1
            # Workers already persisted pool results to the disk tier.
            runner.results.put(key, fresh[key], persist=False)
            out.append(fresh[key])
            continue
        started = time.monotonic()
        attempt = used.get(key, 0)
        while True:
            attempt += 1
            try:
                result = _run_spec(runner, spec)
                break
            except Exception as exc:
                # Retry the environmental failures the pool path would
                # retry, then diagnose instead of aborting.
                if isinstance(exc, _RETRYABLE) and attempt < max_attempts:
                    stats["run_retries"] += 1
                    _retry_backoff(attempt)
                    continue
                result = _failure_from(spec, attempt, exc)
                break
        if isinstance(result, RunFailure):
            # Duplicates share the diagnosis, as they do a pool failure.
            failures[key] = result
            out.append(result)
            continue
        timings.setdefault(key, time.monotonic() - started)
        out.append(result)

    # Sweep-level observability summary: per-run metric snapshots are
    # merged into one counter view, and cache/retry accounting is the
    # delta over this sweep only (not process lifetime).
    merged: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for spec, result in zip(specs, out):
        key = spec["key"]
        if isinstance(result, SimulationResult) and key not in merged:
            snap_counters = result.metrics_snapshot().counters
            merged[key] = snap_counters
            for name, value in snap_counters.items():
                counters[name] = counters.get(name, 0.0) + value
    n_failed = sum(1 for r in out if isinstance(r, RunFailure))
    memo_after = runner.memo_stats()
    summary = {
        "runs": len(specs),
        "ok": len(specs) - n_failed,
        "failed": n_failed,
        "cache": {
            name: stats[name] - stats_before[name]
            for name in ("hits", "misses", "run_retries", "pool_failures")
        },
        # Phase-memo accounting, as a delta over this sweep only —
        # served and CLI sweeps read the same numbers from here.
        "memo": {
            "enabled": memo_after["enabled"],
            **{
                name: memo_after[name] - memo_before[name]
                for name in MEMO_COUNTERS
            },
        },
        "wall_clock_s": {
            "total": time.monotonic() - sweep_started,
            "per_run": {
                _spec_label(spec): timings[key]
                for spec in specs
                if (key := spec["key"]) in timings
            },
        },
        "counters": {name: counters[name] for name in sorted(counters)},
    }
    if any(name.startswith("tenant.") for name in counters):
        # Multi-tenant runs in the sweep: per-tenant rollup (faults, TLB
        # pressure, migration bandwidth, busiest-GPU time) aggregated
        # over every run that carried tenant counters.
        from repro.tenancy.fairness import tenant_rollup

        summary["tenancy"] = tenant_rollup(counters)
    runner.last_sweep = summary
    return out


def speedup_table(
    config: SystemConfig,
    apps: list[str],
    policies: list[str],
    baseline: str = "on_touch",
    baseline_config: SystemConfig | None = None,
    footprint_mb: dict[str, float] | None = None,
    jobs: int | None = None,
    seed: int = 0,
) -> tuple[list[list], dict[str, float]]:
    """Speedups of each policy over the baseline, per app plus geomean.

    Args:
        config: configuration for the evaluated policies.
        apps: application names (rows).
        policies: policy names (columns).
        baseline: the normalization policy (on-touch in every figure).
        baseline_config: optional distinct config for the baseline run
            (defaults to ``config``).
        footprint_mb: optional per-app footprint override.
        jobs: pre-warm the caches with this many worker processes
            (defaults to the :func:`configure` value; 1 = serial).
        seed: workload seed applied to every cell (baseline included),
            so multi-seed sweeps measure run-to-run variance on distinct
            but equally shaped traces.

    Returns:
        ``(rows, geomeans)`` where each row is
        ``[app, speedup_policy1, ...]`` and ``geomeans`` maps policy name
        to its geometric-mean speedup.
    """
    base_cfg = baseline_config or config
    n_jobs = jobs if jobs is not None else _DEFAULT.jobs
    if n_jobs > 1:
        requests = []
        for app in apps:
            mb = footprint_mb.get(app) if footprint_mb else None
            extras = {"footprint_mb": mb, "seed": seed}
            requests.append((base_cfg, app, baseline, extras))
            for policy in policies:
                requests.append((config, app, policy, extras))
        run_sims_parallel(requests, jobs=n_jobs)
    rows = []
    per_policy: dict[str, list[float]] = {p: [] for p in policies}
    for app in apps:
        mb = footprint_mb.get(app) if footprint_mb else None
        base = run_sim(base_cfg, app, baseline, footprint_mb=mb, seed=seed)
        row: list = [app]
        for policy in policies:
            result = run_sim(config, app, policy, footprint_mb=mb, seed=seed)
            speedup = result.speedup_over(base)
            row.append(speedup)
            per_policy[policy].append(speedup)
        rows.append(row)
    geomeans = {p: geomean(v) for p, v in per_policy.items()}
    rows.append(["geomean", *(geomeans[p] for p in policies)])
    return rows, geomeans
