"""The four workloads.  Each one sets up, runs a closed loop of jobs
(one job = one simulation result delivered), checks the outputs and
returns an :class:`Outcome` from which :mod:`perfbench.metrics` derives
every metric.

Work per run is a fixed function of ``--seconds`` (passes, rounds or
requests), so the parent and a change do the same work.  Every timed
interval is converted to reference seconds by the run's
:class:`~perfbench.stats.HostClock`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from perfbench import cells as C
from perfbench.stats import HostClock

#: Seconds of ``--seconds`` per replay_matrix pass and per sweep_store
#: round.  At the benchmark's 15 s that is 3 of each: about 35 s and
#: 50 s per run on a 2-CPU host with set-up and checks.
REPLAY_PASS_S = 5.0
SWEEP_ROUND_S = 5.0
#: Warm passes per sweep_store round (p90 lands in the populate pass).
WARM_PASSES = 3
#: Set-ups per run.  ``setup_s`` is the median of their ``make`` part
#: plus the median cold-import time.
SETUP_TRIALS = 3
#: replay_matrix takes a cold-import probe before every this many apps
#: of a pass (sweep_store before each pass), so the import probes sample
#: the host's speed over the whole run, not only its first seconds.
IMPORT_PROBE_APPS = 4
#: Modules every workload imports before its first job.
IMPORTS = (
    "repro.harness.runner", "repro.serve.http", "repro.cluster",
    "repro.verify.differential",
)
#: Run in a cold interpreter: imports IMPORTS and prints the import time
#: in reference seconds, from host-speed samples taken in that process.
IMPORT_PROBE = """
from time import perf_counter
from perfbench.stats import HostClock
clock = HostClock()
clock.sample()
t0 = perf_counter()
import {modules}
t1 = perf_counter()
clock.sample()
print(clock.ref_s(t0, t1))
""".format(modules=", ".join(IMPORTS))
#: Seconds to wait for one call into the in-process server's loop.
CALL_TIMEOUT_S = 60.0
#: Alternating on_touch rows per side of ``metrics_on_ratio``.
METRICS_ON_REPS = 3


@dataclass
class Job:
    cell: C.Cell
    t0: float
    t1: float
    ok: bool = True
    #: The job replayed its trace (a cold cell, or the first request
    #: of a cell on a fresh server), as opposed to reading a result.
    simulated: bool = True
    rid: str | None = None
    #: Server-side latency in host seconds (served jobs only).
    server_s: float | None = None
    result: object = None
    #: Reference seconds, set by :meth:`Outcome.finish`.
    latency_s: float = 0.0


@dataclass
class Round:
    """One unit of measured work (a pass, a round or a request stream)."""

    jobs: list = field(default_factory=list)
    #: Host-clock intervals whose sum is the round's window.
    intervals: list = field(default_factory=list)
    #: Reference seconds, set by :meth:`Outcome.finish`.
    window_s: float = 0.0


@dataclass
class Outcome:
    clock: HostClock = field(default_factory=HostClock)
    rounds: list = field(default_factory=list)
    #: Host-clock intervals of the set-up trials' ``make`` part.
    setup: list = field(default_factory=list)
    #: Reference seconds of each cold-import probe.
    imports: list = field(default_factory=list)
    #: Reference seconds, set by :meth:`finish`.
    setup_s: float = 0.0
    #: (app, footprint_mb, seed) -> trace records
    records: dict = field(default_factory=dict)
    #: Checks that are not jobs (the golden cell, direct runs).
    failed: int = 0
    attempted: int = 0
    mismatches: list = field(default_factory=list)
    #: Per-layer numbers read from public counters (name -> value).
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    #: Direct replays timed for the per-policy rates, when those are not
    #: the rounds' own jobs (served workloads: the served replays happen
    #: in the server, out of the client's sight).
    replays: Round | None = None
    #: Checks that replay cells, run by :meth:`settle` after the
    #: measured part (and outside any tracing of it).
    deferred: list = field(default_factory=list)

    @property
    def jobs(self) -> list:
        return [job for rnd in self.rounds for job in rnd.jobs]

    def settle(self) -> "Outcome":
        """Run the deferred checks, then convert times (see finish)."""
        while self.deferred:
            self.deferred.pop(0)()
        return self.finish()

    def golden(self, checker: C.Checker, root: Path) -> None:
        """Defer the default-footprint golden cell check."""
        def check() -> None:
            self.attempted += 1
            self.failed += not C.golden_check(checker, root)
        self.deferred.append(check)

    def finish(self) -> "Outcome":
        ref = self.clock.ref_s
        if self.setup:  # probes run without a set-up of their own
            self.setup_s = median(self.imports) + median(
                ref(t0, t1) for t0, t1 in self.setup)
        replays = [self.replays] if self.replays is not None else []
        for rnd in self.rounds + replays:
            rnd.window_s = sum(ref(t0, t1) for t0, t1 in rnd.intervals)
            for job in rnd.jobs:
                job.latency_s = ref(job.t0, job.t1)
        samples = self.clock.samples
        self.notes["host_window_s"] = sum(
            t1 - t0 for rnd in self.rounds for t0, t1 in rnd.intervals)
        self.notes["ref_window_s"] = sum(r.window_s for r in self.rounds)
        self.notes["host_loop_ms"] = {
            "samples": len(samples), "median": median(samples) * 1e3,
            "min": min(samples) * 1e3, "max": max(samples) * 1e3,
        }
        return self


class _NullRecorder:
    _null = contextlib.nullcontext()

    def span(self, name, rid=None):
        return self._null


NULL_RECORDER = _NullRecorder()


class Context:
    """Run-wide settings plus a scratch area inside the checkout."""

    def __init__(self, root: Path, *, seed: int, seconds: int,
                 tiny: bool = False) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        #: Replaced by a SpanRecorder for the traced half of a run.
        self.recorder = NULL_RECORDER
        self.scratch = root / ".perfbench_tmp" / f"run-{os.getpid()}"
        self._dirs = 0
        #: Caps passes/rounds (the untraced half of a traced run).
        self.max_units: int | None = None

    def units(self, unit_s: float) -> int:
        if self.tiny:
            return 1
        units = max(1, round(self.seconds / unit_s))
        return min(units, self.max_units or units)

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{self._dirs:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.scratch.parent.rmdir()

    def import_probe(self) -> float:
        """Reference seconds to import the program's modules in a cold
        interpreter (interpreter start-up is not counted)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), str(self.root)])
        # Bytecode goes to a cache of the run's own, so every probe but
        # the first reads it, whether or not the environment or the
        # checkout lets Python write __pycache__.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.scratch / "pycache")
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              check=True, cwd=self.root, timeout=120,
                              capture_output=True, text=True)
        return float(proc.stdout)

    def set_up(self, out: Outcome, make):
        """Time a cold import and ``make``, SETUP_TRIALS times; keep the
        last thing made and stop the others."""
        self.import_probe()  # fills the bytecode cache; not counted
        made = None
        for trial in range(SETUP_TRIALS):
            out.imports.append(self.import_probe())
            out.clock.sample()
            t0 = perf_counter()
            made = make()
            out.setup.append((t0, perf_counter()))
            out.clock.sample()
            if trial < SETUP_TRIALS - 1 and hasattr(made, "stop"):
                made.stop()
        return made


def clear_trace_caches() -> None:
    """Drop every built trace and memoized result, so the next build is
    cold."""
    from repro.harness import runner
    from repro.tenancy import mix
    from repro.workloads import registry

    runner.clear_cache()
    registry._cached_build.cache_clear()
    mix._cached_mix_build.cache_clear()


def count_records(cells_) -> dict:
    from repro import baseline_config
    from repro.workloads import get_workload

    config = baseline_config()
    records = {}
    for cell in cells_:
        key = (cell.app, cell.footprint_mb, cell.seed)
        if key not in records:
            records[key] = get_workload(
                cell.app, config, footprint_mb=cell.footprint_mb,
                seed=cell.seed,
            ).total_records
    return records


def store_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def result_files(path: Path) -> int:
    return sum(1 for _ in path.glob("??/*.json"))


# -- replay_matrix -----------------------------------------------------------


def replay_matrix(ctx: Context) -> Outcome:
    """Every app x policy cell, cold, serially in process."""
    import repro.workloads as workloads
    from repro import baseline_config, make_policy, simulate
    from repro.harness import configure

    out = Outcome()
    clock = out.clock
    rec = ctx.recorder

    def make():
        configure(jobs=1, disk_cache=False, memo=False)
        clear_trace_caches()
        return baseline_config()

    config = ctx.set_up(out, make)
    matrix = C.replay_cells(ctx.seed, ctx.tiny)
    checker = C.Checker()
    first_digests: dict = {}
    for index in range(ctx.units(REPLAY_PASS_S)):
        clear_trace_caches()
        rnd = Round()
        trace = None
        apps = 0
        with rec.span("replay.pass"):
            for cell in matrix:
                if trace is None or trace.name != cell.app:
                    if apps % IMPORT_PROBE_APPS == 0:
                        out.imports.append(ctx.import_probe())
                    apps += 1
                    clock.sample()
                    t0 = perf_counter()
                    trace = workloads.get_workload(
                        cell.app, config, footprint_mb=cell.footprint_mb,
                        seed=cell.seed,
                    )
                    rnd.intervals.append((t0, perf_counter()))
                    out.records[(cell.app, cell.footprint_mb, cell.seed)] = (
                        trace.total_records
                    )
                clock.sample()
                with rec.span("replay.cell"):
                    t0 = perf_counter()
                    result = simulate(config, trace, make_policy(cell.policy))
                    t1 = perf_counter()
                rnd.intervals.append((t0, t1))
                rnd.jobs.append(Job(cell, t0, t1, result=result))
        clock.sample()
        for job in rnd.jobs:
            digest = C.core_digest(job.result)
            job.result = None
            ok = checker.pinned(job.cell, digest)
            if index == 0:
                first_digests[job.cell] = digest
            else:
                ok = checker.same(f"{job.cell.label} pass {index}",
                                  digest, first_digests[job.cell]) and ok
            job.ok = ok
        out.rounds.append(rnd)
    out.notes["pinned_checks"] = checker.pinned_checks
    out.golden(checker, ctx.root)
    out.mismatches = checker.mismatches
    return out


def metrics_on_ratio(ctx: Context) -> float:
    """Host time of the on_touch row with a MetricsRegistry attached,
    over without (alternating, median of METRICS_ON_REPS each)."""
    import repro.workloads as workloads
    from repro import baseline_config, make_policy, simulate
    from repro.obs import MetricsRegistry

    config = baseline_config()
    row = [c for c in C.replay_cells(ctx.seed, ctx.tiny)
           if c.policy == "on_touch"]
    traces = [workloads.get_workload(c.app, config,
                                     footprint_mb=c.footprint_mb, seed=c.seed)
              for c in row]
    timings = {False: [], True: []}
    for _ in range(METRICS_ON_REPS):
        for observed in (False, True):
            t0 = perf_counter()
            for trace in traces:
                metrics = MetricsRegistry() if observed else None
                simulate(config, trace, make_policy("on_touch"),
                         metrics=metrics)
            timings[observed].append(perf_counter() - t0)
    return median(timings[True]) / median(timings[False])


# -- sweep_store -------------------------------------------------------------


def sweep_store(ctx: Context) -> Outcome:
    """Multi-phase apps through the harness with disk cache and memo on:
    a populate pass into a fresh store, then warm passes from disk."""
    from repro import baseline_config
    from repro.harness import (
        RunFailure, clear_cache, configure, last_sweep_summary,
        run_sims_parallel,
    )

    out = Outcome()
    clock = out.clock
    rec = ctx.recorder

    def make():
        store = ctx.fresh_dir("store")
        configure(jobs=1, cache_dir=str(store), memo=True)
        clear_trace_caches()
        return store

    store = ctx.set_up(out, make)
    config = baseline_config()
    grid = C.sweep_cells(ctx.seed, ctx.tiny)
    checker = C.Checker()
    memo = dict.fromkeys(("stores", "hits", "misses", "snapshot_bytes"), 0)
    cache = dict.fromkeys(("hits", "misses"), 0)
    stored = 0
    for index in range(ctx.units(SWEEP_ROUND_S)):
        if index:
            store = make()
        rnd = Round()
        cold_digests: dict = {}
        for phase in range(1 + WARM_PASSES):
            if phase:
                clear_cache()
            kind = "warm" if phase else "cold"
            out.imports.append(ctx.import_probe())
            with rec.span(f"sweep.{kind}_pass"):
                for cell in grid:
                    clock.sample()
                    with rec.span("sweep.cell"):
                        t0 = perf_counter()
                        result = run_sims_parallel([cell.spec(config)],
                                                   jobs=1)[0]
                        t1 = perf_counter()
                    summary = last_sweep_summary()
                    for name in memo:
                        memo[name] += summary["memo"][name]
                    for name in cache:
                        cache[name] += summary["cache"][name]
                    rnd.intervals.append((t0, t1))
                    job = Job(cell, t0, t1, simulated=not phase)
                    job.ok = not isinstance(result, RunFailure)
                    if job.ok:
                        digest = C.core_digest(result)
                        if phase:
                            job.ok = checker.same(
                                f"{cell.label} warm {phase}", digest,
                                cold_digests[cell],
                            )
                        else:
                            cold_digests[cell] = digest
                            job.ok = checker.pinned(cell, digest)
                    rnd.jobs.append(job)
            clock.sample()
        stored += store_bytes(store)
        out.rounds.append(rnd)
    out.deferred.append(lambda: out.records.update(count_records(grid)))
    out.layers.update({
        "memo.stores": memo["stores"], "memo.hits": memo["hits"],
        "memo.misses": memo["misses"],
        "memo.snapshot_bytes": memo["snapshot_bytes"],
        "harness.store.bytes": stored,
        "harness.cache.hits": cache["hits"],
        "harness.cache.misses": cache["misses"],
    })
    out.notes["pinned_checks"] = checker.pinned_checks
    out.golden(checker, ctx.root)
    out.mismatches = checker.mismatches
    return out


def memo_restore(ctx: Context) -> Outcome:
    """The memo's restore path, which sweep_store never takes (its warm
    passes are served by the result store, and no cell repeats).

    Populates a fresh store, deletes its result files but keeps the
    snapshot blobs, clears the in-process caches and runs the grid
    again: each multi-phase cell resumes from its deepest blob on disk.
    Restored results must equal the populate pass's.  Its own span
    recorder keeps the resumed runs out of the traced run's sim.* numbers.
    """
    from perfbench.spans import SpanRecorder, instrument, self_times
    from repro import baseline_config
    from repro.harness import (
        RunFailure, clear_cache, configure, last_sweep_summary,
        run_sims_parallel,
    )

    out = Outcome()
    store = ctx.fresh_dir("restore-store")
    configure(jobs=1, cache_dir=str(store), memo=True)
    clear_trace_caches()
    config = baseline_config()
    grid = C.sweep_cells(ctx.seed, ctx.tiny)
    checker = C.Checker()
    populated = {}
    for cell in grid:
        result = run_sims_parallel([cell.spec(config)], jobs=1)[0]
        if not isinstance(result, RunFailure):
            populated[cell] = C.core_digest(result)
            checker.pinned(cell, populated[cell])
    for path in store.glob("??/*.json"):
        path.unlink()
    clear_cache()
    recorder = SpanRecorder()
    rnd = Round()
    hits = 0
    with instrument(recorder):
        for cell in grid:
            out.clock.sample()
            t0 = perf_counter()
            result = run_sims_parallel([cell.spec(config)], jobs=1)[0]
            t1 = perf_counter()
            hits += last_sweep_summary()["memo"]["hits"]
            rnd.intervals.append((t0, t1))
            job = Job(cell, t0, t1)
            job.ok = (cell in populated
                      and not isinstance(result, RunFailure)
                      and checker.same(f"{cell.label} restored",
                                       C.core_digest(result), populated[cell]))
            rnd.jobs.append(job)
    out.clock.sample()
    out.rounds.append(rnd)
    out.layers.update({
        "memo.hits": hits,
        "memo.restore_s": self_times(recorder.spans).get("memo.restore",
                                                          0) / 1e9,
    })
    out.notes["pinned_checks"] = checker.pinned_checks
    out.mismatches = checker.mismatches
    return out


# -- served traffic ----------------------------------------------------------


class _LoopThread:
    """An asyncio loop on a thread, for an in-process server."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-serve", daemon=True)
        self.thread.start()

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            CALL_TIMEOUT_S
        )

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


class _InProcessServe:
    """ServeHttpServer + SimulationService(jobs=2) on loopback."""

    def __init__(self, ctx: Context) -> None:
        from repro.harness import clear_cache, configure
        from repro.serve import SimulationService
        from repro.serve.client import ServeClient
        from repro.serve.http import ServeHttpServer

        self.cache_dir = ctx.fresh_dir("serve-cache")
        journal = ctx.fresh_dir("serve-journal")
        configure(jobs=2, disk_cache=True, cache_dir=str(self.cache_dir))
        clear_cache()
        self.threads = _LoopThread()
        self.server = ServeHttpServer(
            SimulationService(jobs=2, journal_dir=str(journal)), port=0,
        )
        try:
            self.threads.call(self.server.start())
            self.client = ServeClient(port=self.server.port, timeout_s=120.0)
            if self.client.health()["status"] != "ok":
                raise RuntimeError("serve did not come up")
        except BaseException:
            self.stop()
            raise

    def health(self) -> dict:
        return self.client.health()

    def stop(self) -> None:
        try:
            self.threads.call(self.server.stop())
        finally:
            self.threads.close()


class _Cluster:
    """LocalCluster(workers=2), each worker at --jobs 1."""

    def __init__(self, ctx: Context) -> None:
        from repro.cluster import LocalCluster

        self.cluster = LocalCluster(workers=2, state_dir=ctx.fresh_dir(
            "cluster"), jobs=1)
        try:
            self.cluster.start()
        except BaseException:
            self.cluster.stop()
            raise
        self.cache_dir = self.cluster.cache_dir
        self.client = self.cluster.client(timeout_s=120.0)

    def health(self) -> dict:
        """Serve /healthz counters summed over the workers."""
        from repro.serve.client import ServeClient

        total = dict.fromkeys(("deduped", "completed", "rejected"), 0.0)
        for name in sorted(self.cluster.procs):
            info = self.cluster.ready_info(name)
            if info is None:
                continue
            host, port = info["url"].rsplit("/", 1)[-1].rsplit(":", 1)
            health = ServeClient(host, int(port), timeout_s=10).health()
            for key in total:
                total[key] += health.get(key, 0.0)
        return total

    def stop(self) -> None:
        self.cluster.stop()


def _drive(client, phases, rec, clock: HostClock) -> Round:
    """Two closed-loop client threads per phase, a barrier (and a
    host-speed sample) between phases.  No request is retried: a
    refusal or error is a failed job."""
    from repro.serve.client import ClientError

    seen: set = set()
    rnd = Round()

    def request(req, first: bool) -> Job:
        cell = req.cell
        payload = {
            "app": cell.app, "policy": cell.policy,
            "footprint_mb": cell.footprint_mb, "seed": cell.seed,
            "lane": req.lane, "wait": True,
        }
        with rec.span("client.request", rid=req.rid):
            t0 = perf_counter()
            try:
                response = client.post("/submit", payload)
            except (ClientError, OSError) as exc:
                response = exc
            t1 = perf_counter()
        job = Job(cell, t0, t1, rid=req.rid, simulated=first)
        if isinstance(response, Exception):
            job.ok = False
            job.result = f"{type(response).__name__}: {response}"
        else:
            job.server_s = response.get("job", {}).get("latency_s")
            job.result = response["result"]
        return job

    for phase in phases:
        firsts = []
        for req in phase.requests:
            firsts.append(req.cell not in seen)
            seen.add(req.cell)
        cursor = iter(zip(phase.requests, firsts))
        lock = threading.Lock()
        barrier = threading.Barrier(2) if phase.paired else None
        done: list = []
        errors: list = []

        def client_loop() -> None:
            try:
                while True:
                    if barrier is not None:
                        barrier.wait(timeout=60)
                    with lock:
                        item = next(cursor, None)
                    if item is None:
                        return
                    done.append(request(*item))
            except BaseException as exc:  # re-raised after the join
                errors.append(exc)
                if barrier is not None:
                    barrier.abort()

        threads = [threading.Thread(target=client_loop, name=f"client-{i}")
                   for i in range(2)]
        clock.sample()
        t0 = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError("a client thread failed") from errors[0]
        rnd.intervals.append((t0, perf_counter()))
        rnd.jobs += sorted(done, key=lambda job: job.rid)
    clock.sample()
    return rnd


def _check_served(out: Outcome, jobs, checker: C.Checker) -> None:
    """Re-simulate every distinct served cell directly, serially and
    timed (these replays feed the per-policy rates), and require every
    served result to equal its direct replay."""
    import repro.workloads as workloads
    from repro import baseline_config, make_policy, simulate
    from repro.sim import SimulationResult

    config = baseline_config()
    clear_trace_caches()
    distinct = sorted({job.cell for job in jobs if job.ok},
                      key=lambda c: (c.app, c.footprint_mb, c.seed,
                                     C.POLICIES.index(c.policy)))
    replays = Round()
    want = {}
    trace_key = trace = None
    for cell in distinct:
        key = (cell.app, cell.footprint_mb, cell.seed)
        if key != trace_key:
            trace_key = key
            trace = workloads.get_workload(cell.app, config,
                                           footprint_mb=cell.footprint_mb,
                                           seed=cell.seed)
        out.clock.sample()
        t0 = perf_counter()
        result = simulate(config, trace, make_policy(cell.policy))
        replays.jobs.append(Job(cell, t0, perf_counter()))
        want[cell] = C.core_digest(result)
    out.clock.sample()
    out.replays = replays
    for job in jobs:
        if job.ok:
            got = C.core_digest(SimulationResult.from_dict(job.result))
            job.ok = checker.same(f"served {job.cell.label} {job.rid}",
                                  got, want[job.cell])
        job.result = None


def _served(ctx: Context, make_target, label: str) -> Outcome:
    from repro.harness import cache_stats

    out = Outcome()
    target = ctx.set_up(out, lambda: make_target(ctx))
    phases = C.request_stream(ctx.seed, ctx.seconds, ctx.tiny)
    files_before = result_files(target.cache_dir)
    cache_before = cache_stats()
    try:
        with ctx.recorder.span(f"{label}.stream"):
            rnd = _drive(target.client, phases, ctx.recorder, out.clock)
        health = target.health()
        cache_after = cache_stats()
    finally:
        target.stop()
    out.rounds.append(rnd)
    checker = C.Checker()
    out.mismatches = checker.mismatches
    out.deferred.append(lambda: _check_served(out, rnd.jobs, checker))
    out.deferred.append(lambda: out.records.update(
        count_records([job.cell for job in rnd.jobs])))
    out.layers.update({
        "serve.deduped": health["deduped"],
        "serve.completed": health["completed"],
        "serve.rejected": health["rejected"],
        "serve.sim_share": (
            (result_files(target.cache_dir) - files_before) / len(rnd.jobs)
        ),
        "harness.store.bytes": store_bytes(target.cache_dir),
    })
    if isinstance(target, _InProcessServe):
        out.layers.update({
            f"harness.cache.{name}": cache_after[name] - cache_before[name]
            for name in ("hits", "misses")
        })
    else:
        out.layers.update(_cluster_layers(target.cluster))
    errors = [job.result for job in rnd.jobs if not job.ok]
    if errors:
        out.notes["request_errors"] = errors[:5]
    return out


def _hist_quantile(hist: dict, q: float) -> float:
    """Quantile from a fixed-bucket histogram, linear within a bucket."""
    total = hist["count"]
    if not total:
        return 0.0
    want = total * q
    running = 0
    lower = 0.0
    for bound, count in zip(hist["bounds"] + [float("inf")],
                            hist["counts"]):
        if count and running + count >= want:
            if bound == float("inf"):
                return lower
            return lower + (bound - lower) * (want - running) / count
        running += count
        lower = bound
    return lower


def _cluster_layers(cluster) -> dict:
    router = cluster.router
    stats = router.stats()
    forwarded = [w["forwarded"] for w in stats["workers"].values()]
    mean = sum(forwarded) / len(forwarded) if forwarded else 0.0
    hist = router.snapshot().histograms["cluster.route_ms"]
    return {
        "cluster.route_ms_p50": _hist_quantile(hist, 0.5),
        "cluster.forward_imbalance": max(forwarded) / mean if mean else 0.0,
        "cluster.store_hits": stats["cache_hits"],
        "cluster.router_deduped": stats["deduped"],
        "cluster.swallowed_errors": router.metrics.stats.as_dict().get(
            "cluster.swallowed_errors", 0.0),
    }


def serve_zipf(ctx: Context) -> Outcome:
    return _served(ctx, _InProcessServe, "serve")


def cluster_zipf(ctx: Context) -> Outcome:
    return _served(ctx, _Cluster, "cluster")


WORKLOADS = {
    "replay_matrix": replay_matrix,
    "sweep_store": sweep_store,
    "serve_zipf": serve_zipf,
    "cluster_zipf": cluster_zipf,
}
#: Runs made beside a traced workload, for per-layer metrics only.
PROBES = {
    "serve_zipf": serve_zipf,
    "cluster_zipf": cluster_zipf,
    "memo_restore": memo_restore,
}
