"""Kill-restart-recover soak driver for the durable serve layer.

One soak runs ``cycles`` rounds against a *shared* journal and result
cache, the way a crashing production service would see them:

1. **chaotic phase** — a service opens the journal (recovering whatever
   the previous round left behind), a burst of jobs is submitted, a
   seeded :class:`~repro.chaos.inject.ChaosInjector` tears writes,
   raises I/O errors, corrupts blobs and kills workers while part of
   the burst completes — then the service is :meth:`abandoned
   <repro.serve.service.SimulationService.abandon>` mid-queue and a
   garbage half-record is appended to the journal (crash mid-append);
2. **recovery phase** — a fresh :class:`~repro.harness.runner.Runner`
   on the same settings stands in for a new process (memory gone, disk
   kept), a fresh chaos-free service replays the journal, finishes
   every re-owned job, and jobs that were *served* a chaos failure are
   resubmitted a bounded number of times (the client-retry model).

After every cycle two invariants are checked:

* **no acked job is lost** — every job id acknowledged in phase 1 is
  present with a terminal status after phase 2;
* **bit-identical results** — every completed job's
  :func:`~repro.verify.golden.entry_for` core digest equals the pinned
  golden entry for its (app, policy) pair.

The report this returns is what ``repro-oasis chaos`` prints and what
``tests/chaos/test_soak.py`` asserts on.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

from repro.chaos.inject import ChaosInjector
from repro.chaos.plan import ChaosPlan
from repro.harness.runner import Runner, RunnerSettings
from repro.serve.service import AdmissionError, SimulationService
from repro.verify.golden import entry_for, golden_key, load_golden

#: Wall-clock budget for one phase of one cycle.
DEFAULT_PHASE_TIMEOUT_S = 30.0

#: Times a job served a chaos failure is resubmitted before giving up.
DEFAULT_RESUBMIT_LIMIT = 3

#: Default burst: small enough that ``cycles=3`` fits the 2-minute CI
#: budget, large enough that a crash always strands queued work.
DEFAULT_APPS = ("st", "mm")
DEFAULT_POLICIES = ("oasis", "on_touch")


def _terminal(service: SimulationService, ids) -> int:
    count = 0
    for job_id in ids:
        job = service.job(job_id)
        if job is not None and job.status in ("done", "failed"):
            count += 1
    return count


async def _wait_idle(
    service: SimulationService, timeout_s: float
) -> bool:
    """Wait until nothing is queued, running or chained."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        busy = (
            service._heap
            or service._batch_inflight
            or any(
                job.status in ("queued", "running")
                for job in service._jobs.values()
            )
        )
        if not busy:
            return True
        await asyncio.sleep(0.02)
    return False


def _append_torn_tail(journal_dir: Path) -> bool:
    """Simulate a crash mid-append: garbage half-record on the tail."""
    segments = sorted(journal_dir.glob("journal-*.jsonl"))
    if not segments:
        return False
    with segments[-1].open("a", encoding="utf-8") as fh:
        fh.write('{"v": 1, "seq": 999999, "kind": "accepted", "data"')
    return True


async def _soak_cycle(
    cycle: int,
    plan: ChaosPlan,
    *,
    apps,
    policies,
    journal_dir: Path,
    settings: RunnerSettings,
    golden_entries: dict,
    resubmit_limit: int,
    phase_timeout_s: float,
) -> dict:
    summary = {
        "cycle": cycle,
        "plan": plan.digest(),
        "acked": 0,
        "refused": 0,
        "completed_before_crash": 0,
        "lost": [],
        "mismatched": [],
        "resubmitted": 0,
        "unrecovered_failures": [],
    }

    # -- phase 1: chaotic service, abandoned mid-queue ----------------------
    injector = ChaosInjector(plan)
    # batch_max=1 makes completion incremental, so the crash lands with
    # a mix of done, dispatched and still-queued jobs in the journal.
    service = SimulationService(
        jobs=settings.jobs, batch_max=1, journal_dir=str(journal_dir),
        runner=Runner.from_settings(settings),
    )
    acked: dict[str, tuple[str, str]] = {}
    with injector:
        await service.start()
        for app in apps:
            for policy in policies:
                try:
                    job = await service.submit(
                        {"app": app, "policy": policy}
                    )
                except AdmissionError:
                    # A torn/failed journal append refuses the job: it
                    # was never acknowledged, so it owes nothing.
                    summary["refused"] += 1
                    continue
                acked[job.id] = (app, policy)
        # Let part of the burst complete, then crash — typically
        # mid-batch, stranding a mix of done, dispatched and
        # still-queued jobs for recovery to re-own.
        target = max(1, len(acked) // 2)
        deadline = time.monotonic() + phase_timeout_s
        while (
            _terminal(service, acked) < target
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.02)
        summary["completed_before_crash"] = _terminal(service, acked)
        await service.abandon()
    _append_torn_tail(journal_dir)
    summary["acked"] = len(acked)

    # -- phase 2: chaos-free recovery ---------------------------------------
    # "New process": a fresh runner on the same settings — memory gone,
    # disk survives.
    recovered = SimulationService(
        jobs=settings.jobs, journal_dir=str(journal_dir),
        runner=Runner.from_settings(settings),
    )
    await recovered.start()
    summary["recovery"] = dict(recovered._recovery or {})
    await _wait_idle(recovered, phase_timeout_s)

    # Every acked job must exist with a terminal outcome; jobs that were
    # *served* a chaos failure get the bounded client-retry treatment.
    final: dict[str, object] = {}
    for job_id in acked:
        final[job_id] = recovered.job(job_id)
    for _ in range(resubmit_limit):
        retry = [
            (job_id, acked[job_id])
            for job_id, job in final.items()
            if job is not None and job.status == "failed"
        ]
        if not retry:
            break
        for job_id, (app, policy) in retry:
            try:
                final[job_id] = await recovered.submit(
                    {"app": app, "policy": policy}
                )
                summary["resubmitted"] += 1
            except AdmissionError:
                pass
        await _wait_idle(recovered, phase_timeout_s)

    for job_id, job in final.items():
        app, policy = acked[job_id]
        label = f"{job_id}:{app}/{policy}"
        if job is None:
            summary["lost"].append(label)
            continue
        if job.status == "failed":
            summary["unrecovered_failures"].append(
                f"{label}: {(job.failure or {}).get('error_type')}"
            )
            continue
        if job.status != "done":
            summary["lost"].append(f"{label}: stuck in {job.status}")
            continue
        pinned = golden_entries.get(golden_key(app, policy))
        if pinned is None:
            continue
        fresh = entry_for(job.future.result())
        if fresh["core"] != pinned["core"]:
            summary["mismatched"].append(label)
    await recovered.stop()
    summary["chaos"] = injector.report()
    return summary


async def _soak(
    *,
    cycles: int,
    seed: int,
    apps,
    policies,
    journal_dir: Path,
    settings: RunnerSettings,
    resubmit_limit: int,
    phase_timeout_s: float,
) -> dict:
    golden_entries = load_golden().get("entries", {})
    per_cycle = []
    for cycle in range(cycles):
        # A tight ops horizon keeps the drawn op indices inside the op
        # counts a small burst actually generates, so events fire.
        plan = ChaosPlan.random(seed + cycle, ops_horizon=8)
        per_cycle.append(
            await _soak_cycle(
                cycle,
                plan,
                apps=apps,
                policies=policies,
                journal_dir=journal_dir,
                settings=settings,
                golden_entries=golden_entries,
                resubmit_limit=resubmit_limit,
                phase_timeout_s=phase_timeout_s,
            )
        )
    lost = [x for c in per_cycle for x in c["lost"]]
    mismatched = [x for c in per_cycle for x in c["mismatched"]]
    unrecovered = [x for c in per_cycle for x in c["unrecovered_failures"]]
    return {
        "cycles": cycles,
        "seed": seed,
        "apps": list(apps),
        "policies": list(policies),
        "acked": sum(c["acked"] for c in per_cycle),
        "refused": sum(c["refused"] for c in per_cycle),
        "resubmitted": sum(c["resubmitted"] for c in per_cycle),
        "lost": lost,
        "mismatched": mismatched,
        "unrecovered_failures": unrecovered,
        "ok": not (lost or mismatched or unrecovered),
        "per_cycle": per_cycle,
    }


def run_soak(
    journal_dir: str | Path,
    cache_dir: str | Path,
    *,
    cycles: int = 3,
    seed: int = 0,
    apps=DEFAULT_APPS,
    policies=DEFAULT_POLICIES,
    jobs: int = 1,
    resubmit_limit: int = DEFAULT_RESUBMIT_LIMIT,
    phase_timeout_s: float = DEFAULT_PHASE_TIMEOUT_S,
) -> dict:
    """Run a full kill-restart-recover soak; returns its report.

    ``journal_dir`` and ``cache_dir`` are shared across all cycles —
    they *are* the durable state under test.  The soak runs on its own
    runners over ``cache_dir``; the process-default runner is untouched.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    journal_dir = Path(journal_dir)
    journal_dir.mkdir(parents=True, exist_ok=True)
    return asyncio.run(
        _soak(
            cycles=cycles,
            seed=seed,
            apps=tuple(apps),
            policies=tuple(policies),
            journal_dir=journal_dir,
            settings=RunnerSettings(jobs=jobs, cache_dir=str(cache_dir)),
            resubmit_limit=resubmit_limit,
            phase_timeout_s=phase_timeout_s,
        )
    )
