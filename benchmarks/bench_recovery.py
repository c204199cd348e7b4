"""Crash-recovery benchmark for the durable serve journal.

Journals a ``--burst`` (default 64) job burst into a service backed by
the write-ahead journal and a shared disk cache, kills the service
mid-flight (:meth:`~repro.serve.service.SimulationService.abandon` — the
in-process ``kill -9``), then measures what recovery actually costs:

* **recovery wall-clock** — the time a successor service spends in
  :meth:`~repro.serve.service.SimulationService.recover` replaying the
  journal and classifying every acked job;
* **re-simulation count** — cache misses incurred *during* recovery.
  Jobs that completed before the kill must recover straight from the
  disk cache with **zero** re-simulation; only the jobs the crash
  genuinely stranded are re-run, and that happens after recovery, on
  the normal dispatch path.

The run fails loudly if recovery itself re-simulates anything, or if
any acked job is missing after the successor service goes idle.

Results land in ``results/BENCH_recovery.json``.  ``--smoke`` shrinks
the burst for the CI job.

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke

Import-safe for pytest collection; the driver only runs under
``__main__``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.harness.runner import Runner, RunnerSettings  # noqa: E402
from repro.serve import SimulationService  # noqa: E402

#: The burst is one cheap app fanned out over seeds, so every job is a
#: distinct simulation (distinct cache key) but each costs well under a
#: second — the interesting time is recovery's, not the simulator's.
BURST_APP = "mm"
BURST_POLICY = "on_touch"
BURST_FOOTPRINT_MB = 4.0


def _burst_specs(burst: int) -> list[dict]:
    return [
        {
            "app": BURST_APP,
            "policy": BURST_POLICY,
            "footprint_mb": BURST_FOOTPRINT_MB,
            "seed": seed,
        }
        for seed in range(burst)
    ]


async def _phase_burst_and_kill(journal_dir: str, burst: int,
                                settings: RunnerSettings) -> dict:
    """Submit the burst, kill the service once roughly half finished."""
    service = SimulationService(
        jobs=settings.jobs, batch_max=4, journal_dir=journal_dir,
        runner=Runner.from_settings(settings),
    )
    await service.start()
    submitted = []
    for spec in _burst_specs(burst):
        submitted.append(await service.submit(spec))
    target = max(1, burst // 2)
    started = time.monotonic()
    while True:
        done = sum(
            1 for job in submitted if job.status in ("done", "failed")
        )
        if done >= target:
            break
        if time.monotonic() - started > 300.0:
            raise SystemExit("burst phase timed out before the kill point")
        await asyncio.sleep(0.02)
    await service.abandon()
    return {
        "acked": len(submitted),
        "completed_before_kill": sum(
            1 for job in submitted if job.status == "done"
        ),
        "journal": dict(service.journal.stats()),
        "job_ids": [job.id for job in submitted],
    }


async def _phase_recover(journal_dir: str, settings: RunnerSettings,
                         job_ids: list[str]) -> dict:
    """Measure recovery, then let the stranded jobs finish normally.

    A fresh runner on the burst's settings is the "new process": its
    memory is gone, the disk cache survives.
    """
    runner = Runner.from_settings(settings)
    service = SimulationService(
        jobs=settings.jobs, journal_dir=journal_dir, runner=runner
    )
    misses_before = runner.cache_stats()["misses"]
    t0 = time.monotonic()
    await service.start()  # start() runs recover() before dispatching
    recovery_wall_s = time.monotonic() - t0
    resim_during_recovery = runner.cache_stats()["misses"] - misses_before

    # Drain the requeued remainder on the normal dispatch path.
    t1 = time.monotonic()
    while True:
        jobs_state = [service.job(job_id) for job_id in job_ids]
        if all(
            job is not None and job.status in ("done", "failed")
            for job in jobs_state
        ):
            break
        if time.monotonic() - t1 > 300.0:
            raise SystemExit("recovered service never went idle")
        await asyncio.sleep(0.02)
    drain_wall_s = time.monotonic() - t1
    resim_total = runner.cache_stats()["misses"] - misses_before

    lost = [
        job_id for job_id in job_ids if service.job(job_id) is None
    ]
    recovery = dict(service._recovery or {})
    await service.stop()
    return {
        "recovery_wall_s": recovery_wall_s,
        "recovered_cached": recovery.get("recovered_cached", 0),
        "recovered_requeued": recovery.get("recovered_requeued", 0),
        "journal_records": recovery.get("journal_records", 0),
        "resimulated_during_recovery": resim_during_recovery,
        "resimulated_total": resim_total,
        "drain_wall_s": drain_wall_s,
        "lost": lost,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--burst", type=int, default=64,
                        help="jobs journaled before the kill")
    parser.add_argument("--jobs", type=int, default=1,
                        help="service worker processes per batch")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the burst for the CI smoke job")
    parser.add_argument("--out", default=None,
                        help="report path (default "
                             "results/BENCH_recovery.json)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.burst = min(args.burst, 16)

    state = Path(tempfile.mkdtemp(prefix="repro-bench-recovery-"))
    journal_dir = str(state / "journal")
    settings = RunnerSettings(jobs=args.jobs, cache_dir=str(state / "cache"))
    burst_report = asyncio.run(
        _phase_burst_and_kill(journal_dir, args.burst, settings)
    )
    print(
        f"burst: {burst_report['acked']} jobs journaled, "
        f"{burst_report['completed_before_kill']} completed, then killed"
    )
    job_ids = burst_report.pop("job_ids")
    recover_report = asyncio.run(
        _phase_recover(journal_dir, settings, job_ids)
    )
    print(
        f"recovery: {recover_report['recovery_wall_s'] * 1e3:.1f} ms to "
        f"re-own {burst_report['acked']} jobs "
        f"({recover_report['recovered_cached']} from cache, "
        f"{recover_report['recovered_requeued']} requeued)"
    )
    print(
        f"  re-simulated during recovery: "
        f"{recover_report['resimulated_during_recovery']} (want 0); "
        f"stranded remainder finished in "
        f"{recover_report['drain_wall_s']:.1f}s with "
        f"{recover_report['resimulated_total']} re-simulations"
    )
    if recover_report["resimulated_during_recovery"] != 0:
        raise SystemExit(
            "recovery FAILED: cache-complete jobs were re-simulated "
            f"({recover_report['resimulated_during_recovery']} misses "
            "during recover())"
        )
    if recover_report["lost"]:
        raise SystemExit(
            f"recovery FAILED: acked jobs lost: {recover_report['lost']}"
        )
    report = {
        "burst": args.burst,
        "jobs": args.jobs,
        **{f"burst_{k}": v for k, v in burst_report.items()},
        **recover_report,
    }
    from benchmarks.conftest import write_bench_artifact

    out = write_bench_artifact("recovery", report, out=args.out)
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
