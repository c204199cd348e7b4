"""Crash recovery, graceful drain and the worker-pool circuit breaker."""

import asyncio

import pytest

from repro.chaos import ChaosInjector, ChaosPlan, IOFault
from repro.harness import cache_stats, configure
from repro.harness.diskcache import DiskCache
from repro.serve import AdmissionError, JobFailed, SimulationService
from repro.sim import SimulationResult

SMALL = {"app": "mm", "policy": "on_touch", "footprint_mb": 4.0}


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def fast_fsync(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FSYNC", "1")


class TestRecovery:
    def test_crash_requeues_acked_unfinished_jobs(self, tmp_path):
        journal_dir = str(tmp_path / "journal")

        async def crash():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start(dispatch=False)  # accepted, never run
            a = await service.submit(dict(SMALL))
            b = await service.submit(dict(SMALL, seed=1))
            await service.abandon()
            return a.id, b.id

        async def recover():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start()
            jobs = {
                job_id: service.job(job_id) for job_id in (a_id, b_id)
            }
            results = {
                job_id: await job.wait() for job_id, job in jobs.items()
            }
            recovery = dict(service._recovery)
            fresh = await service.submit(dict(SMALL, seed=2))
            await fresh.wait()
            await service.stop()
            return service, recovery, results, fresh

        a_id, b_id = run(crash())
        service, recovery, results, fresh = run(recover())
        assert recovery["recovered_requeued"] == 2
        assert recovery["recovered_cached"] == 0
        assert all(
            isinstance(r, SimulationResult) for r in results.values()
        )
        # Job-id allocation continues past everything the journal named.
        assert fresh.id not in (a_id, b_id)
        assert service.stats()["recovery"]["recovered_requeued"] == 2

    def test_completed_jobs_recover_from_cache_without_resimulation(
        self, tmp_path
    ):
        journal_dir = str(tmp_path / "journal")
        configure(jobs=1, cache_dir=str(tmp_path / "cache"))

        async def serve_and_crash():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start()
            job = await service.submit(dict(SMALL))
            await job.wait()
            await service.abandon()
            return job.id

        async def recover():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start()
            job = service.job(job_id)
            result = await job.wait()
            recovery = dict(service._recovery)
            await service.stop()
            return recovery, result

        job_id = run(serve_and_crash())
        from repro.harness import clear_cache
        clear_cache()  # new-process simulation: memory gone, disk stays
        recovery, result = run(recover())
        assert recovery["recovered_cached"] == 1
        assert recovery["recovered_requeued"] == 0
        assert isinstance(result, SimulationResult)
        # Zero re-simulation: the recovered result came from the disk
        # cache, not a fresh run.
        assert cache_stats()["misses"] == 0

    def test_requeued_job_is_stored_under_the_current_key(
        self, tmp_path, monkeypatch
    ):
        from repro.harness import diskcache

        journal_dir = str(tmp_path / "journal")
        configure(jobs=1, cache_dir=str(tmp_path / "cache"))

        async def crash():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start(dispatch=False)  # accepted, never run
            job = await service.submit(dict(SMALL))
            await service.abandon()
            return job.id, job.key, job.config

        async def recover():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start()
            job = service.job(job_id)
            await job.wait()
            await service.stop()
            return job.key

        job_id, stale_key, config = run(crash())
        # The simulator source changes between the crash and the restart.
        monkeypatch.setattr(diskcache, "simulator_version", lambda: "edited")
        current_key = diskcache.cache_key(
            config, SMALL["app"], SMALL["policy"], SMALL["footprint_mb"], 0, {}
        )
        assert current_key != stale_key
        assert run(recover()) == current_key
        disk = DiskCache(tmp_path / "cache")
        assert disk.has(current_key)
        assert not disk.has(stale_key)

    def test_served_failure_is_rematerialized_not_retried(self, tmp_path):
        journal_dir = str(tmp_path / "journal")

        async def serve_and_crash():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start()
            job = await service.submit(
                dict(SMALL, policy_kwargs={"bogus_kwarg": 1})
            )
            with pytest.raises(JobFailed):
                await job.wait()
            await service.abandon()
            return job.id

        async def recover():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start()
            job = service.job(job_id)
            with pytest.raises(JobFailed) as err:
                await job.wait()
            recovery = dict(service._recovery)
            await service.stop()
            return recovery, err.value

        job_id = run(serve_and_crash())
        from repro.harness import clear_cache
        clear_cache()
        recovery, failure = run(recover())
        assert recovery["recovered_failed"] == 1
        assert failure.failure["error_type"] == "TypeError"
        # The failure was *served* before the crash; recovery must not
        # burn simulations re-deriving it.
        assert cache_stats()["misses"] == 0

    def test_clean_stop_keeps_queued_jobs_live(self, tmp_path):
        journal_dir = str(tmp_path / "journal")

        async def stop_with_queue():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start(dispatch=False)
            job = await service.submit(dict(SMALL))
            await service.stop()
            return job

        async def recover():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start()
            recovered = service.job(job.id)
            result = await recovered.wait()
            await service.stop()
            return result

        job = run(stop_with_queue())
        # The stopping incarnation failed the job for its waiters...
        with pytest.raises(JobFailed):
            job.future.result()
        # ...but the acked work itself survives the restart.
        assert isinstance(run(recover()), SimulationResult)

    def test_journal_append_failure_refuses_the_job(self, tmp_path):
        plan = ChaosPlan(io_faults=(IOFault("journal", 0, "write"),))

        async def main():
            service = SimulationService(
                jobs=1, journal_dir=str(tmp_path / "journal")
            )
            await service.start(dispatch=False)
            with ChaosInjector(plan):
                with pytest.raises(AdmissionError, match="journal"):
                    await service.submit(dict(SMALL))
                ok = await service.submit(dict(SMALL, seed=1))
            stats = service.stats()
            await service.stop()
            return stats, ok

        stats, ok = run(main())
        assert stats["journal"]["errors"] == 1
        assert stats["rejected"] == 1
        assert stats["submitted"] == 2
        assert ok.status == "queued" or ok.status == "failed"


class TestDrain:
    def test_drain_finishes_queued_work_and_refuses_new(self, tmp_path):
        async def main():
            service = SimulationService(
                jobs=1, journal_dir=str(tmp_path / "journal")
            )
            await service.start()
            job = await service.submit(dict(SMALL))
            drain_task = asyncio.create_task(service.drain())
            await asyncio.sleep(0)  # let the drain flag land
            with pytest.raises(AdmissionError, match="draining"):
                await service.submit(dict(SMALL, seed=1))
            drained = await drain_task
            return service, job, drained

        service, job, drained = run(main())
        assert drained is True
        assert job.status == "done"
        assert service.stats()["status"] == "stopped"

    def test_drain_timeout_leaves_jobs_journaled(self, tmp_path):
        journal_dir = str(tmp_path / "journal")

        async def main():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start(dispatch=False)  # nothing will run
            job = await service.submit(dict(SMALL))
            drained = await service.drain(timeout_s=0.05)
            return job, drained

        async def recover():
            service = SimulationService(jobs=1, journal_dir=journal_dir)
            await service.start()
            recovered = service.job(job.id)
            result = await recovered.wait()
            await service.stop()
            return result

        job, drained = run(main())
        assert drained is False
        assert isinstance(run(recover()), SimulationResult)


class TestCircuitBreaker:
    def test_consecutive_failures_open_then_probe_closes(self):
        async def main():
            service = SimulationService(
                jobs=1, batch_max=1,
                breaker_threshold=2, breaker_cooldown_s=0.05,
            )
            await service.start()
            bad = [
                await service.submit(
                    dict(SMALL, seed=i, policy_kwargs={"bogus_kwarg": 1})
                )
                for i in range(2)
            ]
            for job in bad:
                with pytest.raises(JobFailed):
                    await job.wait()
            opened = service.stats()["breaker"]
            # The cooldown expires, a half-open probe succeeds, the
            # breaker closes and normal service resumes.
            good = await service.submit(dict(SMALL))
            result = await good.wait()
            closed = service.stats()["breaker"]
            await service.stop()
            return opened, closed, result

        opened, closed, result = run(main())
        assert opened["state"] == "open"
        assert opened["opens"] == 1
        assert closed["state"] == "closed"
        assert closed["consecutive_failures"] == 0
        assert isinstance(result, SimulationResult)

    def test_breaker_ignores_deadline_expiry(self):
        async def main():
            service = SimulationService(jobs=1, breaker_threshold=1)
            await service.start(dispatch=False)
            job = await service.submit(dict(SMALL), deadline_s=0.0)
            await asyncio.sleep(0.01)
            service.resume()
            with pytest.raises(JobFailed):
                await job.wait()
            stats = service.stats()["breaker"]
            await service.stop()
            return stats

        stats = run(main())
        # An expired deadline says nothing about pool health.
        assert stats["state"] == "closed"
        assert stats["opens"] == 0
