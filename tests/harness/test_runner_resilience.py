"""Crash/timeout tolerance of the parallel runner.

These tests exercise the harness's own fault hooks
(``REPRO_HARNESS_CRASH`` / ``REPRO_HARNESS_HANG``): a worker process
hard-dies or hangs on a chosen run, and the sweep must still return one
entry per request — retried results or structured RunFailures, never an
exception.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.harness import (
    RunFailure,
    cache_stats,
    clear_cache,
    configure,
    last_sweep_summary,
    run_sims_parallel,
)
from repro.harness.runner import (
    DEFAULT_RETRY_BACKOFF_MAX_S,
    Runner,
    RunnerSettings,
    _backoff_delay,
    _normalize_request,
    _worker,
    _worker_runner,
)
from repro.sim.results import SimulationResult


@pytest.fixture(autouse=True)
def isolated_runner(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_HARNESS_CRASH", raising=False)
    monkeypatch.delenv("REPRO_HARNESS_HANG", raising=False)
    monkeypatch.delenv("REPRO_HARNESS_RAISE", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0")
    clear_cache()
    configure(jobs=1, cache_dir=str(tmp_path / "cache"))
    yield
    configure(jobs=1, disk_cache=False)
    clear_cache()


SMALL = {"footprint_mb": 4.0}


class TestStatsReconciliation:
    def test_hits_plus_misses_covers_every_slot(self, config):
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "mm", "oasis", SMALL),
            (config, "i2c", "on_touch", SMALL),
            (config, "mm", "on_touch", SMALL),  # duplicate -> hit
        ]
        results = run_sims_parallel(requests, jobs=2)
        assert all(isinstance(r, SimulationResult) for r in results)
        stats = cache_stats()
        assert stats["misses"] == 3  # three distinct specs
        assert stats["hits"] == 1  # the duplicate
        assert stats["hits"] + stats["misses"] == len(requests)

    def test_precached_specs_count_as_hits(self, config):
        run_sims_parallel([(config, "mm", "on_touch", SMALL)], jobs=2)
        before = cache_stats()
        run_sims_parallel([(config, "mm", "on_touch", SMALL)], jobs=2)
        after = cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1


class TestWorkerCrash:
    def test_crashed_worker_is_retried(self, config, tmp_path, monkeypatch):
        sentinel = tmp_path / "crashed-once"
        monkeypatch.setenv(
            "REPRO_HARNESS_CRASH", f"mm:on_touch@{sentinel}"
        )
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "i2c", "on_touch", SMALL),
        ]
        results = run_sims_parallel(requests, jobs=2)
        assert sentinel.exists()  # the crash really happened
        assert all(isinstance(r, SimulationResult) for r in results)
        stats = cache_stats()
        assert stats["pool_failures"] >= 1
        assert stats["hits"] + stats["misses"] == len(requests)

    def test_poisoned_run_degrades_to_serial(self, config, monkeypatch):
        # No sentinel: the run crashes its worker on *every* pool attempt.
        # Each crash is unattributable (no attempt is charged), so the
        # sweep survives by degrading to in-process serial execution,
        # where the hook is inert.
        monkeypatch.setenv("REPRO_HARNESS_CRASH", "mm:on_touch")
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "i2c", "on_touch", SMALL),
        ]
        results = run_sims_parallel(
            requests, jobs=2, pool_failure_limit=1
        )
        assert all(isinstance(r, SimulationResult) for r in results)
        assert cache_stats()["pool_failures"] == 2  # limit + the last straw
        assert cache_stats()["hits"] + cache_stats()["misses"] == 2


class TestHangTimeout:
    def test_hung_run_times_out_into_failure(self, config, monkeypatch):
        monkeypatch.setenv("REPRO_HARNESS_HANG", "mm:on_touch")
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "i2c", "on_touch", SMALL),
        ]
        # pool_failure_limit high enough that the sweep never leaves pool
        # mode (serial fallback would ignore the hang hook and succeed).
        results = run_sims_parallel(
            requests,
            jobs=2,
            timeout_s=3.0,
            max_attempts=1,
            pool_failure_limit=5,
        )
        failure, success = results
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "TimeoutError"
        assert failure.app == "mm"
        assert failure.attempts == 1
        assert not failure.ok
        assert isinstance(success, SimulationResult)
        # Accounting reconciles: the failed slot is neither hit nor miss.
        stats = cache_stats()
        assert stats["hits"] + stats["misses"] == 1
        summary = last_sweep_summary()
        assert summary["ok"] == 1 and summary["failed"] == 1

class TestTransientRaise:
    def test_retryable_failure_then_success(self, config, tmp_path,
                                            monkeypatch):
        # One-shot transient OSError: the first attempt raises in the
        # worker (retryable), the retry finds the sentinel and succeeds.
        sentinel = tmp_path / "raised-once"
        monkeypatch.setenv("REPRO_HARNESS_RAISE", f"mm:on_touch@{sentinel}")
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "i2c", "on_touch", SMALL),
        ]
        results = run_sims_parallel(requests, jobs=2, pool_failure_limit=5)
        assert sentinel.exists()  # the injected raise really happened
        assert all(isinstance(r, SimulationResult) for r in results)
        stats = cache_stats()
        assert stats["run_retries"] >= 1
        assert stats["pool_failures"] == 0  # worker survived the raise
        assert stats["hits"] + stats["misses"] == len(requests)

    def test_retries_exhausted_is_a_structured_failure(self, config,
                                                       monkeypatch):
        # No sentinel: every attempt raises, so the run burns through
        # max_attempts and lands as a RunFailure slot.
        monkeypatch.setenv("REPRO_HARNESS_RAISE", "mm:on_touch")
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "i2c", "on_touch", SMALL),
        ]
        failure, success = run_sims_parallel(
            requests, jobs=2, max_attempts=2, pool_failure_limit=5
        )
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "OSError"
        assert "injected transient failure" in failure.message
        assert failure.attempts == 2  # exhausted, not abandoned early
        assert isinstance(success, SimulationResult)
        stats = cache_stats()
        assert stats["run_retries"] == 1  # one retry before giving up
        assert stats["hits"] + stats["misses"] == 1  # the ok slot only
        summary = last_sweep_summary()
        assert summary["ok"] == 1 and summary["failed"] == 1


class TestPoolRebuildDegradation:
    def test_degraded_sweep_keeps_failure_slots_and_accounting(
        self, config, monkeypatch
    ):
        # A poisoned run crashes its worker on every pool attempt; after
        # pool_failure_limit rebuilds the sweep degrades to in-process
        # serial execution (where the crash hook is inert).  A second,
        # deterministically bad spec must still come back as its own
        # structured failure slot, not take the sweep down.
        monkeypatch.setenv("REPRO_HARNESS_CRASH", "mm:on_touch")
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "mm", "bogus_policy", SMALL),
            (config, "i2c", "on_touch", SMALL),
        ]
        results = run_sims_parallel(requests, jobs=2, pool_failure_limit=1)
        by_policy = {spec[2]: result
                     for spec, result in zip(requests, results)}
        assert isinstance(by_policy["on_touch"], SimulationResult)
        assert isinstance(by_policy["bogus_policy"], RunFailure)
        assert by_policy["bogus_policy"].error_type == "ValueError"
        assert isinstance(results[2], SimulationResult)
        stats = cache_stats()
        assert stats["pool_failures"] >= 2  # limit + the last straw
        # Two ok slots, one failure: hits+misses covers exactly the oks.
        assert stats["hits"] + stats["misses"] == 2
        summary = last_sweep_summary()
        assert summary["runs"] == 3
        assert summary["ok"] == 2 and summary["failed"] == 1


class TestRetryBackoff:
    def test_exponential_growth_capped_at_default_max(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "1.0")
        monkeypatch.delenv("REPRO_RETRY_BACKOFF_MAX_S", raising=False)
        assert _backoff_delay(1) == 1.0
        assert _backoff_delay(2) == 2.0
        assert _backoff_delay(3) == 4.0
        assert _backoff_delay(4) == DEFAULT_RETRY_BACKOFF_MAX_S
        assert _backoff_delay(30) == DEFAULT_RETRY_BACKOFF_MAX_S

    def test_cap_is_env_overridable(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "1.0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_MAX_S", "0.5")
        assert _backoff_delay(1) == 0.5
        assert _backoff_delay(10) == 0.5

    def test_zero_base_disables_backoff(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0")
        assert _backoff_delay(1) == 0.0
        assert _backoff_delay(8) == 0.0

    def test_garbage_env_falls_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "not-a-number")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_MAX_S", "")
        assert _backoff_delay(1) == 0.05
        assert _backoff_delay(30) == DEFAULT_RETRY_BACKOFF_MAX_S


class TestFailureRendering:
    def test_failure_renders_diagnosably(self, config):
        failure = RunFailure(
            app="mm", policy="oasis", seed=3,
            error_type="TimeoutError", message="run exceeded 3.0s",
            attempts=2,
        )
        text = str(failure)
        assert "mm/oasis" in text
        assert "TimeoutError" in text
        assert "2 attempt(s)" in text


def _worker_settings(settings):
    """Pool-side probe: the settings of the runner a worker computes on."""
    return _worker_runner(settings).settings()


class TestWorkerConfigPassthrough:
    def test_snapshot_round_trips(self, tmp_path):
        parent = Runner(3, cache_dir=str(tmp_path / "elsewhere"),
                        cache_size=17)
        settings = parent.settings()
        assert settings == RunnerSettings(
            jobs=3,
            cache_dir=str(tmp_path / "elsewhere"),
            cache_size=17,
            memo=False,
            memo_dir=None,
        )
        # A spawned worker starts from defaults; a runner built from the
        # pickled settings must reproduce the parent's runner exactly.
        shipped = pickle.loads(pickle.dumps(settings))
        assert Runner.from_settings(shipped).settings() == settings

    def test_disk_cache_disabled_round_trips(self):
        settings = Runner(2, disk_cache=False).settings()
        assert settings.cache_dir is None
        assert Runner.from_settings(settings).settings() == settings

    def test_memo_settings_round_trip(self, tmp_path):
        settings = Runner(memo_dir=str(tmp_path / "memo")).settings()
        assert settings.memo is True
        assert settings.memo_dir == str(tmp_path / "memo")
        assert Runner.from_settings(settings).settings() == settings

    def test_pool_workers_keep_parent_dir_and_bound(self, tmp_path):
        settings = Runner(2, cache_dir=str(tmp_path / "shared"),
                          cache_size=3).settings()
        with ProcessPoolExecutor(max_workers=1) as pool:
            first = pool.submit(_worker_settings, settings).result()
            again = pool.submit(_worker_settings, settings).result()
        assert first == again == settings

    def test_worker_reuses_one_runner_across_tasks(self, config, tmp_path):
        settings = Runner(cache_dir=str(tmp_path / "cache"),
                          cache_size=5).settings()
        spec = _normalize_request((config, "mm", "on_touch", SMALL))
        _worker((spec, settings))
        worker = _worker_runner(settings)
        assert worker.cache_stats()["misses"] == 1
        _worker((spec, settings))
        assert _worker_runner(settings) is worker
        assert worker.cache_stats()["hits"] == 1
        assert worker.cache_stats()["capacity"] == 5

    def test_workers_see_parent_disk_cache(self, config, tmp_path):
        # The workers must write results into the parent's configured
        # store — the regression was workers falling back to defaults.
        configure(jobs=2, cache_dir=str(tmp_path / "shared"))
        run_sims_parallel([(config, "mm", "on_touch", SMALL)], jobs=2)
        store = tmp_path / "shared"
        entries = [
            p for p in store.rglob("*.json") if p.parent.name != "quarantine"
        ]
        assert entries, "worker did not write to the configured disk cache"


class TestSerialFailureIsolation:
    def test_serial_bad_spec_yields_failure_not_abort(self, config):
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "mm", "bogus_policy", SMALL),
        ]
        good, bad = run_sims_parallel(requests, jobs=1)
        assert isinstance(good, SimulationResult)
        assert isinstance(bad, RunFailure)
        assert bad.error_type == "ValueError"

    def test_spec_key_distinguishes_kwargs(self, config):
        a = {"config": config, "app": "mm", "policy": "grit",
             "footprint_mb": 4.0, "seed": 0, "policy_kwargs": {}}
        b = dict(a, policy_kwargs={"neighbor_window": 0})
        assert _normalize_request(a)["key"] != _normalize_request(b)["key"]


class TestSweepSummary:
    def test_summary_shape_and_counts(self, config):
        from repro.harness import last_sweep_summary

        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "mm", "oasis", SMALL),
        ]
        run_sims_parallel(requests, jobs=2)
        summary = last_sweep_summary()
        assert summary is not None
        assert summary["runs"] == 2
        assert summary["ok"] == 2 and summary["failed"] == 0
        assert summary["cache"]["misses"] == 2
        per_run = summary["wall_clock_s"]["per_run"]
        assert set(per_run) == {"mm/on_touch@4MB", "mm/oasis@4MB"}
        assert all(t >= 0.0 for t in per_run.values())
        assert summary["wall_clock_s"]["total"] >= 0.0
        # Counters are merged from every run's metrics snapshot.
        assert summary["counters"]["fault.page"] > 0
        assert list(summary["counters"]) == sorted(summary["counters"])

    def test_warm_sweep_reports_hits(self, config):
        from repro.harness import last_sweep_summary

        requests = [(config, "mm", "on_touch", SMALL)]
        run_sims_parallel(requests, jobs=2)
        run_sims_parallel(requests, jobs=2)
        summary = last_sweep_summary()
        assert summary["cache"]["hits"] == 1
        assert summary["cache"]["misses"] == 0
