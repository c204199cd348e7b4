"""Cached simulation runner tests."""

import pytest

from repro import baseline_config
from repro.harness import (
    cache_stats,
    clear_cache,
    run_sim,
    run_sims_parallel,
    speedup_table,
)
from repro.harness.runner import Runner


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


SMALL = {"footprint_mb": 4.0}


class TestRunSim:
    def test_result_cached(self, config):
        a = run_sim(config, "mm", "on_touch", **SMALL)
        b = run_sim(config, "mm", "on_touch", **SMALL)
        assert a is b
        assert cache_stats()["size"] == 1

    def test_distinct_configs_not_shared(self, config):
        a = run_sim(config, "mm", "on_touch", **SMALL)
        other = config.replace(reset_threshold=4)
        b = run_sim(other, "mm", "on_touch", **SMALL)
        assert a is not b

    def test_unknown_policy_rejected(self, config):
        with pytest.raises(ValueError):
            run_sim(config, "mm", "bogus")

    def test_slow_path_is_not_served_from_fast_path_memory(
        self, config, monkeypatch
    ):
        fast = run_sim(config, "mm", "on_touch", **SMALL)
        monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
        slow = run_sim(config, "mm", "on_touch", **SMALL)
        assert slow is not fast
        stats = cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_parallel_result_hits_memory_with_reordered_kwargs(self, config):
        extras = {"footprint_mb": 4.0, "policy_kwargs": {
            "faults_per_decision": 2, "neighbor_window": 0,
        }}
        (swept,) = run_sims_parallel([(config, "mm", "grit", extras)], jobs=1)
        again = run_sim(config, "mm", "grit", neighbor_window=0,
                        faults_per_decision=2, **SMALL)
        assert again is swept
        assert cache_stats()["hits"] == 1

    def test_policy_kwargs_in_key(self, config):
        a = run_sim(config, "mm", "grit", **SMALL)
        b = run_sim(config, "mm", "grit", neighbor_window=0, **SMALL)
        assert a is not b


class TestSpeedupTable:
    def test_rows_and_geomean(self, config):
        rows, geo = speedup_table(
            config, ["mm"], ["on_touch", "ideal"],
            footprint_mb={"mm": 4.0},
        )
        assert rows[0][0] == "mm"
        assert rows[-1][0] == "geomean"
        assert rows[0][1] == pytest.approx(1.0)  # on_touch vs itself
        assert geo["ideal"] >= 1.0

    def test_separate_baseline_config(self, config):
        other = config.replace(initial_placement="distributed")
        rows, _ = speedup_table(
            other, ["mm"], ["on_touch"], baseline_config=other,
            footprint_mb={"mm": 4.0},
        )
        assert rows[0][1] == pytest.approx(1.0)


class TestRunnerIsolation:
    def test_runners_on_different_dirs_share_no_result(self, config,
                                                       tmp_path):
        one = Runner(cache_dir=str(tmp_path / "one"))
        two = Runner(cache_dir=str(tmp_path / "two"))
        one.run_sim(config, "mm", "on_touch", **SMALL)
        assert one.cache_stats()["misses"] == 1
        two.run_sim(config, "mm", "on_touch", **SMALL)
        # Neither tier of ``two`` saw ``one``'s run: a cold simulation.
        assert two.cache_stats()["misses"] == 1
        assert two.cache_stats()["disk_hits"] == 0
        assert list((tmp_path / "one").rglob("*.json"))
        assert list((tmp_path / "two").rglob("*.json"))

    def test_own_runner_leaves_the_default_untouched(self, config,
                                                     tmp_path):
        run_sim(config, "st", "on_touch", **SMALL)
        before = cache_stats()
        own = Runner(2, cache_dir=str(tmp_path / "own"))
        run_sims_parallel([(config, "mm", "on_touch", SMALL)], runner=own)
        assert own.last_sweep["cache"]["misses"] == 1
        assert cache_stats() == before

    def test_fresh_runner_on_same_settings_reads_the_disk(self, config,
                                                          tmp_path):
        first = Runner(cache_dir=str(tmp_path / "cache"))
        result = first.run_sim(config, "mm", "on_touch", **SMALL)
        again = Runner.from_settings(first.settings())
        assert again.cache_stats()["size"] == 0  # memory gone ...
        reread = again.run_sim(config, "mm", "on_touch", **SMALL)
        assert again.cache_stats()["disk_hits"] == 1  # ... disk survives
        assert reread.to_dict() == result.to_dict()
