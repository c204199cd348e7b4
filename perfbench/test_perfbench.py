"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import cells as C  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.spans import Span, self_times  # noqa: E402
from perfbench.stats import METRIC_NAME, HostClock, percentile  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = [name for name, *_ in END_TO_END + PER_LAYER]
    assert all(METRIC_NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [
        name for name, *_ in END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == [
        name for name, *_ in PER_LAYER]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOAD_NAMES)
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)
    assert percentile([5.0], 50, min_tail=0) == 5.0


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(1, None, "root", 0, 100, 1),
        Span(2, 1, "a", 10, 40, 1),
        Span(3, 1, "b", 30, 60, 2),  # overlaps a (another thread)
        Span(4, 2, "c", 15, 20, 1),
        Span(5, None, "a", 200, 210, 1),
    ]
    assert self_times(spans) == {
        "root": 100 - 50,  # children cover [10, 60]
        "a": (30 - 5) + 10,
        "b": 30,
        "c": 5,
    }


def test_host_clock_scales_by_the_samples_around_an_interval():
    clock = HostClock()
    clock._times = [0.0, 10.0, 20.0]
    clock._refs = [HostClock.NOMINAL_S, 2 * HostClock.NOMINAL_S,
                   2 * HostClock.NOMINAL_S]
    assert clock.ref_s(11.0, 12.0) == pytest.approx(0.5)
    assert clock.ref_s(1.0, 9.0) == pytest.approx(8.0 / 1.5)
    with pytest.raises(ValueError):
        HostClock().ref_s(0.0, 1.0)


def test_a_tampered_result_fails_the_digest_check():
    from repro import baseline_config, make_policy, simulate
    from repro.workloads import get_workload

    config = baseline_config()
    cell = C.replay_cells(0)[0]
    trace = get_workload(cell.app, config, footprint_mb=cell.footprint_mb,
                         seed=cell.seed)
    result = simulate(config, trace, make_policy(cell.policy))
    checker = C.Checker()
    assert checker.pinned(cell, C.core_digest(result))
    assert not checker.mismatches
    result.total_time_ns += 1.0
    assert not checker.pinned(cell, C.core_digest(result))
    assert len(checker.mismatches) == 1


def test_a_pinned_seed_cell_without_a_pin_fails():
    checker = C.Checker()
    unpinned = C.Cell("i2c", "on_touch", 0.3, checker.pin_seed)
    assert unpinned.label not in checker.pins
    assert not checker.pinned(unpinned, "0" * 64)
    assert len(checker.mismatches) == 1
    # Another seed has no pins: only the self-consistency checks apply.
    other = C.Cell("i2c", "on_touch", 0.3, checker.pin_seed + 1)
    assert checker.pinned(other, "0" * 64)
    assert checker.pinned_checks == 1


def test_every_benchmark_cell_of_the_pinned_seed_is_pinned():
    checker = C.Checker()
    for tiny in (False, True):
        for cell in (C.replay_cells(checker.pin_seed, tiny)
                     + C.sweep_cells(checker.pin_seed, tiny)):
            assert cell.label in checker.pins


def test_request_stream_is_seeded_and_covers_the_pool():
    first = C.request_stream(3, 2)
    assert first == C.request_stream(3, 2)
    assert first != C.request_stream(4, 2)
    misses = [r.cell for phase in first if phase.paired
              for r in phase.requests]
    assert len(set(misses)) == len(C.SERVE_DATA) * len(C.POLICIES)
    assert len(misses) == 2 * len(set(misses))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_tiny_run_of_each_workload_completes(workload):
    trace = "1" if workload in ("replay_matrix", "sweep_store") else "0"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", trace, "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = PER_LAYER if trace == "1" else END_TO_END
    assert list(result["metrics"]) == [name for name, *_ in names]
