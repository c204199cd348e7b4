"""Metric definitions and their derivation from a workload's outcome.

Every workload reports every end-to-end metric (one job = one
simulation result delivered), so the same names carry across the four
workloads; ``METRICS.md`` gives each name's reading per workload.
"""

from __future__ import annotations

from statistics import median

from perfbench.cells import POLICIES
from perfbench.spans import self_times
from perfbench.stats import MIN_TAIL, peak_rss_mb, percentile

#: (name, unit, better, bound) — bound is the allowed worsening as a
#: share of the parent's median.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_ms_p50", "ms", "lower", 0.25),
    ("job_ms_p90", "ms", "lower", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
] + [(f"records_per_s.{p}", "1/s", "higher", 0.25) for p in POLICIES]

PER_LAYER = [
    ("workloads.build_s", "s", "lower"),
    ("workloads.builds", "count", "lower"),
    ("tenancy.build_s", "s", "lower"),
    ("sim.machine_build_s", "s", "lower"),
    ("sim.replay_s", "s", "lower"),
    ("sim.per_record_s", "s", "lower"),
    ("sim.bulk_s", "s", "lower"),
] + [(f"sim.per_record_share.{p}", "ratio", "lower") for p in POLICIES] + [
    ("memory.bulk_views_calls", "count", "lower"),
    ("harness.run_s", "s", "lower"),
    ("harness.cache.hits", "count", "higher"),
    ("harness.cache.misses", "count", "lower"),
    ("harness.store.loads", "count", "higher"),
    ("harness.store.load_s", "s", "lower"),
    ("harness.store.stores", "count", "lower"),
    ("harness.store.store_s", "s", "lower"),
    ("harness.store.bytes", "bytes", "lower"),
    ("memo.digest_s", "s", "lower"),
    ("memo.capture_s", "s", "lower"),
    ("memo.put_s", "s", "lower"),
    ("memo.restore_s", "s", "lower"),
    ("memo.stores", "count", "lower"),
    ("memo.hits", "count", "higher"),
    ("memo.misses", "count", "lower"),
    ("memo.snapshot_bytes", "bytes", "lower"),
    ("sweep.populate_cells_per_s", "1/s", "higher"),
    ("sweep.warm_cells_per_s", "1/s", "higher"),
    ("serve.server_ms_p50", "ms", "lower"),
    ("serve.server_ms_p90", "ms", "lower"),
    ("serve.client_overhead_ms_p50", "ms", "lower"),
    ("serve.deduped", "count", "higher"),
    ("serve.completed", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.sim_share", "ratio", "lower"),
    ("cluster.route_ms_p50", "ms", "lower"),
    ("cluster.forward_imbalance", "ratio", "lower"),
    ("cluster.store_hits", "count", "higher"),
    ("cluster.router_deduped", "count", "higher"),
    ("cluster.swallowed_errors", "count", "lower"),
    ("obs.trace_overhead.replay_matrix", "ratio", "lower"),
    ("obs.trace_overhead.sweep_store", "ratio", "lower"),
    ("obs.metrics_on_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: Why a per-layer metric reads 0 on a workload (printed with the result).
NOT_MEASURED = {
    "replay_matrix": {
        "harness.": "replay_matrix calls the simulator directly; no runner",
        "memo.": "the memo is off on replay_matrix",
        "sweep.": "sweep_store only",
        "serve.": "measured by sweep_store's traced run (serve probe)",
        "cluster.": "measured by sweep_store's traced run (cluster probe)",
    },
    "sweep_store": {
        "harness.cache.hits": "the in-process result cache is cleared "
                              "before every warm pass and no cell repeats "
                              "within a pass; warm reads are "
                              "harness.store.loads",
        "obs.metrics_on_ratio": "replay_matrix only",
    },
    "serve_zipf": {
        "memo.": "serve runs with the memo off, as `repro-oasis serve` does",
        "sweep.": "sweep_store only",
        "cluster.": "cluster_zipf only",
        "obs.": "measured on replay_matrix and sweep_store",
    },
    "cluster_zipf": {
        "workloads.": "simulations run inside worker processes (invisible "
                      "from outside; see serve.* and cluster.* counters)",
        "tenancy.": "inside worker processes",
        "sim.": "inside worker processes",
        "memory.": "inside worker processes",
        "harness.run_s": "inside worker processes",
        "harness.cache.": "inside worker processes",
        "harness.store.store": "inside worker processes",
        "memo.": "the memo is off in serve workers",
        "sweep.": "sweep_store only",
        "serve.server_ms": "store hits answered by the router carry no "
                           "worker latency",
        "obs.": "measured on replay_matrix and sweep_store",
    },
}


#: The per-layer metrics (name prefixes) each probe supplies.
PROBE_METRICS = {
    "serve_zipf": ("serve.",),
    "cluster_zipf": ("cluster.",),
    "memo_restore": ("memo.hits", "memo.restore_s"),
}


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def end_to_end(outcome, min_tail: int = MIN_TAIL) -> dict:
    """Every end-to-end metric from an untraced outcome.

    Rates over a round are medians over the rounds.  A policy's rate
    sums, over its replayed cells, each cell's median time across the
    rounds, so one slow pass of one cell does not move it.  Served
    workloads replay in the server, where the client cannot time one
    cell; their policy rates time the direct replays that check them.
    """
    def records(job) -> int:
        return outcome.records[
            (job.cell.app, job.cell.footprint_mb, job.cell.seed)]

    rates = {"jobs_per_s": [], "records_per_s": []}
    cell_times: dict = {}
    for rnd in outcome.rounds:
        ok = [job for job in rnd.jobs if job.ok]
        replayed = [job for job in ok if job.simulated]
        rates["jobs_per_s"].append(_rate(len(ok), rnd.window_s))
        rates["records_per_s"].append(
            _rate(sum(map(records, replayed)), rnd.window_s))
        if outcome.replays is None:
            for job in replayed:
                cell_times.setdefault(job.cell, []).append(job.latency_s)
    if outcome.replays is not None:
        for job in outcome.replays.jobs:
            cell_times.setdefault(job.cell, []).append(job.latency_s)
    latencies_ms = [job.latency_s * 1e3 for job in outcome.jobs if job.ok]
    metrics = {
        "setup_s": outcome.setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "job_ms_p50": percentile(latencies_ms, 50, min_tail=min_tail),
        "job_ms_p90": percentile(latencies_ms, 90, min_tail=min_tail),
    }
    for name, values in rates.items():
        metrics[name] = median(values)
    for policy in POLICIES:
        mine = [(outcome.records[(c.app, c.footprint_mb, c.seed)],
                 median(times))
                for c, times in cell_times.items() if c.policy == policy]
        metrics[f"records_per_s.{policy}"] = _rate(
            sum(r for r, _ in mine), sum(t for _, t in mine))
    return {name: metrics[name] for name, *_ in END_TO_END}


def sweep_rates(outcome) -> dict:
    """Cells per second of the populate and the warm passes."""
    cold = [job.latency_s for job in outcome.jobs if job.simulated]
    warm = [job.latency_s for job in outcome.jobs if not job.simulated]
    return {"sweep.populate_cells_per_s": _rate(len(cold), sum(cold)),
            "sweep.warm_cells_per_s": _rate(len(warm), sum(warm))}


def _served_layers(outcome, min_tail: int) -> dict:
    """Server-side latency and client overhead of served jobs."""
    served = [job for job in outcome.jobs
              if job.ok and job.server_s is not None]
    if not served:
        return {}
    server_ms = [job.server_s * 1e3 for job in served]
    values = {"serve.client_overhead_ms_p50": median(
        [(job.latency_s - job.server_s) * 1e3 for job in served])}
    for q in (50, 90):
        try:
            values[f"serve.server_ms_p{q}"] = percentile(
                server_ms, q, min_tail=min_tail)
        except ValueError:
            values[f"serve.server_ms_p{q}"] = 0.0
    return values


def per_layer(workload: str, outcome, recorder, probes: dict | None = None,
              min_tail: int = MIN_TAIL) -> tuple[dict, dict]:
    """Every per-layer metric from a traced outcome, plus the reasons
    for the ones this workload cannot measure.

    ``probes`` maps probe names (see PROBE_METRICS) to outcomes of
    runs made beside the workload; each supplies the metrics named there.
    """
    selfs = {name: ns / 1e9 for name, ns in self_times(recorder.spans).items()}
    counts = recorder.counts
    span_n: dict[str, int] = {}
    for span in recorder.spans:
        span_n[span.name] = span_n.get(span.name, 0) + 1
    values = dict.fromkeys(UNITS, 0.0)
    values.update({
        "workloads.build_s": selfs.get("workloads.build", 0.0),
        "workloads.builds": counts.get("workloads.builds", 0.0),
        "tenancy.build_s": selfs.get("tenancy.build", 0.0),
        "sim.machine_build_s": selfs.get("sim.machine_build", 0.0),
        "sim.replay_s": selfs.get("sim.run", 0.0),
        "sim.per_record_s": counts.get("sim.access_ns", 0.0) / 1e9,
        "memory.bulk_views_calls": counts.get("memory.bulk_views_calls", 0.0),
        "harness.run_s": selfs.get("harness.run", 0.0),
        "harness.store.loads": span_n.get("harness.store.load", 0),
        "harness.store.load_s": selfs.get("harness.store.load", 0.0),
        "harness.store.stores": span_n.get("harness.store.store", 0),
        "harness.store.store_s": selfs.get("harness.store.store", 0.0),
        "memo.digest_s": selfs.get("memo.digest", 0.0),
        "memo.capture_s": selfs.get("memo.capture", 0.0),
        "memo.put_s": selfs.get("memo.put", 0.0),
        "memo.restore_s": selfs.get("memo.restore", 0.0),
    })
    values["sim.bulk_s"] = values["sim.replay_s"] - values["sim.per_record_s"]
    for policy in POLICIES:
        values[f"sim.per_record_share.{policy}"] = _rate(
            counts.get(f"sim.access_calls.{policy}", 0.0),
            counts.get(f"sim.records.{policy}", 0.0))
    values.update(outcome.layers)
    values.update(_served_layers(outcome, min_tail))
    for name, probe in (probes or {}).items():
        values.update({k: v for k, v in probe.layers.items()
                       if k.startswith(PROBE_METRICS[name])})
        if name == "serve_zipf":
            values.update(_served_layers(probe, min_tail))
    reasons = {}
    for name in values:
        for prefix, why in NOT_MEASURED.get(workload, {}).items():
            if name.startswith(prefix) and not values[name]:
                reasons[name] = why
        if (name.startswith("obs.trace_overhead.")
                and not name.endswith(workload)):
            reasons.setdefault(
                name, "measured in that workload's own traced run")
    return {name: values[name] for name, *_ in PER_LAYER}, reasons
