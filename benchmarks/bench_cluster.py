"""Cluster bench: throughput scaling, cluster-wide dedup, kill-steal.

Drives real :class:`~repro.cluster.supervisor.LocalCluster` instances —
an in-process consistent-hash router fronting ``repro-oasis serve``
subprocesses — through four phases:

1. **Scaling** — the same seeded batch of distinct simulations against
   1, 2 and 4 workers.  Reports requests/s per scale; the speedup
   assertions (>= 1.7x at 2 workers, >= 3x at 4) only arm when the
   machine has enough CPUs to host the workers (``os.cpu_count()``),
   otherwise they are reported as skipped.  The balance assertion —
   every worker at the top scale actually received forwards — always
   arms.
2. **Single-flight burst** — ``--burst`` identical concurrent requests
   through the router must cost exactly **one** simulation
   cluster-wide: one new result file in the shared store, everyone else
   deduplicated at the router or served from the shared tier.
3. **Dedup parity** — the seeded Zipf mixed-traffic stream (the
   ``bench_serve`` shape) through the cluster must perform exactly one
   simulation per *distinct* spec, i.e. clustering does not degrade the
   single-node dedup rate.
4. **Kill-steal** (``--chaos``) — a :class:`~repro.chaos.plan.ChaosPlan`
   worker-kill fires mid-burst through
   :class:`~repro.chaos.cluster.ClusterChaos`: the routed-to worker is
   SIGKILLed, the router steals its journal, and every acknowledged job
   must still produce a result in the shared store — zero acked jobs
   lost.  The phase also pins a served result against the golden file
   and a direct :func:`repro.harness.run_sim`.

Results land in ``results/BENCH_cluster.json``.  ``--smoke`` shrinks
everything for the CI job (set ``REPRO_NO_FSYNC=1`` there).

Usage::

    PYTHONPATH=src REPRO_NO_FSYNC=1 python benchmarks/bench_cluster.py --smoke --chaos
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro import baseline_config  # noqa: E402
from repro.chaos import ChaosPlan, ClusterChaos  # noqa: E402
from repro.chaos.plan import WorkerKill  # noqa: E402
from repro.cluster import LocalCluster  # noqa: E402
from repro.harness import run_sim  # noqa: E402
from repro.harness.diskcache import DiskCache, cache_key  # noqa: E402
from repro.serve.client import ServerBusy  # noqa: E402

#: Scaling-phase speedup floors from ISSUE 8, armed only when the host
#: has at least ``workers + 1`` CPUs (the router needs a core too).
SPEEDUP_FLOORS = {2: 1.7, 4: 3.0}


def result_files(cache_dir: Path) -> int:
    return len(list(cache_dir.glob("[0-9a-f][0-9a-f]/*.json")))


def submit_with_backoff(client, app, policy, **kwargs):
    while True:
        try:
            return client.submit(app, policy, **kwargs)
        except ServerBusy as busy:
            time.sleep(min(busy.retry_after_s, 2.0))


def zipf_requests(seed: int, n_requests: int, *, smoke: bool) -> list[tuple]:
    """The seeded Zipf mixed-traffic stream (bench_serve's shape)."""
    if smoke:
        pool = [("mm", policy, 4.0, s)
                for policy in ("on_touch", "oasis") for s in (0, 1)]
    else:
        pool = [(app, policy, 4.0, s)
                for app in ("mm", "st")
                for policy in ("on_touch", "oasis") for s in (0, 1)]
    rng = random.Random(seed)
    rng.shuffle(pool)
    weights = [1.0 / (i + 1) for i in range(len(pool))]
    return [rng.choices(pool, weights=weights)[0] for _ in range(n_requests)]


def phase_scaling(scales: tuple[int, ...], n_requests: int, n_clients: int,
                  seed: int) -> dict:
    """Same batch of distinct simulations per scale; measure requests/s.

    Every scale gets its own state directory and its own seed range, so
    no run can hit another run's shared cache.
    """
    cpus = os.cpu_count() or 1
    report: dict = {"cpus": cpus, "scales": {}}
    baseline_rps: float | None = None
    for index, workers in enumerate(scales):
        specs = [("mm", "on_touch", 4.0, seed + index * 1000 + i)
                 for i in range(n_requests)]
        with LocalCluster(workers=workers) as cluster:
            client_pool = [cluster.client(timeout_s=300.0)
                           for _ in range(n_clients)]
            started = time.monotonic()

            def one(item):
                i, (app, policy, mb, s) = item
                submit_with_backoff(client_pool[i % n_clients], app, policy,
                                    footprint_mb=mb, seed=s)

            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                list(pool.map(one, enumerate(specs)))
            wall = time.monotonic() - started
            stats = cluster.client().health()
            forwards = {
                name: worker["forwarded"]
                for name, worker in stats["workers"].items()
            }
            state_dir = cluster.state_dir
        shutil.rmtree(state_dir, ignore_errors=True)
        rps = n_requests / wall if wall else float("inf")
        floor = SPEEDUP_FLOORS.get(workers)
        gated = cpus < workers + 1
        entry = {
            "workers": workers,
            "wall_s": round(wall, 3),
            "requests_per_s": round(rps, 2),
            "forwards_per_worker": forwards,
            "speedup_floor": floor,
            "speedup_check": "skipped (not enough CPUs)" if gated else None,
        }
        if workers == 1:
            baseline_rps = rps
        elif baseline_rps:
            speedup = rps / baseline_rps
            entry["speedup_vs_1"] = round(speedup, 2)
            if floor is not None and not gated:
                entry["speedup_check"] = "pass" if speedup >= floor else "FAIL"
                if speedup < floor:
                    raise SystemExit(
                        f"scaling FAILED: {workers} workers reached only "
                        f"{speedup:.2f}x over 1 worker (floor {floor}x, "
                        f"{cpus} CPUs)"
                    )
        # Balance always arms: with ring placement over distinct seeds,
        # every worker must have received a share of the forwards.
        idle = [name for name, count in forwards.items() if count == 0]
        if workers > 1 and idle:
            raise SystemExit(
                f"scaling FAILED: workers {idle} received no forwards "
                f"at scale {workers} (placement is not spreading)"
            )
        report["scales"][str(workers)] = entry
        print(f"scaling: {workers} worker(s) -> {rps:.1f} req/s "
              f"({wall:.2f}s wall)"
              + (f", {entry['speedup_vs_1']:.2f}x vs 1"
                 if "speedup_vs_1" in entry else ""))
    return report


def phase_single_flight_burst(workers: int, burst: int) -> dict:
    """Identical concurrent burst -> exactly one simulation cluster-wide."""
    with LocalCluster(workers=workers) as cluster:
        before = result_files(cluster.cache_dir)

        def one(_i):
            return submit_with_backoff(
                cluster.client(timeout_s=300.0), "mm", "on_touch",
                footprint_mb=4.0, lane="interactive",
            )

        with ThreadPoolExecutor(max_workers=min(burst, 32)) as pool:
            results = list(pool.map(one, range(burst)))
        simulations = result_files(cluster.cache_dir) - before
        stats = cluster.client().health()
        state_dir = cluster.state_dir
    shutil.rmtree(state_dir, ignore_errors=True)
    digests = {json.dumps(r.to_dict(), sort_keys=True) for r in results}
    if simulations != 1:
        raise SystemExit(
            f"single-flight FAILED: {burst} identical requests performed "
            f"{simulations} simulations cluster-wide (expected exactly 1)"
        )
    if len(digests) != 1:
        raise SystemExit("single-flight FAILED: responses not bit-identical")
    return {
        "workers": workers,
        "burst": burst,
        "simulations": simulations,
        "deduped": stats["deduped"],
        "store_hits": stats["cache_hits"],
        "bit_identical": True,
    }


def phase_dedup_parity(workers: int, n_requests: int, n_clients: int,
                       seed: int, *, smoke: bool) -> dict:
    """Zipf mix through the cluster: one simulation per distinct spec."""
    requests = zipf_requests(seed, n_requests, smoke=smoke)
    distinct = len(set(requests))
    with LocalCluster(workers=workers) as cluster:
        before = result_files(cluster.cache_dir)
        client_pool = [cluster.client(timeout_s=300.0)
                       for _ in range(n_clients)]

        def one(item):
            i, (app, policy, mb, s) = item
            submit_with_backoff(client_pool[i % n_clients], app, policy,
                                footprint_mb=mb, seed=s)

        started = time.monotonic()
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            list(pool.map(one, enumerate(requests)))
        wall = time.monotonic() - started
        simulations = result_files(cluster.cache_dir) - before
        stats = cluster.client().health()
        state_dir = cluster.state_dir
    shutil.rmtree(state_dir, ignore_errors=True)
    if simulations != distinct:
        raise SystemExit(
            f"dedup parity FAILED: {n_requests} requests over {distinct} "
            f"distinct specs performed {simulations} simulations "
            "(clustering degraded the dedup rate)"
        )
    return {
        "workers": workers,
        "requests": n_requests,
        "distinct_specs": distinct,
        "simulations": simulations,
        "deduped": stats["deduped"],
        "store_hits": stats["cache_hits"],
        "wall_s": round(wall, 3),
        "requests_per_s": round(n_requests / wall, 2) if wall else None,
    }


def phase_kill_steal(workers: int, n_jobs: int, kill_op: int,
                     seed: int) -> dict:
    """SIGKILL the routed-to worker mid-burst; zero acked jobs lost."""
    config = baseline_config()
    specs = [("mm", "on_touch", 4.0, seed + 5000 + i) for i in range(n_jobs)]
    keys = {
        spec: cache_key(config, spec[0], spec[1], spec[2], spec[3], {})
        for spec in specs
    }
    plan = ChaosPlan(worker_kills=(WorkerKill(op=kill_op),), seed=seed)
    with LocalCluster(workers=workers) as cluster:
        client = cluster.client(timeout_s=300.0)
        with ClusterChaos(plan, cluster.kill_worker) as chaos:
            for app, policy, mb, s in specs:
                # Acked the moment submit_nowait returns: the owner has
                # journaled the accepted record (or, for the op that
                # dies, the failover owner has).
                client.submit_nowait(app, policy, footprint_mb=mb, seed=s)
            fired = chaos.report()
        store = DiskCache(cluster.cache_dir)
        deadline = time.monotonic() + 120
        missing = set(specs)
        while missing and time.monotonic() < deadline:
            missing = {s for s in missing if store.load(keys[s]) is None}
            time.sleep(0.1)
        stats = cluster.client().health()

        # Golden pin: a served result (default-footprint, the golden
        # cell) must match the pinned core digest and a direct run.
        from repro.verify.golden import entry_for, golden_key, load_golden

        served = submit_with_backoff(client, "mm", "oasis")
        direct = run_sim(config, "mm", "oasis")
        golden = load_golden()["entries"][golden_key("mm", "oasis")]
        golden_ok = (
            served.to_dict() == direct.to_dict()
            and entry_for(served)["core"] == golden["core"]
        )
        state_dir = cluster.state_dir
    shutil.rmtree(state_dir, ignore_errors=True)
    if missing:
        raise SystemExit(
            f"kill-steal FAILED: {len(missing)} acked job(s) lost after "
            f"killing {list(fired['kills_fired'])}: {sorted(missing)}"
        )
    if not fired["kills_fired"]:
        raise SystemExit("kill-steal FAILED: the chaos kill never fired")
    if not golden_ok:
        raise SystemExit(
            "kill-steal FAILED: served result diverged from the golden "
            "pin or a direct run_sim"
        )
    return {
        "workers": workers,
        "jobs": n_jobs,
        "kill_op": kill_op,
        "killed": fired["kills_fired"],
        "jobs_lost": 0,
        "workers_died": stats["workers_died"],
        "stolen": stats["stolen"],
        "golden_pin": "pass",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--burst", type=int, default=64,
                        help="identical requests in the burst phase")
    parser.add_argument("--requests", type=int, default=24,
                        help="requests per scaling run / Zipf stream")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads")
    parser.add_argument("--workers", type=int, default=4,
                        help="top cluster size (burst/parity/chaos phases)")
    parser.add_argument("--chaos", action="store_true",
                        help="run the kill-steal phase")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink everything for the CI smoke")
    parser.add_argument("--out", default=None,
                        help="report path (default "
                             "results/BENCH_cluster.json)")
    args = parser.parse_args(argv)
    scales: tuple[int, ...] = (1, 2, 4)
    if args.smoke:
        args.burst = min(args.burst, 16)
        args.requests = min(args.requests, 12)
        args.clients = min(args.clients, 6)
        args.workers = min(args.workers, 2)
        scales = (1, 2)
    scales = tuple(s for s in scales if s <= max(args.workers, 1)) or (1,)

    report: dict = {
        "seed": args.seed,
        "smoke": args.smoke,
        "cpus": os.cpu_count() or 1,
    }
    report["scaling"] = phase_scaling(
        scales, args.requests, args.clients, args.seed
    )
    report["single_flight"] = phase_single_flight_burst(
        args.workers, args.burst
    )
    sf = report["single_flight"]
    print(f"single-flight: {sf['burst']} identical requests over "
          f"{sf['workers']} workers -> {sf['simulations']} simulation "
          f"({sf['deduped']:g} router-deduped, {sf['store_hits']:g} "
          "store hits)")
    report["dedup_parity"] = phase_dedup_parity(
        args.workers, args.requests, args.clients, args.seed,
        smoke=args.smoke,
    )
    parity = report["dedup_parity"]
    print(f"dedup parity: {parity['requests']} Zipf requests over "
          f"{parity['distinct_specs']} distinct specs -> "
          f"{parity['simulations']} simulations (parity with single node)")
    if args.chaos:
        report["kill_steal"] = phase_kill_steal(
            args.workers, 4 if args.smoke else 8,
            2 if args.smoke else 4, args.seed,
        )
        ks = report["kill_steal"]
        print(f"kill-steal: killed {list(ks['killed'])} mid-burst; "
              f"{ks['jobs_lost']} acked jobs lost; golden pin "
              f"{ks['golden_pin']}")
    from benchmarks.conftest import write_bench_artifact

    out = write_bench_artifact("cluster", report, out=args.out)
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
