"""repro.cluster — shard the simulation service across worker processes.

The PR-5/PR-7 serve layer scales one asyncio process; this package
scales it *out*.  ``repro-oasis cluster --workers N`` runs N real
``repro-oasis serve`` subprocesses behind one router:

* :mod:`repro.cluster.ring` — the consistent-hash ring (SHA-256,
  virtual nodes) that gives every
  :func:`repro.harness.diskcache.cache_key` a deterministic owner, so
  identical requests land on the same worker and single-flight dedup
  stays effective cluster-wide.
* :mod:`repro.cluster.router` — the :class:`ClusterRouter`:
  registration, heartbeat + wedge detection, journal stealing from
  dead workers, lane-aware load shedding, the shared
  result :class:`~repro.harness.diskcache.Store` fast path, and
  a serve-compatible HTTP surface (:class:`RouterHttpServer`).
* :mod:`repro.cluster.supervisor` — :class:`LocalCluster`, which hosts
  the router and spawns/kills/respawns the worker subprocesses (used
  by the CLI, ``benchmarks/bench_cluster.py`` and the chaos smoke).

Quickstart::

    from repro.cluster import LocalCluster

    with LocalCluster(workers=2) as cluster:
        result = cluster.client().submit("mm", "oasis")
        print(result.total_time_ns)
"""

from repro.cluster.ring import DEFAULT_VNODES, EmptyRingError, HashRing
from repro.cluster.router import (
    DEFAULT_MAX_INFLIGHT,
    LANE_SHED_FRACTIONS,
    ClusterRouter,
    RouterHttpServer,
    Worker,
    run_router,
)
from repro.cluster.supervisor import (
    ClusterStartupError,
    LocalCluster,
    run_cluster_forever,
)

__all__ = [
    "ClusterRouter",
    "ClusterStartupError",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_VNODES",
    "EmptyRingError",
    "HashRing",
    "LANE_SHED_FRACTIONS",
    "LocalCluster",
    "RouterHttpServer",
    "Worker",
    "run_cluster_forever",
    "run_router",
]
