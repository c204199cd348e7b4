"""Sweep-level fast path: shared replay state across a batch of runs.

A sweep (``run_sims_parallel``, the golden matrix, every ``fig*``
benchmark) executes many runs that differ only in policy over the same
(config, app, footprint, seed) **cohort**.  Three kinds of work are
shared across a cohort instead of being paid per run:

* the **trace** itself — generated once and reused (the workload
  registry memoizes built traces), which also shares
* the **per-phase SoA replay arrays** — the vectorized replayer's
  derived arrays (int64 gpu lane, page offsets, write mask, gpu bit)
  are computed once per phase and cached *on the phase*
  (:meth:`FastReplay.run_phase`), so every lane-declaring policy variant
  replays the same structure-of-arrays pass over them; and
* the **phase prefix** — runs whose placement decisions agree through a
  boundary resume from one shared snapshot (:mod:`repro.sim.snapshot`).

Runs stay on the shared lane while their per-phase decision digests
match the cohort's reference chain and fork off at the first divergent
decision; :class:`SweepLanes` detects divergence by digest comparison
and counts the forks that ``last_sweep_summary`` reports.

:class:`PhaseMemo` keeps the snapshots in a
:class:`~repro.harness.diskcache.Store` of the snapshot kind: a
byte-bounded memory tier (``REPRO_MEMO_MEM_MB``, default 256) over an
optional disk tier with the result cache's checksum/quarantine
discipline.  All counters (hits, misses, stores, snapshot bytes,
resumed phases, corruption, forks) feed ``repro.harness.runner`` and
the sweep summary.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.sim.snapshot import MemoSession

#: Default in-memory snapshot budget (MB) when the env knob is unset.
DEFAULT_MEM_MB = 256.0


def _mem_budget_bytes(max_bytes: int | None) -> int:
    if max_bytes is not None:
        return max(1, int(max_bytes))
    raw = os.environ.get("REPRO_MEMO_MEM_MB", "").strip()
    mb = DEFAULT_MEM_MB
    if raw:
        try:
            mb = max(1.0, float(raw))
        except ValueError:
            pass
    return int(mb * 1024 * 1024)


class SweepLanes:
    """Decision-lane bookkeeping for one sweep's cohorts.

    The first run recorded in a cohort defines the reference chain (the
    shared lane); every later run's shared-prefix length is the longest
    digest-for-digest agreement with it.  A run *forks* when it leaves
    the lane before its own chain ends — i.e. its first divergent
    placement decision.  Fork counts are observability, not correctness:
    they tell a sweep report where policy variants stopped sharing work.
    """

    def __init__(self) -> None:
        self._cohorts: dict[str, dict] = {}
        self.runs = 0
        self.forks = 0
        #: Records accumulated since the last :meth:`drain` — worker
        #: processes ship these to the parent sweep for global accounting.
        self._pending: list[tuple] = []

    def record(self, cohort: str, label: str, chain,
               resumed_phases: int = 0) -> None:
        chain = list(chain)
        self.runs += 1
        entry = self._cohorts.get(cohort)
        if entry is None:
            entry = {"reference": label, "chain": chain, "runs": {}}
            self._cohorts[cohort] = entry
        reference = entry["chain"]
        shared = 0
        for left, right in zip(reference, chain):
            if left != right:
                break
            shared += 1
        forked = label != entry["reference"] and shared < len(chain)
        if forked and label not in entry["runs"]:
            self.forks += 1
        entry["runs"][label] = {
            "phases": len(chain),
            "shared_prefix": shared,
            "forked": forked,
            "resumed_phases": resumed_phases,
        }
        self._pending.append((cohort, label, chain, resumed_phases))

    def drain(self) -> list[tuple]:
        """Pop the records accumulated since the last drain."""
        pending, self._pending = self._pending, []
        return pending

    def replay(self, records) -> None:
        """Merge records drained from another process's lanes."""
        for cohort, label, chain, resumed in records:
            self.record(cohort, label, chain, resumed_phases=resumed)
        self._pending.clear()

    def report(self) -> dict:
        return {
            "cohorts": len(self._cohorts),
            "runs": self.runs,
            "prefix_forks": self.forks,
            "by_cohort": {
                cohort[:12]: {
                    "reference": entry["reference"],
                    "runs": dict(entry["runs"]),
                }
                for cohort, entry in sorted(self._cohorts.items())
            },
        }

    def clear(self) -> None:
        self._cohorts.clear()
        self._pending.clear()
        self.runs = 0
        self.forks = 0


class PhaseMemo:
    """Phase-boundary snapshots in a two-tier store, plus their lanes."""

    def __init__(self, disk=None, max_bytes: int | None = None) -> None:
        from repro.harness.diskcache import Store

        #: Snapshot blobs by phase key; sessions read and discard here.
        self.store = Store(
            disk, kind="snapshot", max_bytes=_mem_budget_bytes(max_bytes)
        )
        #: Runs that resumed from a snapshot / replayed cold, and
        #: snapshots taken (reported as ``hits``/``misses``/``stores``;
        #: the store's own counters of those names count blob lookups
        #: and disk writes).
        self.resumed_runs = 0
        self.cold_runs = 0
        self.snapshots_taken = 0
        self.snapshot_bytes = 0
        self.resumed_phases = 0
        self.lanes = SweepLanes()

    @property
    def corrupt(self) -> int:
        """Snapshots that decoded but failed validation (quarantined)."""
        return self.store.corrupt

    @property
    def io_errors(self) -> int:
        """Snapshot writes the disk tier refused (kept in memory)."""
        return self.store.store_errors

    # -- sessions ----------------------------------------------------------

    def session(
        self,
        config,
        app: str,
        policy: str,
        *,
        footprint_mb: float | None = None,
        seed: int = 0,
        policy_kwargs: dict | None = None,
        key: str | None = None,
    ) -> MemoSession:
        """Bind one run's full identity to this store.

        The base key is the run's result-cache ``key`` (simulator
        version, replay-path flag, config, app, footprint, seed, policy
        + canonical kwargs), computed here unless the caller holds it;
        the cohort key drops the policy, grouping all variants over the
        same trace into one decision lane.
        """
        import dataclasses

        from repro.harness.diskcache import _canonical, cache_key
        from repro.sim.fastpath import force_slow_path

        kwargs = dict(policy_kwargs or {})
        if key is None:
            key = cache_key(config, app, policy, footprint_mb, seed, kwargs)
        cohort_blob = json.dumps(
            {
                "config": dataclasses.asdict(config),
                "app": app,
                "footprint_mb": footprint_mb,
                "seed": seed,
                "slow_path": force_slow_path(),
            },
            sort_keys=True,
            default=repr,
        )
        cohort = hashlib.sha256(cohort_blob.encode()).hexdigest()
        label = policy
        if kwargs:
            label += json.dumps(_canonical(kwargs), sort_keys=True)
        return MemoSession(self, key, cohort, label)

    def put(self, key: str, blob: bytes) -> None:
        """Store one new snapshot.  A blob tier that cannot accept writes
        (disk full, permission, injected fault) must not kill a
        simulation mid-run: the snapshot stays in the memory tier and the
        next process pays a cold replay instead."""
        self.snapshots_taken += 1
        self.snapshot_bytes += len(blob)
        self.store.put(key, blob)

    # -- accounting --------------------------------------------------------

    def note_hit(self, resumed_phases: int) -> None:
        self.resumed_runs += 1
        self.resumed_phases += resumed_phases

    def note_miss(self) -> None:
        self.cold_runs += 1

    def stats(self) -> dict:
        store = self.store.stats()
        return {
            "hits": self.resumed_runs,
            "misses": self.cold_runs,
            "stores": self.snapshots_taken,
            "snapshot_bytes": self.snapshot_bytes,
            "resumed_phases": self.resumed_phases,
            "corrupt": store["corrupt"],
            "io_errors": store["store_errors"],
            "prefix_forks": self.lanes.forks,
            "mem_entries": store["entries"],
            "mem_bytes": store["bytes"],
        }

    def clear(self) -> None:
        """Reset counters and drop the in-memory tier."""
        self.store.clear()
        self.resumed_runs = 0
        self.cold_runs = 0
        self.snapshots_taken = 0
        self.snapshot_bytes = 0
        self.resumed_phases = 0
        self.lanes.clear()
