"""Phase memo: a per-run resume store of phase-boundary snapshots.

A run that is simulated again — a sweep re-run after its result cache
was dropped, a pool worker retrying a run, a warm ``--memo-dir`` session
— resumes from the deepest snapshot its own earlier replay stored
(:mod:`repro.sim.snapshot`) instead of replaying the whole trace.

Snapshots are keyed by the run's result-cache ``key`` (simulator
version, replay-path flag, config, app, footprint, seed, policy and
canonical kwargs) plus the trace prefix, so only the same run can ever
resume one.  Policy variants over one trace share the built trace and
its per-phase replay arrays (the workload registry and
:meth:`~repro.sim.fastpath.FastReplay.run_phase` cache those), not
snapshots.

:class:`PhaseMemo` keeps the snapshots in a
:class:`~repro.harness.diskcache.Store` of the snapshot kind: a memory
tier bounded at :data:`MEM_BUDGET_BYTES` over an optional disk tier with
the result cache's checksum/quarantine discipline.
"""

from __future__ import annotations

from repro.sim.snapshot import MemoSession

#: Byte bound of the snapshot memory tier.
MEM_BUDGET_BYTES = 256 * 1024 * 1024

#: Counters of :meth:`PhaseMemo.stats` that :meth:`PhaseMemo.merge` adds.
COUNTERS = (
    "hits", "misses", "stores", "snapshot_bytes", "resumed_phases",
    "corrupt", "io_errors",
)


class PhaseMemo:
    """Phase-boundary snapshots in a two-tier store, plus their counters."""

    def __init__(self, disk=None) -> None:
        from repro.harness.diskcache import Store

        #: Snapshot blobs by phase key; sessions read and discard here.
        self.store = Store(disk, kind="snapshot", max_bytes=MEM_BUDGET_BYTES)
        #: Runs that resumed from a snapshot / replayed cold, and
        #: snapshots taken (reported as ``hits``/``misses``/``stores``;
        #: the store's own counters of those names count blob lookups
        #: and disk writes).
        self.resumed_runs = 0
        self.cold_runs = 0
        self.snapshots_taken = 0
        self.snapshot_bytes = 0
        self.resumed_phases = 0

    @property
    def corrupt(self) -> int:
        """Snapshots that decoded but failed validation (quarantined)."""
        return self.store.corrupt

    @property
    def io_errors(self) -> int:
        """Snapshot writes the disk tier refused (kept in memory)."""
        return self.store.store_errors

    def session(self, key: str) -> MemoSession:
        """Bind one run, named by its result-cache ``key``, to this store."""
        return MemoSession(self, key)

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

    def merge(self, delta: dict) -> None:
        """Add the :data:`COUNTERS` movement of another process's memo
        (a pool worker's run), so one memo holds the sweep's totals."""
        self.resumed_runs += delta["hits"]
        self.cold_runs += delta["misses"]
        self.snapshots_taken += delta["stores"]
        self.snapshot_bytes += delta["snapshot_bytes"]
        self.resumed_phases += delta["resumed_phases"]
        self.store.add_counts(corrupt=delta["corrupt"],
                              store_errors=delta["io_errors"])

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
