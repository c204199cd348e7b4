"""Declarative infrastructure-fault plans (the serve-layer ``FaultPlan``).

:mod:`repro.faults` injects faults into the *simulated machine* — links,
frames, migrations.  This module injects faults into the
*infrastructure that runs the simulations*: the disk cache, the serve
journal, the worker pool and the dispatcher.  The shape deliberately
mirrors :mod:`repro.faults.plan`: a frozen, hashable
:class:`ChaosPlan` of typed events, applied at runtime by
:class:`repro.chaos.inject.ChaosInjector` through explicit hooks in
:mod:`repro.harness.diskcache`, :mod:`repro.serve.journal` and
:mod:`repro.harness.runner`.

Events are addressed by **operation index** within a category — "the
3rd result-cache write", "the 0th simulation attempt" — so a plan is
deterministic by construction: the same plan against the same request
stream fires the same faults, with no wall-clock or RNG dependence at
injection time.  (The seed is used only by :meth:`ChaosPlan.random`,
which *generates* a pseudo-random plan deterministically.)

Event vocabulary (see ``docs/MODEL.md`` §13):

* :class:`TornWrite` — a write persists only a prefix of its payload:
  for ``result``/``blob`` files the final file holds truncated bytes
  (the read side must quarantine-and-recompute); for ``journal`` the
  append raises after tearing, so the service never acks the record.
* :class:`IOFault` — ``OSError`` on the nth read or write of a
  category (disk full, permission, transient device error).
* :class:`BlobCorrupt` — flip a byte of a snapshot blob *after* a
  successful write (silent bit rot under the checksum).
* :class:`WorkerKill` — the nth simulation attempt dies as if its
  worker process was killed (an ``OSError`` subclass, so the PR-2
  retry-with-backoff semantics apply unchanged).
* :class:`DispatchDelay` — injected latency ahead of the nth dispatched
  sweep (slow scheduler / noisy neighbor).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields

from repro.faults.plan import _freeze

#: Instrumented I/O categories.
CATEGORIES = ("result", "blob", "journal")


@dataclass(frozen=True)
class TornWrite:
    """Persist only ``fraction`` of the ``op``-th ``category`` write."""

    category: str
    op: int
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(
                f"unknown category {self.category!r}; known: {CATEGORIES}"
            )
        if self.op < 0:
            raise ValueError("op must be non-negative")
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("fraction must be in [0, 1)")


@dataclass(frozen=True)
class IOFault:
    """Raise ``OSError`` on the ``op``-th ``category`` read or write."""

    category: str
    op: int
    where: str = "write"

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(
                f"unknown category {self.category!r}; known: {CATEGORIES}"
            )
        if self.op < 0:
            raise ValueError("op must be non-negative")
        if self.where not in ("read", "write"):
            raise ValueError("where must be 'read' or 'write'")


@dataclass(frozen=True)
class BlobCorrupt:
    """Flip one byte of the ``op``-th snapshot blob after it is written."""

    op: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.op < 0:
            raise ValueError("op must be non-negative")
        if self.offset < 0:
            raise ValueError("offset must be non-negative")


@dataclass(frozen=True)
class WorkerKill:
    """Kill the worker running the ``op``-th simulation attempt."""

    op: int

    def __post_init__(self) -> None:
        if self.op < 0:
            raise ValueError("op must be non-negative")


@dataclass(frozen=True)
class DispatchDelay:
    """Sleep ``delay_s`` ahead of the ``op``-th dispatched sweep."""

    op: int
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.op < 0:
            raise ValueError("op must be non-negative")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


@dataclass(frozen=True)
class ChaosPlan:
    """Every infrastructure fault injected into one soak/serve session.

    Frozen and hashable, like :class:`repro.faults.FaultPlan`.  An empty
    plan is inert: the injector installs no behavior change and every
    hook call is a cheap None check.
    """

    torn_writes: tuple[TornWrite, ...] = ()
    io_faults: tuple[IOFault, ...] = ()
    blob_corruptions: tuple[BlobCorrupt, ...] = ()
    worker_kills: tuple[WorkerKill, ...] = ()
    dispatch_delays: tuple[DispatchDelay, ...] = ()
    #: Seed recorded for provenance (used by :meth:`random`).
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "torn_writes", "io_faults", "blob_corruptions",
            "worker_kills", "dispatch_delays",
        ):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def empty(self) -> bool:
        return not self.events

    @property
    def events(self) -> tuple:
        return (
            *self.torn_writes,
            *self.io_faults,
            *self.blob_corruptions,
            *self.worker_kills,
            *self.dispatch_delays,
        )

    def digest(self) -> str:
        """Short content hash identifying the plan (reports/logs)."""
        blob = json.dumps(self.to_spec(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    # -- (de)serialization -------------------------------------------------

    def to_spec(self) -> dict:
        return {
            "torn_writes": [
                {"category": t.category, "op": t.op, "fraction": t.fraction}
                for t in self.torn_writes
            ],
            "io_faults": [
                {"category": f.category, "op": f.op, "where": f.where}
                for f in self.io_faults
            ],
            "blob_corruptions": [
                {"op": c.op, "offset": c.offset}
                for c in self.blob_corruptions
            ],
            "worker_kills": [{"op": k.op} for k in self.worker_kills],
            "dispatch_delays": [
                {"op": d.op, "delay_s": d.delay_s}
                for d in self.dispatch_delays
            ],
            "seed": self.seed,
        }

    @classmethod
    def from_spec(cls, spec: dict | str) -> "ChaosPlan":
        if isinstance(spec, str):
            spec = json.loads(spec)
        if not isinstance(spec, dict):
            raise ValueError("chaos-plan spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown chaos-plan keys: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(
            torn_writes=tuple(
                TornWrite(**t) for t in spec.get("torn_writes", ())
            ),
            io_faults=tuple(
                IOFault(**f) for f in spec.get("io_faults", ())
            ),
            blob_corruptions=tuple(
                BlobCorrupt(**c) for c in spec.get("blob_corruptions", ())
            ),
            worker_kills=tuple(
                WorkerKill(**k) for k in spec.get("worker_kills", ())
            ),
            dispatch_delays=tuple(
                DispatchDelay(**d) for d in spec.get("dispatch_delays", ())
            ),
            seed=spec.get("seed", 0),
        )

    # -- generation --------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        ops_horizon: int = 32,
        torn: int = 2,
        io: int = 2,
        corrupt: int = 1,
        kills: int = 2,
        delays: int = 1,
        max_delay_s: float = 0.02,
    ) -> "ChaosPlan":
        """A deterministic pseudo-random plan of the given intensity.

        Operation indices are drawn from ``range(ops_horizon)`` without
        replacement per category, so two events never target the same
        operation and the plan stays reproducible for a given seed.
        """
        rng = random.Random(seed)

        def picks(n: int) -> list[int]:
            n = min(n, ops_horizon)
            return sorted(rng.sample(range(ops_horizon), n))

        return cls(
            torn_writes=tuple(
                TornWrite(
                    category=rng.choice(CATEGORIES),
                    op=op,
                    fraction=round(rng.uniform(0.1, 0.9), 3),
                )
                for op in picks(torn)
            ),
            io_faults=tuple(
                IOFault(
                    category=rng.choice(CATEGORIES),
                    op=op,
                    where=rng.choice(("read", "write")),
                )
                for op in picks(io)
            ),
            blob_corruptions=tuple(
                BlobCorrupt(op=op, offset=rng.randrange(0, 64))
                for op in picks(corrupt)
            ),
            worker_kills=tuple(WorkerKill(op=op) for op in picks(kills)),
            dispatch_delays=tuple(
                DispatchDelay(
                    op=op, delay_s=round(rng.uniform(0.0, max_delay_s), 4)
                )
                for op in picks(delays)
            ),
            seed=seed,
        )
