"""Two-tier store for simulation results and phase snapshots.

Simulations are deterministic functions of (system config, application,
footprint, seed, policy, policy kwargs), so their results can be reused
across processes and sessions, not just within one interpreter.  Each
run is identified by :func:`cache_key`: a SHA-256 content hash of that
full parameter tuple, salted with :func:`simulator_version` (a digest of
the simulator's own source) and the replay-path selection.  A change to
the simulator or a ``REPRO_FORCE_SLOW_PATH`` A/B run therefore never
reads a stale entry.

:class:`Store` is the one cache shape: a bounded, lock-guarded memory
tier over an optional :class:`DiskCache` tier.  The runner keeps its
results in one, :class:`~repro.sim.sweep.PhaseMemo` its snapshots, and
the cluster router its shared-tier view.

:class:`DiskCache` is one directory of content-addressed JSON entries
(default ``results/cache/``, override with ``REPRO_CACHE_DIR``) holding
two record kinds: whole-run results at ``<root>/<kk>/<key>.json`` and
phase-boundary snapshot blobs (see :mod:`repro.sim.snapshot`) at
``<root>/snap/<kk>/<key>.json``.  Snapshot payloads are opaque bytes
here; the snapshot layer validates them and discards a blob that decodes
but lies through :meth:`Store.discard`.

Writes are atomic and durable (temp file + ``fsync`` + ``os.replace`` +
directory ``fsync``), so concurrent workers racing on the same key at
worst both compute it; neither can observe a half-written file, and a
power loss after a store returns cannot roll the entry back.  Set
``REPRO_NO_FSYNC=1`` to skip the durability barriers for test speed
(atomicity is unaffected).

Every entry carries a content checksum over its payload.  A load that
finds a truncated, unparsable, mislabeled or checksum-mismatched file
treats it as a miss, moves the file into ``<root>/quarantine/`` for
post-mortem inspection, and counts it in :meth:`DiskCache.stats` — a
corrupted cache (killed worker mid-write on a non-atomic filesystem,
bit rot, manual tampering) can never crash a sweep or serve wrong data.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

from repro.config import SystemConfig
from repro.sim.fastpath import force_slow_path
from repro.sim.results import SimulationResult

#: The ``repro`` package directory that :func:`simulator_version` reads.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = "results/cache"

#: Record kinds: (subdirectory under the root, chaos hook category, hit
#: counter, miss counter).
_KINDS = {
    "result": ("", "result", "disk_hits", "disk_misses"),
    "snapshot": ("snap", "blob", "snap_hits", "snap_misses"),
}

#: The counters :meth:`DiskCache.stats` reports.
DISK_COUNTERS = (
    "disk_hits", "disk_misses", "disk_quarantined", "snap_hits", "snap_misses",
)

#: Chaos-injection hook (see :mod:`repro.chaos.inject`); None = inert.
_CHAOS = None


def fsync_enabled() -> bool:
    """Durability barriers are on unless ``REPRO_NO_FSYNC`` is set."""
    return os.environ.get("REPRO_NO_FSYNC", "").strip() in ("", "0")


def fsync_dir(path: Path) -> None:
    """Flush directory metadata (new/renamed names) to stable storage."""
    if not fsync_enabled():
        return
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms without O_RDONLY directory opens
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def source_digest(root: Path) -> str:
    """SHA-256 over every ``.py`` file under ``root``, by relative path."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def simulator_version() -> str:
    """Digest of the whole ``repro`` package source, computed once per
    process on first use.  Any edit to it (even one that cannot change a
    result) makes every previously cached entry unreachable; stale files
    are inert JSON and can be deleted with a plain ``rm -r``."""
    return source_digest(_PACKAGE_ROOT)


def _canonical(value):
    """Insertion-order-independent, JSON-serializable form of a value.

    ``json.dumps(..., sort_keys=True)`` only canonicalizes dicts with
    uniformly sortable keys; anything that falls through to
    ``default=repr`` (sets, non-string-keyed mappings, arbitrary
    objects) keeps its insertion/iteration order in the blob, so two
    semantically equal ``policy_kwargs`` could hash to different cache
    keys.  Canonicalize recursively instead: mappings become pair lists
    sorted by their canonical-key JSON, sets become sorted element
    lists, dataclasses flatten through ``asdict``, and only opaque
    leaves fall back to ``repr``.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        items = [
            (json.dumps(_canonical(k), sort_keys=True), _canonical(v))
            for k, v in value.items()
        ]
        items.sort(key=lambda kv: kv[0])
        return {"__map__": items}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": sorted(
                json.dumps(_canonical(v), sort_keys=True) for v in value
            )
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": _canonical(dataclasses.asdict(value)),
        }
    return {"__repr__": repr(value)}


def cache_key(
    config: SystemConfig,
    app: str,
    policy: str,
    footprint_mb: float | None,
    seed: int,
    policy_kwargs: dict,
) -> str:
    """Content hash identifying one simulation run.

    ``policy_kwargs`` is canonicalized recursively (see
    :func:`_canonical`), so equal-but-reordered kwargs — including
    nested dict values and non-string keys — always hash to the same
    entry.
    """
    payload = {
        "simulator_version": simulator_version(),
        "slow_path": force_slow_path(),
        "config": dataclasses.asdict(config),
        "app": app,
        "policy": policy,
        "footprint_mb": footprint_mb,
        "seed": seed,
        "policy_kwargs": _canonical(policy_kwargs),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _result_checksum(result_dict: dict) -> str:
    """Content checksum of one serialized result."""
    blob = json.dumps(result_dict, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _decode_result(payload: dict) -> SimulationResult:
    result_dict = payload["result"]
    if payload["checksum"] != _result_checksum(result_dict):
        raise ValueError("checksum mismatch")
    return SimulationResult.from_dict(result_dict)


def _decode_blob(payload: dict) -> bytes:
    blob = base64.b64decode(payload["blob"], validate=True)
    if payload["checksum"] != hashlib.sha256(blob).hexdigest():
        raise ValueError("checksum mismatch")
    return blob


class DiskCache:
    """One directory of content-addressed results and snapshot blobs."""

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.reset_stats()

    def reset_stats(self) -> None:
        self.counts = dict.fromkeys(DISK_COUNTERS, 0)

    def _path(self, key: str, kind: str = "result") -> Path:
        # Two-level fan-out keeps directory listings manageable.
        return self.root.joinpath(_KINDS[kind][0], key[:2], f"{key}.json")

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is inspectable but inert."""
        target = self.root / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Can't move it (e.g. racing worker already did, or read-only
            # store): the load already counted the miss, and nothing was
            # quarantined — leave the counter alone so stats() stays
            # truthful.
            return
        self.counts["disk_quarantined"] += 1

    def _atomic_write(self, path: Path, payload: dict, category: str) -> Path:
        """Durably write one JSON entry: tmp + fsync + rename + dir fsync.

        The ``category`` routes the operation through the chaos hook:
        an injected "oserror" surfaces as a plain :class:`OSError`; an
        injected torn write leaves a *truncated* payload at the final
        path while the caller sees success — exactly the failure the
        checksum/quarantine read side exists to absorb.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(payload)
        fault = _CHAOS.write_fault(category, path) if _CHAOS is not None else None
        if fault is not None:
            if fault.mode == "oserror":
                raise OSError(f"chaos: injected {category} write error")
            path.write_text(data[: max(1, int(len(data) * fault.fraction))])
            return path
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
                if fsync_enabled():
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        fsync_dir(path.parent)
        if _CHAOS is not None:
            _CHAOS.post_write(category, path)
        return path

    def _read(self, key: str, kind: str, decode):
        """The decoded ``kind`` entry for ``key``, or None.

        Corrupt entries — truncated or unparsable JSON, missing fields,
        a key that does not match the filename, or a checksum mismatch —
        are quarantined rather than raised: a damaged cache degrades to
        recomputation, never to a crashed or wrong-answer sweep.
        """
        _sub, category, hit, miss = _KINDS[kind]
        path = self._path(key, kind)
        try:
            if _CHAOS is not None:
                _CHAOS.read_fault(category, path)
            with path.open() as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.counts[miss] += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, EOFError):
            self.counts[miss] += 1
            self._quarantine(path)
            return None
        except OSError:
            self.counts[miss] += 1
            return None
        try:
            if payload["key"] != key:
                raise ValueError("entry key does not match its filename")
            value = decode(payload)
        except (KeyError, TypeError, ValueError):
            self.counts[miss] += 1
            self._quarantine(path)
            return None
        self.counts[hit] += 1
        return value

    def _write(self, key: str, kind: str, checksum: str, field: str,
               value) -> Path:
        """Persist one entry under ``key`` atomically; returns the path."""
        payload = {
            "key": key,
            "simulator_version": simulator_version(),
            "checksum": checksum,
            field: value,
        }
        return self._atomic_write(
            self._path(key, kind), payload, _KINDS[kind][1]
        )

    def load(self, key: str) -> SimulationResult | None:
        """The stored result for ``key``, or None (see :meth:`_read`)."""
        return self._read(key, "result", _decode_result)

    def store(self, key: str, result: SimulationResult) -> Path:
        """Persist ``result`` under ``key`` atomically; returns the path."""
        result_dict = result.to_dict()
        return self._write(key, "result", _result_checksum(result_dict),
                           "result", result_dict)

    def has(self, key: str) -> bool:
        """Whether a result file exists for ``key`` (no validation)."""
        return self._path(key).exists()

    def load_blob(self, key: str) -> bytes | None:
        """The stored snapshot blob for ``key``, or None."""
        return self._read(key, "snapshot", _decode_blob)

    def store_blob(self, key: str, blob: bytes) -> Path:
        """Persist a snapshot blob under ``key`` atomically."""
        return self._write(key, "snapshot", hashlib.sha256(blob).hexdigest(),
                           "blob", base64.b64encode(blob).decode("ascii"))

    def has_blob(self, key: str) -> bool:
        return self._path(key, "snapshot").exists()

    def quarantine(self, key: str, kind: str = "result") -> None:
        """Move an entry aside that passed its checksum but that the
        caller's own validation rejected."""
        path = self._path(key, kind)
        if path.exists():
            self._quarantine(path)

    def stats(self) -> dict[str, int]:
        return dict(self.counts)


class Store:
    """Bounded, lock-guarded memory tier over an optional disk tier.

    ``kind`` selects the record kind: ``"result"`` values are
    :class:`~repro.sim.SimulationResult`, ``"snapshot"`` values are
    bytes.  The memory tier is an LRU bounded by ``max_entries`` and/or
    ``max_bytes``; a value larger than ``max_bytes`` is never held in
    memory.  Sizes (a blob's length, else the pickled length) are only
    measured under a byte bound, since pickling a result costs about as
    much as the rest of a memory-tier lookup.  All methods are
    thread-safe.

    Counters: ``hits`` (memory), ``disk_hits`` (promoted from disk),
    ``misses`` (neither tier), ``stores`` / ``store_errors`` (disk
    writes that succeeded / raised :class:`OSError`), ``evictions`` and
    ``corrupt`` (entries the caller discarded as invalid).
    """

    def __init__(
        self,
        disk: DiskCache | None = None,
        *,
        kind: str = "result",
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        for name, bound in (("max_entries", max_entries),
                            ("max_bytes", max_bytes)):
            if bound is not None and bound < 1:
                raise ValueError(f"{name} must be >= 1")
        self.disk = disk
        self.kind = kind
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # DiskCache methods, looked up per call so that subclasses and
        # wrappers installed on the class take effect.
        self._load, self._store, self._has = (
            ("load", "store", "has") if kind == "result"
            else ("load_blob", "store_blob", "has_blob")
        )
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        """Drop the memory tier and reset every counter."""
        with self._lock:
            self._mem: OrderedDict[str, tuple[object, int]] = OrderedDict()
            self._bytes = 0
            self.hits = 0
            self.disk_hits = 0
            self.misses = 0
            self.stores = 0
            self.store_errors = 0
            self.evictions = 0
            self.corrupt = 0

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is in the memory tier (no disk probe)."""
        return key in self._mem

    def has(self, key: str) -> bool:
        """Whether ``key`` is in either tier (no promotion, no counting)."""
        if key in self._mem:
            return True
        return self.disk is not None and getattr(self.disk, self._has)(key)

    def get(self, key: str):
        """Memory tier first, then the disk tier; None on a full miss."""
        return self.lookup(key)[0]

    def lookup(self, key: str) -> tuple[object, str | None]:
        """:meth:`get`, also naming the tier that served the value:
        ``"memory"``, ``"disk"`` or None on a full miss."""
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self._mem.move_to_end(key)
                self.hits += 1
                return entry[0], "memory"
        value = None
        if self.disk is not None:
            value = getattr(self.disk, self._load)(key)
        with self._lock:
            if value is None:
                self.misses += 1
                return None, None
            self.disk_hits += 1
            self._insert(key, value)
        return value, "disk"

    def put(self, key: str, value, *, persist: bool = True) -> bool:
        """Insert into memory and, with ``persist``, write through to disk.

        A failed disk write still keeps the value in memory — it is
        correct, just not durable — and counts in ``store_errors``;
        returns False in that case.  ``persist=False`` is for values some
        other process already wrote to a shared disk tier.
        """
        ok = True
        write = persist and self.disk is not None
        if write:
            try:
                getattr(self.disk, self._store)(key, value)
            except OSError:
                ok = False
        with self._lock:
            self._insert(key, value)
            if write:
                if ok:
                    self.stores += 1
                else:
                    self.store_errors += 1
        return ok

    def discard(self, key: str, *, corrupt: bool = False) -> None:
        """Drop ``key`` from memory; ``corrupt`` also quarantines its disk
        entry and counts it."""
        with self._lock:
            entry = self._mem.pop(key, None)
            if entry is not None:
                self._bytes -= entry[1]
            if corrupt:
                self.corrupt += 1
        if corrupt and self.disk is not None:
            self.disk.quarantine(key, self.kind)

    def add_counts(self, **counts: int) -> None:
        """Add counter movement another process's store observed."""
        with self._lock:
            for name, value in counts.items():
                setattr(self, name, getattr(self, name) + value)

    def _insert(self, key: str, value) -> None:
        size = 0
        if self.max_bytes is not None:
            size = (len(value) if isinstance(value, bytes)
                    else len(pickle.dumps(value)))
        old = self._mem.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        if self.max_bytes is not None and size > self.max_bytes:
            return
        self._mem[key] = (value, size)
        self._bytes += size
        while len(self._mem) > 1 and (
            (self.max_entries is not None
             and len(self._mem) > self.max_entries)
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            _, (_, evicted) = self._mem.popitem(last=False)
            self._bytes -= evicted
            self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._mem),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "stores": self.stores,
                "store_errors": self.store_errors,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
            }
