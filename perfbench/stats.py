"""Percentiles, metric names, the protocol stamp and peak memory."""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 10


def percentile(values, q: float, *, min_tail: int = MIN_TAIL) -> float:
    """The ``q``-th percentile of ``values``, linearly interpolated.

    Refuses (``ValueError``) when fewer than ``min_tail`` samples lie
    beyond it, so a p90 needs at least 100 samples.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    n = len(values)
    beyond = n * (100 - q) / 100
    if n == 0 or beyond < min_tail:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond:g} beyond it; "
            f"at least {min_tail} are required"
        )
    ordered = sorted(values)
    pos = (n - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class HostClock:
    """Converts host seconds to reference seconds.

    The single-thread speed of a shared host swings by tens of percent
    over tens of seconds, more than any bound this benchmark could hold.
    So a fixed pure-Python loop is timed between jobs (``sample``), and a
    duration measured between two samples is scaled by ``NOMINAL_S`` over
    the mean of the samples on either side of it.  On a host where the
    loop takes ``NOMINAL_S`` reference and host seconds agree.  The loop
    is benchmark code, so a change to the program cannot move it.
    Samples are taken in the process that does the timed work: a loop in
    one process does not track another process's speed.
    """

    NOMINAL_S = 0.004
    ITERATIONS = 15_000
    #: Each sample is the fastest of this many loops (a context switch
    #: inside one loop would read as a slow host).
    LOOPS = 3

    def __init__(self) -> None:
        self._times: list[float] = []
        self._refs: list[float] = []

    @classmethod
    def _loop(cls) -> float:
        start = perf_counter()
        table: dict = {}
        acc = 0
        for i in range(cls.ITERATIONS):
            key = i & 255
            table[key] = table.get(key, 0) + i
            acc += (i * 7) % 13
        return perf_counter() - start

    def sample(self) -> None:
        self._refs.append(min(self._loop() for _ in range(self.LOOPS)))
        self._times.append(perf_counter())

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per host second over ``[t0, t1]``."""
        before = bisect.bisect_right(self._times, t0) - 1
        after = bisect.bisect_left(self._times, t1)
        refs = []
        if before >= 0:
            refs.append(self._refs[before])
        if after < len(self._refs):
            refs.append(self._refs[after])
        if not refs:
            raise ValueError("no host-speed sample around the interval")
        return self.NOMINAL_S * len(refs) / sum(refs)

    def ref_s(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)

    @property
    def samples(self) -> list[float]:
        return list(self._refs)


def check_metric_names(names) -> None:
    bad = [name for name in names if not METRIC_NAME.match(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")


def peak_rss_mb() -> float:
    """Max resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _git(root: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest(root: Path) -> str:
    """sha256 over ``src/**/*.py`` (identifies a checkout without git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def protocol(root: Path, *, workload: str, seed: int, repeat: int,
             seconds: int, traced: bool) -> dict:
    """How, where and on what a result was measured."""
    import numpy

    from repro.harness.diskcache import fsync_enabled

    sha = _git(root, "rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        dirty = bool(_git(root, "status", "--porcelain", "--", "src"))
    return {
        "workload": workload,
        "seed": seed,
        "repeat": repeat,
        "seconds": seconds,
        "traced": traced,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": source_digest(root),
        "fsync": fsync_enabled(),
        # Every workload builds its stores in fresh directories.
        "fresh_store": True,
        "platform": platform.platform(),
        "executable": sys.executable,
    }
