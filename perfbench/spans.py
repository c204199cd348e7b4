"""Wall-clock spans recorded around calls into the program's layers.

The traced mode wraps public functions and methods of ``repro`` from
here, outside the program: each wrapped call becomes a span with a name,
start, end, parent span and (for served jobs) a request id.  Seams hit
once per trace record (``Machine.access``, ``PageTables.bulk_views``)
are too hot for spans and only count calls and time.  Spans stay in
memory and are written when the run ends, as a Chrome trace and a
per-layer self-time table.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    thread: int
    rid: str | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """In-memory span sink; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Aggregated hot-seam counters (calls and nanoseconds).
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, rid))
        start = perf_counter_ns()
        try:
            yield span_id
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append(Span(
                span_id, parent[0] if parent else None, name, start, end,
                threading.get_ident(), rid,
            ))

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value


def self_times(spans) -> dict[str, int]:
    """Per-name self time: each span's duration minus the part of its
    interval covered by its child spans (overlaps counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        kids = sorted(children.get(span.id, ()), key=lambda s: s.start_ns)
        for kid in kids:
            lo = max(kid.start_ns, cursor)
            hi = min(kid.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] = totals.get(span.name, 0) + (
            span.duration_ns - covered
        )
    return totals


def chrome_trace(spans, metadata: dict) -> dict:
    """Chrome trace-event JSON ("X" complete events, microseconds)."""
    base = min((s.start_ns for s in spans), default=0)
    events = [
        {
            "name": s.name, "ph": "X", "pid": 1, "tid": s.thread,
            "ts": (s.start_ns - base) / 1e3, "dur": s.duration_ns / 1e3,
            "args": {"id": s.id, "parent": s.parent, "rid": s.rid},
        }
        for s in spans
    ]
    return {"traceEvents": events, "otherData": metadata}


def self_time_table(spans) -> list[dict]:
    """Rows of (layer, spans, self seconds, total seconds), by self time."""
    totals: dict[str, list] = {}
    for span in spans:
        row = totals.setdefault(span.name, [0, 0])
        row[0] += 1
        row[1] += span.duration_ns
    selfs = self_times(spans)
    rows = [
        {"layer": name, "spans": count, "self_s": selfs[name] / 1e9,
         "total_s": total / 1e9}
        for name, (count, total) in totals.items()
    ]
    rows.sort(key=lambda row: -row["self_s"])
    return rows


def write_trace(prefix: Path, recorder: SpanRecorder, metadata: dict) -> None:
    """Write ``<prefix>.trace.json`` and ``<prefix>.layers.txt``."""
    prefix.parent.mkdir(parents=True, exist_ok=True)
    trace_path = prefix.with_name(prefix.name + ".trace.json")
    trace_path.write_text(json.dumps(chrome_trace(recorder.spans, metadata)))
    lines = [f"{'layer':<28} {'spans':>8} {'self_s':>10} {'total_s':>10}"]
    for row in self_time_table(recorder.spans):
        lines.append(
            f"{row['layer']:<28} {row['spans']:>8} {row['self_s']:>10.4f} "
            f"{row['total_s']:>10.4f}"
        )
    lines.append("")
    lines.append("hot-seam counters (no spans):")
    for name in sorted(recorder.counts):
        lines.append(f"  {name} = {recorder.counts[name]:g}")
    table_path = prefix.with_name(prefix.name + ".layers.txt")
    table_path.write_text("\n".join(lines) + "\n")


# -- seams -----------------------------------------------------------------


def _replace_everywhere(original, replacement) -> list:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (modules import these functions by name)."""
    undo = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _spanned(recorder: SpanRecorder, name: str, fn):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap the program's layer seams while the block runs."""
    import repro.cluster.router  # noqa: F401  (bind names before patching)
    import repro.serve.service  # noqa: F401
    import repro.workloads.registry as registry
    from repro.harness import runner
    from repro.harness.diskcache import DiskCache
    from repro.memory.page_table import PageTables
    from repro.sim import snapshot
    from repro.sim.machine import Machine
    from repro.sim.sweep import PhaseMemo
    from repro.tenancy import mix

    undo: list = []
    functions = (
        (registry.get_workload, "workloads.build"),
        (mix.get_mix_workload, "tenancy.build"),
        (runner.run_sims_parallel, "harness.run"),
        (snapshot.decision_digest, "memo.digest"),
        (snapshot.capture, "memo.capture"),
        (snapshot.restore, "memo.restore"),
    )
    for fn, name in functions:
        undo += _replace_everywhere(fn, _spanned(recorder, name, fn))
    methods = (
        (Machine, "__init__", "sim.machine_build"),
        (DiskCache, "load", "harness.store.load"),
        (DiskCache, "store", "harness.store.store"),
        (PhaseMemo, "put", "memo.put"),
    )
    for cls, attr, name in methods:
        original = vars(cls)[attr]
        setattr(cls, attr, _spanned(recorder, name, original))
        undo.append((cls, attr, original))

    cached_build = registry._cached_build

    def counted_build(*args, **kwargs):
        misses = cached_build.cache_info().misses
        trace = cached_build(*args, **kwargs)
        if cached_build.cache_info().misses > misses:
            recorder.add("workloads.builds", 1)
        return trace

    counted_build.cache_clear = cached_build.cache_clear
    counted_build.cache_info = cached_build.cache_info
    registry._cached_build = counted_build
    undo.append((registry, "_cached_build", cached_build))

    run = vars(Machine)["run"]
    access = vars(Machine)["access"]
    bulk_views = vars(PageTables)["bulk_views"]
    counts = recorder.counts

    def traced_run(self):
        calls = counts.get("sim.access_calls", 0.0)
        with recorder.span("sim.run"):
            result = run(self)
        policy = self.policy.name
        recorder.add(f"sim.access_calls.{policy}",
                     counts.get("sim.access_calls", 0.0) - calls)
        recorder.add(f"sim.records.{policy}", self.trace.total_records)
        return result

    def traced_access(self, gpu, page, is_write, weight):
        start = perf_counter_ns()
        try:
            return access(self, gpu, page, is_write, weight)
        finally:
            counts["sim.access_ns"] = (
                counts.get("sim.access_ns", 0.0) + perf_counter_ns() - start
            )
            counts["sim.access_calls"] = counts.get("sim.access_calls", 0.0) + 1

    def traced_bulk_views(self):
        counts["memory.bulk_views_calls"] = (
            counts.get("memory.bulk_views_calls", 0.0) + 1
        )
        return bulk_views(self)

    for cls, attr, original, replacement in (
        (Machine, "run", run, traced_run),
        (Machine, "access", access, traced_access),
        (PageTables, "bulk_views", bulk_views, traced_bulk_views),
    ):
        setattr(cls, attr, replacement)
        undo.append((cls, attr, original))
    try:
        yield recorder
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
