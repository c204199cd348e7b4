"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay_matrix --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs the
workload untraced and then traced and prints every per-layer metric.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every output matched its check.  Details (protocol stamp,
per-round numbers, mismatches, and in traced mode a Chrome trace and
a per-layer self-time table) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("replay_matrix", "sweep_store", "serve_zipf", "cluster_zipf")
#: Probes run after a workload's traced pass: served traffic for the
#: serve.* and cluster.* per-layer metrics (and request-id spans), and
#: the memo's restore path.  The served workloads are too unsteady on a
#: 2-CPU shared host to gate, so only their layers are reported; see
#: METRICS.md.
PROBES_FOR = {"sweep_store": ("serve_zipf", "cluster_zipf", "memo_restore")}
#: The probes' ``--seconds``: their miss phase is fixed, this sizes the
#: repeats.
PROBE_SECONDS = 5
TRACE_NOTE = (
    "spans wrap calls into the program from outside; work inside pool or "
    "cluster worker processes is invisible and is reported from the "
    "public counters instead"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="repeat index, recorded in the protocol stamp")
    parser.add_argument("--tiny", action="store_true",
                        help="reduced inputs for smoke tests (no percentile "
                             "sample-count floor; not a measurement)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _require_program() -> None:
    # Durability barriers time the host's disk, not the program; the
    # protocol stamp records the setting.  REPRO_NO_FSYNC=0 restores them.
    os.environ.setdefault("REPRO_NO_FSYNC", "1")
    missing = [p for p in ("src/repro/__init__.py", "tests/golden/golden.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: program files missing under {ROOT}: {missing}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    _require_program()

    from perfbench import metrics as M
    from perfbench.spans import SpanRecorder, instrument, write_trace
    from perfbench.stats import check_metric_names, protocol
    from perfbench.workloads import (
        PROBES, WORKLOADS, Context, metrics_on_ratio,
    )

    check_metric_names(M.UNITS)
    min_tail = 1 if args.tiny else M.MIN_TAIL
    run = WORKLOADS[args.workload]
    ctx = Context(ROOT, seed=args.seed, seconds=args.seconds, tiny=args.tiny)
    stamp = protocol(ROOT, workload=args.workload, seed=args.seed,
                     repeat=args.repeat, seconds=args.seconds,
                     traced=bool(args.trace))
    reasons: dict = {}
    try:
        if args.trace:
            # One round untraced, for the tracing overhead.
            ctx.max_units = 1
        outcome = run(ctx).settle()
        outcomes = [outcome]
        if args.trace:
            plain = outcome
            ctx.max_units = None
            recorder = SpanRecorder()
            ctx.recorder = recorder
            with instrument(recorder):
                outcome = run(ctx)
            outcomes.append(outcome.settle())
            ctx.seconds = PROBE_SECONDS
            probes = {name: PROBES[name](ctx).settle()
                      for name in PROBES_FOR.get(args.workload, ())}
            outcomes += probes.values()
            values, reasons = M.per_layer(args.workload, outcome, recorder,
                                          probes, min_tail=min_tail)
            values[f"obs.trace_overhead.{args.workload}"] = (
                _pooled_rate(plain) / _pooled_rate(outcome)
            )
            if args.workload == "replay_matrix":
                values["obs.metrics_on_ratio"] = metrics_on_ratio(ctx)
            if args.workload == "sweep_store":
                values.update(M.sweep_rates(plain))
        else:
            values = M.end_to_end(outcome, min_tail=min_tail)
    finally:
        ctx.cleanup()

    attempted = sum(len(o.jobs) + o.attempted for o in outcomes)
    failed = sum(sum(1 for job in o.jobs if not job.ok) + o.failed
                 for o in outcomes)
    mismatches = [line for o in outcomes for line in o.mismatches]
    pinned = sum(o.notes.get("pinned_checks", 0) for o in outcomes)
    correct = failed == 0 and not mismatches
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    prefix = out_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        f"-repeat{args.repeat}")
    detail = {
        "protocol": stamp,
        "metrics": values,
        "rounds": [{"jobs": len(r.jobs), "window_s": r.window_s}
                   for r in outcome.rounds],
        "setup": {"import_ref_s": outcome.imports,
                  "make_host_s": [t1 - t0 for t0, t1 in outcome.setup]},
        "mismatches": mismatches,
        "notes": outcome.notes,
        "unavailable": reasons,
    }
    if args.trace:
        detail["note"] = TRACE_NOTE
    prefix.with_suffix(".json").write_text(json.dumps(detail, indent=2))
    if args.trace:
        write_trace(prefix, recorder, {"protocol": stamp})

    print("protocol " + json.dumps(stamp, sort_keys=True))
    for name, value in values.items():
        why = reasons.get(name)
        suffix = f"   (not measured here: {why})" if why else ""
        print(f"{name} = {value:.6g} {M.UNITS[name]}{suffix}")
    if args.trace:
        print(f"note: {TRACE_NOTE}")
    for line in mismatches[:20]:
        print(f"MISMATCH {line}")
    print(f"attempted={attempted} failed={failed} pinned_checks={pinned} "
          f"correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": M.UNITS[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


def _pooled_rate(outcome) -> float:
    window = sum(r.window_s for r in outcome.rounds)
    return sum(1 for job in outcome.jobs if job.ok) / window


if __name__ == "__main__":
    sys.exit(main())
