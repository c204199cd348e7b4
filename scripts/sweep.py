"""Calibration sweep: all apps x all policies, speedups vs on-touch.

Runs through the cached harness runner, so repeated sweeps reuse the
persistent result store and independent runs spread across worker
processes (``--jobs N``; ``--no-cache`` disables the disk cache).  The
phase memo (per-run resume snapshots, see ``repro.sim.sweep``) is on by
default — ``--no-memo`` disables it, ``--memo-dir DIR`` persists the
snapshots so a later sweep that re-simulates a run resumes it across
processes.
"""
import argparse
import time

from repro import baseline_config
from repro.harness import cache_stats, configure, memo_stats, speedup_table
from repro.workloads import APPLICATION_ORDER

POL = ["on_touch", "access_counter", "duplication", "ideal", "grit", "oasis",
       "oasis_inmem"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("apps", nargs="*", help="subset of applications")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--no-memo", action="store_true",
                        help="disable phase-prefix snapshot memoization")
    parser.add_argument("--memo-dir", default=None, metavar="DIR",
                        help="persist phase snapshots under DIR")
    args = parser.parse_args(argv)
    configure(jobs=args.jobs, disk_cache=not args.no_cache,
              memo=not args.no_memo, memo_dir=args.memo_dir)
    apps = args.apps or list(APPLICATION_ORDER)
    t0 = time.time()
    rows, _geo = speedup_table(baseline_config(), apps, POL)
    print(f"{'app':9s} " + " ".join(f"{p[:9]:>9s}" for p in POL))
    for row in rows:
        print(f"{row[0]:9s} " + " ".join(f"{v:9.2f}" for v in row[1:]),
              flush=True)
    stats = cache_stats()
    print(f"[{time.time() - t0:.0f}s  mem {stats['hits']}h/"
          f"{stats['misses']}m  disk {stats['disk_hits']}h/"
          f"{stats['disk_misses']}m]")
    memo = memo_stats()
    if memo["enabled"]:
        print(f"[memo {memo['hits']}h/{memo['misses']}m  "
              f"{memo['resumed_phases']} phases resumed  "
              f"{memo['snapshot_bytes'] / 1e6:.1f} MB]")


if __name__ == "__main__":
    main()
