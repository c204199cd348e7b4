"""Regenerate ``perfbench/digests.json``: the core digest of every
replay_matrix and sweep_store cell at seed 0, at the benchmark's inputs
and at the reduced ``--tiny`` ones.

Run from the repository root, only when the model is meant to change::

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro import baseline_config, make_policy, simulate
    from repro.workloads import get_workload

    from perfbench import cells as C

    config = baseline_config()
    grid = {c.label: c for tiny in (False, True)
            for c in C.replay_cells(0, tiny) + C.sweep_cells(0, tiny)}
    pins = {}
    for label, cell in sorted(grid.items()):
        trace = get_workload(cell.app, config, footprint_mb=cell.footprint_mb,
                             seed=cell.seed)
        pins[label] = C.core_digest(
            simulate(config, trace, make_policy(cell.policy)))
    C.DIGESTS_PATH.write_text(json.dumps(
        {"seed": 0, "digest": "repro.verify.differential.core_digest",
         "cells": pins}, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} cells -> {C.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
