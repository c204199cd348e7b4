"""The benchmark's inputs, generated from the workload seed, and the
output checks against pinned digests.

The program only ever sees the cell lists and request streams built
here; the seed never reaches it except as each trace's RNG seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

#: Fixed here, not read from the program, so the metric names stay the
#: same when a policy is added.
POLICIES = (
    "on_touch", "access_counter", "duplication", "ideal", "grit",
    "static_advise", "oasis", "oasis_inmem",
)
REPLAY_APPS = (
    "bfs", "c2d", "fft", "i2c", "mm", "mt", "pr", "st",
    "lenet", "vgg16", "resnet18",
)
#: One fixed reduced footprint for every replay_matrix app: a pass over
#: all 88 cells takes about 7 s on a 2-CPU host.
REPLAY_FOOTPRINT_MB = 1.0
#: (app or 2-tenant mix, footprint MB): the multi-phase apps, the only
#: ones the phase memo applies to, plus one mix of two of them.  The mix
#: is here, not in the served pool, because serve refuses mix names.
SWEEP_DATA = (
    ("c2d", 1.0), ("st", 1.0), ("lenet", 1.0), ("vgg16", 1.0),
    ("resnet18", 1.0), ("c2d+st", 0.5),
)
#: Served data cells: (app, footprint MB).
SERVE_DATA = tuple(
    (app, mb) for app in ("bfs", "c2d", "fft", "i2c", "mm", "mt", "pr", "st")
    for mb in (0.5, 1.0)
)
SERVE_LANES = ("interactive", "batch", "bulk")
#: Zipf exponent of the repeat draws over the served pool.
ZIPF_S = 1.0
#: Repeat requests per measured second (on top of one request per cell).
REPEATS_PER_SECOND = 40
#: Cells (miss phases) and requests (repeat phases) between two
#: barriers of the closed loop; the host clock is sampled at each.
MISS_PHASE = 16
REPEAT_PHASE = 50
#: The default-footprint cell checked against ``tests/golden``.
GOLDEN_CELL = ("i2c", "on_touch")

#: Reduced inputs for the benchmark's own smoke tests.
TINY = {
    "replay_apps": ("i2c", "c2d"),
    "footprint_mb": 0.25,
    "sweep_data": (("c2d", 0.25), ("c2d+i2c", 0.25)),
    "serve_data": (("i2c", 0.25), ("c2d", 0.25)),
    "repeats": 12,
}


@dataclass(frozen=True)
class Cell:
    app: str
    policy: str
    footprint_mb: float
    seed: int

    @property
    def label(self) -> str:
        return f"{self.app}/{self.policy}@{self.footprint_mb:g}MB#{self.seed}"

    def spec(self, config) -> dict:
        return {"config": config, "app": self.app, "policy": self.policy,
                "footprint_mb": self.footprint_mb, "seed": self.seed}


@dataclass(frozen=True)
class Request:
    index: int
    cell: Cell
    lane: str

    @property
    def rid(self) -> str:
        return f"req-{self.index:05d}"


def replay_cells(seed: int, tiny: bool = False) -> list[Cell]:
    """App-major: the 8 policies of one app share its trace."""
    apps = TINY["replay_apps"] if tiny else REPLAY_APPS
    mb = TINY["footprint_mb"] if tiny else REPLAY_FOOTPRINT_MB
    return [Cell(app, policy, mb, seed) for app in apps for policy in POLICIES]


def sweep_cells(seed: int, tiny: bool = False) -> list[Cell]:
    data = TINY["sweep_data"] if tiny else SWEEP_DATA
    return [Cell(app, policy, mb, seed) for app, mb in data
            for policy in POLICIES]


@dataclass
class Phase:
    """Requests between two barriers of the closed loop.  In a paired
    phase the two clients take each pair of requests together."""

    paired: bool
    requests: list


def request_stream(seed: int, seconds: int, tiny: bool = False
                   ) -> list[Phase]:
    """Request phases: every pool cell, then seeded Zipf repeats.

    In the miss phases each cell is requested twice and the two clients
    take each pair together: one request runs the cell, the other joins
    it through single-flight.  Misses therefore run one at a time, which
    keeps the miss latencies steady from run to run; the repeat phases
    carry the concurrency.  Requesting every cell first also fixes the
    miss set on every seed.  The miss order, the repeat draws and the
    lanes are seeded; the Zipf ranks are a fixed order of the pool, so
    the popular cells do not vary with the seed.
    """
    rng = random.Random(seed)
    data = TINY["serve_data"] if tiny else SERVE_DATA
    n_repeats = TINY["repeats"] if tiny else REPEATS_PER_SECOND * seconds
    pool = [Cell(app, policy, mb, seed) for app, mb in data
            for policy in POLICIES]
    ranked = sorted(pool, key=lambda c: hashlib.sha256(
        f"{c.app}/{c.policy}@{c.footprint_mb:g}".encode()).hexdigest())
    rng.shuffle(pool)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    repeats = rng.choices(ranked, weights=weights, k=n_repeats)
    phases = [
        (True, [cell for cell in pool[i:i + MISS_PHASE] for _ in range(2)])
        for i in range(0, len(pool), MISS_PHASE)
    ] + [
        (False, repeats[i:i + REPEAT_PHASE])
        for i in range(0, n_repeats, REPEAT_PHASE)
    ]
    out, index = [], 0
    for paired, cells in phases:
        phase = Phase(paired, [])
        for cell in cells:
            lane = SERVE_LANES[rng.randrange(len(SERVE_LANES))]
            phase.requests.append(Request(index, cell, lane))
            index += 1
        out.append(phase)
    return out


# -- output checks ---------------------------------------------------------


def core_digest(result) -> str:
    from repro.verify.differential import core_digest as digest

    return digest(result)


def load_pins() -> tuple[int, dict]:
    """The pinned seed and its label -> digest map; a missing file is
    an error, never an empty set of pins."""
    if not DIGESTS_PATH.is_file():
        raise FileNotFoundError(f"pinned digests missing: {DIGESTS_PATH}")
    pins = json.loads(DIGESTS_PATH.read_text())
    return pins["seed"], pins["cells"]


class Checker:
    """Collects output mismatches; each one is a failed operation."""

    def __init__(self) -> None:
        self.pin_seed, self.pins = load_pins()
        self.mismatches: list[str] = []
        self.pinned_checks = 0

    def pinned(self, cell: Cell, digest: str) -> bool:
        """Compare with the pinned digest.  On the pinned seed every cell
        must have one, so a cell with none is a mismatch; other seeds
        have no pins and rely on the self-consistency checks."""
        if cell.seed != self.pin_seed:
            return True
        self.pinned_checks += 1
        want = self.pins.get(cell.label)
        if want != digest:
            pinned = want[:12] if want else "nothing"
            self.mismatches.append(
                f"{cell.label}: digest {digest[:12]} != pinned {pinned}"
            )
            return False
        return True

    def same(self, what: str, got: str, want: str) -> bool:
        if got != want:
            self.mismatches.append(f"{what}: {got[:12]} != {want[:12]}")
            return False
        return True


def golden_check(checker: Checker, root: Path) -> bool:
    """One default-footprint cell against ``tests/golden/golden.json``,
    proving the pinning function is the goldens' own."""
    from repro import baseline_config, make_policy, simulate
    from repro.workloads import get_workload

    app, policy = GOLDEN_CELL
    golden = json.loads((root / "tests/golden/golden.json").read_text())
    want = golden["entries"][f"{app}/{policy}"]["core"]
    config = baseline_config()
    result = simulate(config, get_workload(app, config), make_policy(policy))
    return checker.same(f"golden {app}/{policy}", core_digest(result), want)
