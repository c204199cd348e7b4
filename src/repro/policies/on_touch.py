"""On-touch migration: always migrate the faulted page to the requester.

The baseline policy (Section II-B1).  Every fault resolves by moving the
page into the faulting GPU's memory; subsequent accesses from that GPU are
local, but pages shared by several GPUs "ping-pong" — each sharer's access
re-migrates the page and invalidates the previous holder's translation.
"""

from __future__ import annotations

from repro.memory import POLICY_ON_TOUCH
from repro.policies.base import PolicyEngine


class OnTouchPolicy(PolicyEngine):
    """Uniform on-touch migration."""

    name = "on_touch"
    fast_lanes = frozenset({"steady", "migrate_on_fault"})

    def _on_attach(self) -> None:
        # All PTEs carry the default "00" policy bits already; make it
        # explicit so policy histograms are meaningful for every engine.
        self.machine.set_all_policy_bits(POLICY_ON_TOUCH)

    def on_fault(self, gpu: int, page: int, is_write: bool) -> float:
        return self.driver.migrate(gpu, page)
