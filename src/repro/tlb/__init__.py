"""TLB hierarchy: per-GPU L1 and L2 TLBs with shootdown support.

Geometry follows Table I: a 32-entry 32-way (fully associative) L1 TLB and
a 512-entry 16-way shared L2 TLB, both LRU.  Page-management actions that
invalidate PTEs also shoot down the matching TLB entries; those shootdowns
are what makes migrations and collapses expensive beyond the data copy.
"""

from repro.tlb.hierarchy import TLBHierarchy
from repro.tlb.tlb import SetAssociativeTLB

__all__ = ["SetAssociativeTLB", "TLBHierarchy"]
