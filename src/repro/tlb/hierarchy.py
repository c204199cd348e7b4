"""Two-level TLB hierarchy for one GPU."""

from __future__ import annotations

from repro.config import LatencyModel, TLBConfig
from repro.tlb.tlb import SetAssociativeTLB


class TLBHierarchy:
    """Per-GPU L1 + L2 TLB with inclusive fills and shootdowns."""

    def __init__(
        self,
        l1_config: TLBConfig,
        l2_config: TLBConfig,
        latency: LatencyModel,
    ) -> None:
        self.l1 = SetAssociativeTLB(l1_config)
        self.l2 = SetAssociativeTLB(l2_config)
        self._latency = latency
        self._l1_cost = latency.l1_tlb_hit_ns
        self._l2_cost = latency.l1_tlb_hit_ns + latency.l2_tlb_ns
        self._walk_cost = self._l2_cost + latency.walk_ns

    def translate_fast(self, page: int) -> tuple[float, bool]:
        """Look up ``page``; on misses, walk and fill both levels.

        Returns ``(cost_ns, walked)``.  The caller only translates pages
        whose PTE is valid — a faulting access never installs an entry.
        """
        if self.l1.lookup(page):
            return self._l1_cost, False
        if self.l2.lookup(page):
            self.l1.fill(page)
            return self._l2_cost, False
        self.l2.fill(page)
        self.l1.fill(page)
        return self._walk_cost, True

    def translate_run(self, pages) -> tuple[list[float], list[int]]:
        """Translate a run of already-mapped pages in one call.

        Bit- and state-identical to calling :meth:`translate_fast` once per
        page — the LRU dicts, hit/miss counters and per-record costs come
        out exactly the same — but with the per-level lookup/fill logic
        inlined into one tight loop, which is what makes the vectorized
        replay fast path worthwhile for TLB-bound runs.

        Args:
            pages: sequence of python ints (convert numpy slices with
                ``.tolist()`` so dict keys stay plain ints).

        Returns:
            ``(costs, walk_positions)``: per-record lookup cost in ns, and
            the indices within ``pages`` that missed both levels and walked
            the page table (the caller charges those to policy stats).
        """
        l1 = self.l1
        l2 = self.l2
        l1_cost = self._l1_cost
        l2_cost = self._l2_cost
        walk_cost = self._walk_cost
        l1_sets = l1._sets
        l1_n_sets = l1._n_sets
        l1_ways = l1._ways
        l2_sets = l2._sets
        l2_n_sets = l2._n_sets
        l2_ways = l2._ways
        l1_hits = l1_misses = l2_hits = l2_misses = 0
        costs: list[float] = []
        append_cost = costs.append
        walks: list[int] = []
        for pos, page in enumerate(pages):
            e1 = l1_sets[page % l1_n_sets]
            if page in e1:
                del e1[page]
                e1[page] = None
                l1_hits += 1
                append_cost(l1_cost)
                continue
            l1_misses += 1
            e2 = l2_sets[page % l2_n_sets]
            if page in e2:
                del e2[page]
                e2[page] = None
                l2_hits += 1
                if len(e1) >= l1_ways:
                    del e1[next(iter(e1))]
                e1[page] = None
                append_cost(l2_cost)
                continue
            l2_misses += 1
            if len(e2) >= l2_ways:
                del e2[next(iter(e2))]
            e2[page] = None
            if len(e1) >= l1_ways:
                del e1[next(iter(e1))]
            e1[page] = None
            append_cost(walk_cost)
            walks.append(pos)
        l1.hits += l1_hits
        l1.misses += l1_misses
        l1.lookups += l1_hits + l1_misses
        l2.hits += l2_hits
        l2.misses += l2_misses
        l2.lookups += l2_hits + l2_misses
        return costs, walks

    def shootdown(self, page: int) -> bool:
        """Invalidate ``page`` in both levels; True if either level held it."""
        in_l1 = self.l1.invalidate(page)
        in_l2 = self.l2.invalidate(page)
        return in_l1 or in_l2

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()

    def cached_pages(self) -> set[int]:
        """Pages with a valid entry in either level (for audits)."""
        return self.l1.cached_pages() | self.l2.cached_pages()

    @property
    def l2_misses(self) -> int:
        """Number of requests that required a page-table walk."""
        return self.l2.misses
