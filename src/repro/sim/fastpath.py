"""Vectorized replay lanes — the simulator's fast path.

:class:`FastReplay` replays a phase's record arrays by scanning for
maximal runs of records whose effect is provable in advance and applying
them in bulk instead of one :meth:`Machine.access` call per record.  The
moment a record's effect is not provable, it falls back to the exact
per-record path, so every observable — clocks, stats, TLB hit/miss
counts, traffic, counter state — stays **bit-identical** to a pure
per-record replay (``REPRO_FORCE_SLOW_PATH=1`` disables the fast path for
A/B checks).

There are two lanes.  A policy admits them by naming them in its
:attr:`~repro.policies.base.PolicyEngine.fast_lanes`; a policy that names
none replays per record, with no replayer built at all.

* ``"steady"`` — records ``(gpu, page, is_write, weight)`` whose GPU has
  a valid *local* PTE for the page that permits the access (a read, or a
  writable mapping).  Such a record cannot fault and never reaches the
  policy, so the lane only adds compute and local access latency, TLB
  traffic and ``access.local`` counts.  On-touch and Ideal declare it:
  after their first touches almost every access is local.
* ``"migrate_on_fault"`` — records touching a page in a *simple
  exclusive* state (virgin: host owner, nothing anywhere; or held by
  one GPU, mapped writable or not mapped at all) under a policy that
  resolves every fault with one ``driver.migrate``.  Each record is then
  a local access by the holder, a first touch (host→GPU pull over
  PCIe), a cross-GPU bounce (holder PTE shootdown + NVLink pull), an
  NVLink pull from an unmapped owner or a local remap, each with a
  fixed driver service time.  Only plain on-touch declares it; a
  subclass that overrides ``on_fault`` does not inherit it.

The other policies (OASIS, GRIT, duplication, access counters, static
advice) replay per record: their runs of provable records are too short
and too rare for a bulk lane to repay its mask upkeep, and they measured
faster without one.

Eligibility masks are derived from the page tables' numpy mirrors
(:meth:`PageTables.bulk_views`) and are invalidated by the page-table
``version`` counter: any fault resolution mutates the page tables, which
bumps the version, which forces per-record replay until the mask is
rebuilt (rebuilds are throttled so a fault storm degrades gracefully to
the slow path instead of thrashing on mask recomputation).

Why the bulk math is exact and not merely close:

* per-GPU clocks are folded with ``np.cumsum`` over the interleaved
  per-record latency terms, seeded with the GPU's current clock —
  numpy's cumsum is a strict sequential left fold, so the result is the
  same IEEE-754 value the per-record ``+=`` chain produces;
* stat counters and traffic bytes are integer-valued and far below
  2**53, so bulk integer sums are exact under any grouping;
* the LRU TLBs, the driver FIFO and the per-page holders are inherently
  sequential, so the steady lane uses :meth:`TLBHierarchy.translate_run`
  and the fault lane one fused scalar loop — the same arithmetic as the
  per-record path, operation for operation — rather than a numpy
  approximation.

The fast path is disabled outright when the capacity manager is active
(oversubscription runs touch eviction state on every access) or when
``REPRO_FORCE_SLOW_PATH`` is set.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.config import HOST
from repro.memory.page import policy_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine
    from repro.workloads.base import PhaseTrace

#: Records per eligibility window.
CHUNK = 4096

#: Minimum eligible-run length worth the bulk-call overhead; shorter runs
#: replay per-record (which is always exact).
MIN_RUN = 16

#: Minimum per-record steps between mask rebuilds after a version bump;
#: amortizes the O(window) rebuild cost during fault storms.
REBUILD_MIN_STEPS = 64


def force_slow_path() -> bool:
    """True when ``REPRO_FORCE_SLOW_PATH`` requests per-record replay."""
    return os.environ.get("REPRO_FORCE_SLOW_PATH", "").strip() not in ("", "0")


class FastReplay:
    """Chunked, mask-driven bulk replayer bound to one :class:`Machine`."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        config = machine.config
        lat = config.latency
        lanes = machine.policy.fast_lanes
        self._steady = "steady" in lanes
        self._migrate = "migrate_on_fault" in lanes
        self._first_page = machine.trace.first_page
        self._n_gpus = config.n_gpus
        self._compute_ns = lat.compute_ns_per_access
        self._local_ns = lat.local_access_ns
        self._mem_par = lat.mem_parallelism
        self._page_size = config.page_size
        self._obj_arr = np.array(machine._obj_of_page, dtype=np.int64)
        self._fault_service_ns = lat.fault_service_ns
        self._fault_par = lat.fault_parallelism
        occ_ns = lat.fault_driver_occupancy_ns
        # A first touch always moves one page host->GPU over PCIe (all
        # host links are identical) and updates one PTE; the empty
        # shootdown and disabled capacity manager contribute exactly 0.0.
        # A bounce shoots down the holder's PTE, pulls the page over
        # NVLink and updates the PTE; all GPU pairs share identical link
        # parameters.
        pcie_ns = machine.topology.link(HOST, 0).transfer_time_ns(
            config.page_size
        )
        self._service_virgin = occ_ns + (pcie_ns + lat.pte_update_ns)
        if config.n_gpus >= 2:
            nvlink_ns = machine.topology.link(0, 1).transfer_time_ns(
                config.page_size
            )
        else:
            nvlink_ns = 0.0  # unreachable: no second GPU to bounce from
        self._service_bounce = occ_ns + (
            (lat.pte_invalidate_ns + nvlink_ns) + lat.pte_update_ns
        )
        self._service_pull = occ_ns + (nvlink_ns + lat.pte_update_ns)
        self._service_remap = occ_ns + lat.pte_update_ns
        # Per-phase record arrays (set by run_phase).
        self._gpu: np.ndarray | None = None
        self._page: np.ndarray | None = None
        self._idx: np.ndarray | None = None
        self._is_w: np.ndarray | None = None
        self._weight: np.ndarray | None = None
        self._bit: np.ndarray | None = None
        # Current eligibility window (set by _rebuild); a mask is None
        # when its lane is not admitted.
        self._mask_base = 0
        self._mask_version = -1
        self._mask: np.ndarray | None = None
        self._false_pos: np.ndarray | None = None
        self._fmask: np.ndarray | None = None
        self._f_false_pos: np.ndarray | None = None
        self._f_owner: np.ndarray | None = None
        self._f_map0: np.ndarray | None = None

    @classmethod
    def for_machine(cls, machine: "Machine") -> "FastReplay | None":
        """A replayer for ``machine``, or None when it must run slow.

        A policy that declares no lane replays per record.  Capacity-
        managed (oversubscribed) runs touch eviction state on every
        access, so they always take the per-record path, as does
        anything under ``REPRO_FORCE_SLOW_PATH=1``.  A fault plan active
        from phase 0 disables the fast path outright; plans whose first
        event fires later keep the fast path for the healthy prefix (the
        machine gates per phase via ``injector.fast_path_allowed``).
        """
        if not machine.policy.fast_lanes:
            return None
        if machine.capacity.enabled or force_slow_path():
            return None
        injector = getattr(machine, "injector", None)
        if injector is not None and not injector.fast_path_allowed(0):
            return None
        return cls(machine)

    # -- phase driver ------------------------------------------------------

    def run_phase(self, phase: "PhaseTrace") -> None:
        """Replay one phase, bit-identical to the per-record loop."""
        n = len(phase.gpu)
        if n == 0:
            return
        # Derived SoA arrays are pure functions of the phase records and
        # the trace's first page, so a sweep replaying the same trace
        # under several policies computes them once and shares them via a
        # cache slot on the phase itself.  All arrays are read-only below
        # (slicing/indexing only), so sharing is safe.
        cached = getattr(phase, "_soa", None)
        if cached is not None and cached[0] == self._first_page:
            _, self._gpu, self._idx, self._is_w, self._bit = cached
        else:
            self._gpu = phase.gpu.astype(np.int64)
            self._idx = phase.page - self._first_page
            self._is_w = phase.write != 0
            self._bit = np.left_shift(np.int64(1), self._gpu)
            phase._soa = (self._first_page, self._gpu, self._idx,
                          self._is_w, self._bit)
        self._page = phase.page
        self._weight = phase.weight
        start = 0
        while start < n:
            stop = min(start + CHUNK, n)
            self._run_chunk(start, stop)
            start = stop

    def _run_chunk(self, c0: int, c1: int) -> None:
        machine = self.machine
        pt = machine.page_tables
        access = machine.access
        gpu_l = self._gpu[c0:c1].tolist()
        page_l = self._page[c0:c1].tolist()
        write_l = self._is_w[c0:c1].tolist()
        weight_l = self._weight[c0:c1].tolist()
        self._mask_version = -1  # chunk always starts with a fresh mask
        steps = REBUILD_MIN_STEPS
        i = c0
        while i < c1:
            if pt.version != self._mask_version:
                if steps >= REBUILD_MIN_STEPS:
                    self._rebuild(i, c1)
                    steps = 0
                else:
                    k = i - c0
                    access(gpu_l[k], page_l[k], write_l[k], weight_l[k])
                    steps += 1
                    i += 1
                    continue
            rel = i - self._mask_base
            if self._mask is not None and self._mask[rel]:
                j = self._mask_base + _run_end(self._false_pos, rel)
                if j - i >= MIN_RUN:
                    self._run_bulk(i, j)
                    i = j
                    continue
            elif self._fmask is not None and self._fmask[rel]:
                j = self._mask_base + _run_end(self._f_false_pos, rel)
                if j - i >= MIN_RUN:
                    self._run_bulk_fault(i, j, rel)
                    # The installs bumped the page-table version; credit
                    # the processed records toward the rebuild budget so
                    # long fault runs re-mask immediately.
                    steps += j - i
                    i = j
                    continue
            k = i - c0
            access(gpu_l[k], page_l[k], write_l[k], weight_l[k])
            steps += 1
            i += 1

    # -- eligibility -------------------------------------------------------

    def _rebuild(self, i: int, c1: int) -> None:
        """Recompute the eligibility masks for records ``[i, c1)``."""
        pt = self.machine.page_tables
        views = pt.bulk_views()
        window = slice(i, c1)
        idx_w = self._idx[window]
        mapped_raw = views["mapped"][idx_w]
        copies_raw = views["copies"][idx_w]
        writable_raw = views["writable"][idx_w]
        if self._steady:
            bit_w = self._bit[window]
            local = (mapped_raw & copies_raw & bit_w) != 0
            writable = (writable_raw & bit_w) != 0
            self._mask = local & (~self._is_w[window] | writable)
            self._false_pos = _ineligible(self._mask)
        if self._migrate:
            # Simple exclusive: the copy set is exactly the owner (empty
            # for the host), and the page is either mapped nowhere or
            # mapped writable by the holder alone.  The fused loop tracks
            # each page's holder as the run migrates it around.
            owner_w = views["owner"][idx_w]
            owner_bit = np.where(
                owner_w >= 0,
                np.left_shift(np.int64(1), np.maximum(owner_w, 0)),
                np.int64(0),
            )
            fmask = (copies_raw == owner_bit) & (
                (mapped_raw == 0)
                | ((mapped_raw == copies_raw) & (writable_raw == mapped_raw))
            )
            self._fmask = fmask
            self._f_false_pos = _ineligible(fmask)
            self._f_owner = owner_w
            self._f_map0 = mapped_raw != 0
        self._mask_base = i
        self._mask_version = pt.version

    # -- bulk replay -------------------------------------------------------

    def _run_bulk(self, i: int, j: int) -> None:
        """Replay local, non-faulting records ``[i, j)`` in bulk."""
        machine = self.machine
        n = j - i
        gpu_run = self._gpu[i:j]
        page_run = self._page[i:j]
        weight_run = self._weight[i:j]
        run_gpus = np.unique(gpu_run).tolist()

        # TLB lookups: per-GPU state is sequential, so each GPU's pages go
        # through the inlined LRU loop in record order.
        costs = np.empty(n, dtype=np.float64)
        walk_parts: list[np.ndarray] = []
        for gpu in run_gpus:
            sel = np.flatnonzero(gpu_run == gpu)
            costs_g, walks_g = machine.tlbs[gpu].translate_run(
                page_run[sel].tolist()
            )
            costs[sel] = costs_g
            if walks_g:
                walk_parts.append(sel[np.array(walks_g, dtype=np.int64)])
        if walk_parts:
            walk_pos = np.concatenate(walk_parts)
            bits = machine.page_tables.bulk_views()["policy"][
                self._idx[i:j][walk_pos]
            ]
            unique_bits, bit_counts = np.unique(bits, return_counts=True)
            miss_counts = machine.l2_miss_policy_counts
            for value, count in zip(
                unique_bits.tolist(), bit_counts.tolist()
            ):
                name = policy_name(value)
                miss_counts[name] = miss_counts.get(name, 0) + int(count)

        # Clock terms, decomposed exactly as Machine.access charges a
        # local access: t0 compute, then (tlb + local) / mem_par.
        t0 = weight_run * self._compute_ns
        t1 = (costs + self._local_ns * weight_run) / self._mem_par
        clocks = machine.clocks
        for gpu in run_gpus:
            sel = np.flatnonzero(gpu_run == gpu)
            terms = np.empty(2 * len(sel) + 1, dtype=np.float64)
            terms[0] = clocks[gpu]
            terms[1::2] = t0[sel]
            terms[2::2] = t1[sel]
            clocks[gpu] = float(np.cumsum(terms)[-1])

        # Stats: integer-valued float counters, exact under bulk sums.
        machine.stats.add("access.local", int(weight_run.sum()))

    def _run_bulk_fault(self, i: int, j: int, rel: int) -> None:
        """Replay a run of predictable on-touch faults in one fused loop.

        The sequential state — TLB LRU dicts, the driver FIFO, per-GPU
        clocks, residency LRU lists and each page's current holder — is
        advanced in one fused scalar loop; everything order-insensitive
        (stats, page-table installs, counter resets, link bytes) is
        applied in bulk afterwards.  The arithmetic mirrors
        ``Machine.access`` + ``Machine._fault`` + ``UVMDriver.migrate``
        operation for operation, so the results are bit-identical to
        per-record replay.
        """
        machine = self.machine
        n = j - i
        gpu_run = self._gpu[i:j]
        idx_run = self._idx[i:j]
        gpu_l = gpu_run.tolist()
        page_l = self._page[i:j].tolist()
        weight_l = self._weight[i:j].tolist()
        pol_l = (
            machine.page_tables.bulk_views()["policy"][idx_run].tolist()
        )
        own0_l = self._f_owner[rel:rel + n].tolist()
        map0_l = self._f_map0[rel:rel + n].tolist()

        compute_ns = self._compute_ns
        local_ns = self._local_ns
        mem_par = self._mem_par
        fault_service = self._fault_service_ns
        fault_par = self._fault_par
        service_virgin = self._service_virgin
        service_bounce = self._service_bounce
        service_pull = self._service_pull
        service_remap = self._service_remap
        n_gpus = self._n_gpus
        tlb0 = machine.tlbs[0]
        l1_cost = tlb0._l1_cost
        l2_cost = tlb0._l2_cost
        walk_cost = tlb0._walk_cost
        tlb_refs = [
            (t.l1._sets, t.l1._n_sets, t.l1._ways,
             t.l2._sets, t.l2._n_sets, t.l2._ways)
            for t in machine.tlbs
        ]
        l1_hits = [0] * n_gpus
        l1_misses = [0] * n_gpus
        l2_hits = [0] * n_gpus
        l2_misses = [0] * n_gpus
        inval_l1 = [0] * n_gpus
        inval_l2 = [0] * n_gpus
        fault_counts = [0] * n_gpus
        pcie_counts = [0] * n_gpus
        nv_pairs: dict[tuple[int, int], int] = {}
        clocks = machine.clocks
        queue = machine.driver.queue
        free_at = queue.free_at
        busy = queue.busy_time
        # Residency lists are maintained even with capacity modelling
        # disabled (note_resident is unconditional in the driver).
        lrus = machine.capacity._lru
        walk_hist: dict[int, int] = {}
        local_extra = 0
        shoot_total = 0
        #: page -> current exclusive holder, as the run moves pages.
        holder: dict[int, int] = {}
        #: page -> final holder, for pages this run actually migrated.
        install: dict[int, int] = {}
        inst_ks: list[int] = []

        for k in range(n):
            g = gpu_l[k]
            page = page_l[k]
            w = weight_l[k]
            h = holder.get(page, -2)
            if h == -2:
                o = own0_l[k]
                m0 = map0_l[k]
            else:
                o = h
                m0 = True
            # Translation attempt: on a fault the walk happens before
            # the fault is detected, so both levels fill either way and
            # the post-fault retry below is a guaranteed L1 hit.
            l1_sets, l1_n, l1_w, l2_sets, l2_n, l2_w = tlb_refs[g]
            e1 = l1_sets[page % l1_n]
            if page in e1:
                del e1[page]
                e1[page] = None
                l1_hits[g] += 1
                cost = l1_cost
            else:
                l1_misses[g] += 1
                e2 = l2_sets[page % l2_n]
                if page in e2:
                    del e2[page]
                    e2[page] = None
                    l2_hits[g] += 1
                    if len(e1) >= l1_w:
                        del e1[next(iter(e1))]
                    e1[page] = None
                    cost = l2_cost
                else:
                    l2_misses[g] += 1
                    if len(e2) >= l2_w:
                        del e2[next(iter(e2))]
                    e2[page] = None
                    if len(e1) >= l1_w:
                        del e1[next(iter(e1))]
                    e1[page] = None
                    cost = walk_cost
                    bits = pol_l[k]
                    walk_hist[bits] = walk_hist.get(bits, 0) + 1
            if o == g and m0:
                # Local access by the current holder.
                clocks[g] = (
                    clocks[g]
                    + w * compute_ns
                    + (cost + local_ns * w) / mem_par
                )
                local_extra += w
                holder[page] = g
                continue
            # Fault path.
            c = clocks[g] + w * compute_ns + cost / mem_par
            if o == HOST:
                service = service_virgin
                pcie_counts[g] += 1
            elif o == g:
                # Holder faulting on its own unmapped page: remap only.
                service = service_remap
            else:
                # Cross-GPU migration of an exclusively-held page.
                lrus[o].pop(page, None)  # note_released(o, page)
                if m0:
                    v1_sets, v1_n, _w1, v2_sets, v2_n, _w2 = tlb_refs[o]
                    ev = v1_sets[page % v1_n]
                    if page in ev:
                        del ev[page]
                        inval_l1[o] += 1
                    ev = v2_sets[page % v2_n]
                    if page in ev:
                        del ev[page]
                        inval_l2[o] += 1
                    shoot_total += 1
                    service = service_bounce
                else:
                    service = service_pull
                pair = (o, g) if o < g else (g, o)
                nv_pairs[pair] = nv_pairs.get(pair, 0) + 1
            fault_counts[g] += 1
            inst_ks.append(k)
            holder[page] = g
            install[page] = g
            start = free_at if free_at > c else c
            done = start + service
            busy += service
            free_at = done
            c = c + ((done - c) + fault_service) / fault_par
            if w > 1:
                # Remaining accesses retry the translation (L1 hit) and
                # proceed as local accesses with the fresh mapping.
                c = c + (l1_cost + local_ns * (w - 1)) / mem_par
                l1_hits[g] += 1
                local_extra += w - 1
            clocks[g] = c
            lru = lrus[g]
            lru.pop(page, None)
            lru[page] = None

        n_faults = len(inst_ks)
        queue.advance_to(free_at, busy, n_faults)
        for g in range(n_gpus):
            if l1_hits[g] or l1_misses[g] or inval_l1[g] or inval_l2[g]:
                tlb = machine.tlbs[g]
                tlb.l1.hits += l1_hits[g]
                tlb.l1.misses += l1_misses[g]
                tlb.l1.lookups += l1_hits[g] + l1_misses[g]
                tlb.l2.hits += l2_hits[g]
                tlb.l2.misses += l2_misses[g]
                tlb.l2.lookups += l2_hits[g] + l2_misses[g]
                tlb.l1.invalidations += inval_l1[g]
                tlb.l2.invalidations += inval_l2[g]
        miss_counts = machine.l2_miss_policy_counts
        for bits, count in walk_hist.items():
            name = policy_name(bits)
            miss_counts[name] = miss_counts.get(name, 0) + count

        stats = machine.stats
        fault_keys = machine._fault_keys
        for g, count in enumerate(fault_counts):
            if count:
                stats.add(fault_keys[g], count)
        if n_faults:
            page_size = self._page_size
            topology = machine.topology
            inst_idx = idx_run[np.array(inst_ks, dtype=np.int64)]
            unique_objs, obj_counts = np.unique(
                self._obj_arr[inst_idx], return_counts=True
            )
            object_keys = machine._object_fault_keys
            for oid, count in zip(
                unique_objs.tolist(), obj_counts.tolist()
            ):
                if oid >= 0:
                    stats.add(object_keys[oid], count)
            stats.add("fault.page", n_faults)
            stats.add("migration.count", n_faults)
            stats.add("migration.bytes", n_faults * page_size)
            pages_arr = np.fromiter(
                install.keys(), dtype=np.int64, count=len(install)
            )
            gpus_arr = np.fromiter(
                install.values(), dtype=np.int64, count=len(install)
            )
            machine.page_tables.bulk_install_exclusive(
                pages_arr - self._first_page, gpus_arr
            )
            # Migration resets the whole 64 KB counter group, which can
            # clear neighbouring pages' counts — replay exactly.
            counters = machine.access_counters
            if counters.active_counters:
                for k in inst_ks:
                    counters.reset_group(page_l[k])
            if shoot_total:
                stats.add("shootdown.count", shoot_total)
            n_pcie = sum(pcie_counts)
            if n_pcie:
                stats.add("traffic.pcie_bytes", n_pcie * page_size)
                for g, count in enumerate(pcie_counts):
                    if count:
                        topology.record_transfer_bulk(
                            HOST, g, count * page_size, count
                        )
            if nv_pairs:
                n_nv = sum(nv_pairs.values())
                stats.add("traffic.nvlink_bytes", n_nv * page_size)
                for (a, b), count in nv_pairs.items():
                    topology.record_transfer_bulk(
                        a, b, count * page_size, count
                    )
        if local_extra:
            stats.add("access.local", local_extra)


def _ineligible(mask: np.ndarray) -> np.ndarray:
    """Offsets of ``mask``'s False entries, ending with ``len(mask)``."""
    return np.flatnonzero(np.append(~mask, True))


def _run_end(false_pos: np.ndarray, rel: int) -> int:
    """Window offset where the eligible run starting at ``rel`` ends."""
    return int(false_pos[np.searchsorted(false_pos, rel)])
