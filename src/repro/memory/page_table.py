"""Page-table state for the whole multi-GPU system.

:class:`PageTables` holds, for every virtual page, the union of what the
paper's three translation structures know:

* the **centralized host page table** (UVM driver): which device currently
  holds the authoritative copy of the page — queried by physical address
  range to classify a fault as private vs shared (Section V-D);
* the **per-GPU local page tables**: which GPUs have a valid PTE for the
  page, whether that PTE grants write permission, and whether it points at
  local or remote memory;
* the OASIS **PTE policy bits** (Fig. 12).

State is stored column-wise in plain Python lists (one entry per global
page index) because the simulator touches single pages on its hot path;
bulk views for analysis are exposed via :meth:`policy_histogram` and
friends.

The same columns are also available as numpy arrays (:meth:`bulk_views`)
for the replay fast path's two lanes (local steady-state accesses and
on-touch migrations, :mod:`repro.sim.fastpath`) and for the sweep memo's
placement digest.  The arrays are built lazily on first request and then kept in
sync incrementally by every mutator, so an eligibility scan is a handful
of numpy mask operations instead of a dict/list probe per trace record.
``version`` increments on every mutation; the replay loop uses it to
know when a previously computed eligibility mask went stale.

Invariants maintained by the mutators (checked by :meth:`check_invariants`):

* if ``owner`` is a GPU, that GPU is in the copy set;
* a GPU with a *local* mapping holds a copy;
* write permission is exclusive: at most one device may be writable, and a
  writable page has no other copies (no stale duplicates);
* ``writable`` implies ``mapped``.
"""

from __future__ import annotations

import numpy as np

from repro.config import HOST
from repro.memory.page import POLICY_ON_TOUCH


class PageTables:
    """Unified page-table state, indexed by global virtual page number."""

    def __init__(
        self,
        n_pages: int,
        n_gpus: int,
        initial_placement: str = "host",
        first_page: int = 0,
        coherent: bool = True,
    ) -> None:
        """Create page-table state.

        Args:
            n_pages: number of tracked pages.
            n_gpus: number of GPUs.
            initial_placement: ``"host"`` or ``"distributed"``.
            first_page: global index of the first tracked page.
            coherent: when False, write exclusivity is not enforced — used
                only by the hypothetical Ideal policy, which keeps multiple
                writable copies with no coherence.
        """
        if n_pages < 0:
            raise ValueError("n_pages must be non-negative")
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        if initial_placement not in ("host", "distributed"):
            raise ValueError(f"bad initial placement {initial_placement!r}")
        self._n_pages = n_pages
        self._n_gpus = n_gpus
        self._first_page = first_page
        self._coherent = coherent
        if initial_placement == "host":
            self._owner = [HOST] * n_pages
            self._copy_mask = [0] * n_pages
        else:
            # Round-robin pages across GPUs (Fig. 21 sensitivity study).
            self._owner = [(first_page + i) % n_gpus for i in range(n_pages)]
            self._copy_mask = [1 << o for o in self._owner]
        self._mapped_mask = [0] * n_pages
        self._writable_mask = [0] * n_pages
        self._policy = [POLICY_ON_TOUCH] * n_pages
        #: Bumped on every mutation; consumers cache derived state per version.
        self.version = 0
        self._views: dict[str, np.ndarray] | None = None

    # -- geometry ---------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def n_gpus(self) -> int:
        return self._n_gpus

    def _idx(self, page: int) -> int:
        idx = page - self._first_page
        if not 0 <= idx < self._n_pages:
            raise IndexError(f"page {page} outside tracked range")
        return idx

    # -- bulk numpy views ---------------------------------------------------

    def bulk_views(self) -> dict[str, np.ndarray]:
        """Numpy mirrors of the per-page columns for vectorized scans.

        Returns arrays indexed by ``page - first_page``: ``owner`` (device
        ids), ``copies`` / ``mapped`` / ``writable`` (per-GPU bitmasks) and
        ``policy`` (PTE policy bits), all int64.  Built lazily on first
        call, then updated in place by every mutator — callers must treat
        them as read-only and re-check :attr:`version` to detect staleness
        of anything they derived from them.
        """
        if self._views is None:
            self._views = {
                "owner": np.array(self._owner, dtype=np.int64),
                "copies": np.array(self._copy_mask, dtype=np.int64),
                "mapped": np.array(self._mapped_mask, dtype=np.int64),
                "writable": np.array(self._writable_mask, dtype=np.int64),
                "policy": np.array(self._policy, dtype=np.int64),
            }
        return self._views

    def _sync_page(self, idx: int) -> None:
        """Refresh the numpy mirrors for one page after a mutation."""
        self.version += 1
        views = self._views
        if views is not None:
            views["owner"][idx] = self._owner[idx]
            views["copies"][idx] = self._copy_mask[idx]
            views["mapped"][idx] = self._mapped_mask[idx]
            views["writable"][idx] = self._writable_mask[idx]
            views["policy"][idx] = self._policy[idx]

    def bulk_install_exclusive(
        self, idxs: np.ndarray, gpus: np.ndarray
    ) -> None:
        """Fast-path batch of on-touch migrations to ``gpus``.

        Leaves each page owned, held, mapped and writable by its GPU
        alone.  Only valid for pages in a simple exclusive state (the
        copy set is at most the owner, mapped by nobody or writable by
        the holder alone) — the caller proves that before batching, which
        is what makes the result identical to per-page mutator calls.
        """
        owner = self._owner
        copies = self._copy_mask
        mapped = self._mapped_mask
        writable = self._writable_mask
        for idx, gpu in zip(idxs.tolist(), gpus.tolist()):
            bit = 1 << gpu
            owner[idx] = gpu
            copies[idx] = bit
            mapped[idx] = bit
            writable[idx] = bit
        self.version += 1
        views = self._views
        if views is not None and len(idxs):
            bits = np.left_shift(np.int64(1), gpus)
            views["owner"][idxs] = gpus
            views["copies"][idxs] = bits
            views["mapped"][idxs] = bits
            views["writable"][idxs] = bits

    # -- host page table (centralized) -------------------------------------

    def location(self, page: int) -> int:
        """Device holding the authoritative copy (the host PT lookup)."""
        return self._owner[self._idx(page)]

    def is_host_resident(self, page: int) -> bool:
        """True if the authoritative copy lives in host CPU memory."""
        return self._owner[self._idx(page)] == HOST

    def copy_holders(self, page: int) -> list[int]:
        """GPUs currently holding a copy of the page's data."""
        mask = self._copy_mask[self._idx(page)]
        return [g for g in range(self._n_gpus) if mask >> g & 1]

    def has_copy(self, gpu: int, page: int) -> bool:
        """True if ``gpu`` holds the page's data in its local memory."""
        return bool(self._copy_mask[self._idx(page)] >> gpu & 1)

    def is_duplicated(self, page: int) -> bool:
        """True if more than one device holds the page's data."""
        idx = self._idx(page)
        mask = self._copy_mask[idx]
        n_copies = mask.bit_count()
        if self._owner[idx] == HOST:
            n_copies += 1
        return n_copies > 1

    # -- per-GPU local page tables -----------------------------------------

    def is_mapped(self, gpu: int, page: int) -> bool:
        """True if ``gpu``'s local page table holds a valid PTE."""
        return bool(self._mapped_mask[self._idx(page)] >> gpu & 1)

    def is_writable(self, gpu: int, page: int) -> bool:
        """True if ``gpu``'s PTE grants write permission."""
        return bool(self._writable_mask[self._idx(page)] >> gpu & 1)

    def mapped_gpus(self, page: int) -> list[int]:
        """GPUs with a valid PTE for the page."""
        mask = self._mapped_mask[self._idx(page)]
        return [g for g in range(self._n_gpus) if mask >> g & 1]

    def map_local(self, gpu: int, page: int, writable: bool) -> None:
        """Install a PTE pointing at the GPU's own copy."""
        idx = self._idx(page)
        if not self._copy_mask[idx] >> gpu & 1:
            raise ValueError(
                f"GPU {gpu} has no local copy of page {page}; cannot map local"
            )
        bit = 1 << gpu
        self._mapped_mask[idx] |= bit
        if writable:
            self._writable_mask[idx] |= bit
        else:
            self._writable_mask[idx] &= ~bit
        self._sync_page(idx)

    def map_remote(self, gpu: int, page: int) -> None:
        """Install a PTE pointing at the remote authoritative copy."""
        idx = self._idx(page)
        bit = 1 << gpu
        if self._copy_mask[idx] >> gpu & 1:
            raise ValueError(
                f"GPU {gpu} holds page {page} locally; use map_local"
            )
        self._mapped_mask[idx] |= bit
        self._writable_mask[idx] &= ~bit
        self._sync_page(idx)

    def unmap(self, gpu: int, page: int) -> bool:
        """Invalidate ``gpu``'s PTE; returns True if it was valid."""
        idx = self._idx(page)
        bit = 1 << gpu
        was = bool(self._mapped_mask[idx] & bit)
        self._mapped_mask[idx] &= ~bit
        self._writable_mask[idx] &= ~bit
        self._sync_page(idx)
        return was

    def unmap_all_except(self, page: int, keep: int | None = None) -> list[int]:
        """Invalidate every GPU PTE except ``keep``'s; returns shot-down GPUs."""
        idx = self._idx(page)
        mask = self._mapped_mask[idx]
        victims = [
            g for g in range(self._n_gpus) if (mask >> g & 1) and g != keep
        ]
        keep_bit = 0 if keep is None else (mask & (1 << keep))
        self._mapped_mask[idx] = keep_bit
        self._writable_mask[idx] &= keep_bit
        self._sync_page(idx)
        return victims

    # -- data movement ------------------------------------------------------

    def set_exclusive(self, page: int, device: int) -> None:
        """Make ``device`` the sole holder of the page's data.

        Mappings are not touched; callers invalidate stale PTEs first via
        :meth:`unmap_all_except` (that is where shootdown costs come from).
        """
        idx = self._idx(page)
        self._owner[idx] = device
        self._copy_mask[idx] = 0 if device == HOST else (1 << device)
        self._sync_page(idx)

    def add_copy(self, gpu: int, page: int) -> None:
        """Record a duplicate of the page on ``gpu``.

        In coherent mode (the default) duplicating strips write permission
        everywhere — a duplicated page can have no writer.
        """
        idx = self._idx(page)
        self._copy_mask[idx] |= 1 << gpu
        if self._coherent:
            self._writable_mask[idx] = 0
        self._sync_page(idx)

    def drop_copy(self, gpu: int, page: int) -> None:
        """Discard ``gpu``'s duplicate (PTE must be unmapped separately)."""
        idx = self._idx(page)
        if self._owner[idx] == gpu:
            raise ValueError(f"cannot drop the owner copy of page {page}")
        self._copy_mask[idx] &= ~(1 << gpu)
        self._sync_page(idx)

    # -- PTE policy bits -----------------------------------------------------

    def policy(self, page: int) -> int:
        """PTE policy bits of ``page``."""
        return self._policy[self._idx(page)]

    def set_policy(self, page: int, bits: int) -> None:
        """Set the PTE policy bits of one page."""
        idx = self._idx(page)
        self._policy[idx] = bits
        self._sync_page(idx)

    def set_policy_range(self, first_page: int, n_pages: int, bits: int) -> None:
        """Set the policy bits of a contiguous page range (object-wide)."""
        start = self._idx(first_page)
        stop = start + n_pages
        if stop > self._n_pages:
            raise IndexError("policy range extends past tracked pages")
        self._policy[start:stop] = [bits] * n_pages
        self.version += 1
        if self._views is not None:
            self._views["policy"][start:stop] = bits

    def policy_histogram(self) -> dict[int, int]:
        """Count of pages per policy-bit value."""
        hist: dict[int, int] = {}
        for bits in self._policy:
            hist[bits] = hist.get(bits, 0) + 1
        return hist

    # -- validation -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        for idx in range(self._n_pages):
            owner = self._owner[idx]
            copies = self._copy_mask[idx]
            mapped = self._mapped_mask[idx]
            writable = self._writable_mask[idx]
            page = self._first_page + idx
            if owner != HOST:
                assert copies >> owner & 1, (
                    f"page {page}: GPU owner {owner} missing from copy set"
                )
            assert writable & ~mapped == 0, (
                f"page {page}: writable PTE without valid mapping"
            )
            if self._coherent:
                assert writable.bit_count() <= 1, (
                    f"page {page}: multiple writers"
                )
                if writable:
                    n_holders = copies.bit_count() + (1 if owner == HOST else 0)
                    assert n_holders <= 1, (
                        f"page {page}: writable while duplicated"
                    )
            # A local mapping requires a local copy.
            local_mapped = mapped & copies
            # (Remote mappings are mapped bits not in copies.)
            del local_mapped
