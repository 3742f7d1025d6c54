"""Physical memory frames and the memory-domain abstraction.

Layout of the model
-------------------

* :class:`PhysicalMemory` is the bottom of every translation chain: it
  maps physical frame numbers (pfns) to :class:`Frame` objects.  Several
  pfns may map to the *same* frame — that is exactly what KSM produces
  when it merges identical pages.
* Frames do not own their bytes: contents live in a content-addressed
  :class:`~repro.hardware.page_store.PageStore`, interned once per
  unique content with a refcount of holding frames.  Copy-on-write is a
  refcount decrement plus a re-intern, and ``pages_saved_by_sharing``
  is a free counter read instead of an O(frames) sweep.
* :class:`MemoryDomain` is the interface shared by physical memory and
  guest memories (``repro.hypervisor.ept.GuestMemory``).  A nested
  guest's memory is a domain backed by another domain, so an L2 page
  ultimately resolves to an L0 frame — which is why L0's KSM can merge
  an L2 page with an L0 page, the property the detector relies on.

Frame contents are ``bytes`` of length <= 4096, logically right-padded
with zeros.  The empty string is the canonical zero page.  Contents are
compared by value and hashed with BLAKE2b for the KSM trees.
"""

from copy import deepcopy as _deepcopy
from itertools import count

from repro.errors import MemoryError_
from repro.hardware.page_store import (
    PAGE_SIZE,
    PageRecord,
    PageStore,
    content_digest,
)
from repro.sim.perf import PerfCounters

__all__ = [
    "PAGE_SIZE",
    "Frame",
    "MemoryDomain",
    "PhysicalMemory",
    "WriteOutcome",
    "content_digest",
]


class Frame:
    """One physical page frame: a shared handle onto a page record.

    ``refcount`` counts how many pfns map to this frame; a refcount above
    one means the frame is KSM-shared and any write must break copy-on-
    write.  ``mergeable`` marks frames inside madvise(MADV_MERGEABLE)
    regions — only those are scanned by ksmd, mirroring Linux.

    The frame object itself is the identity KSM trades in (merges make
    several pfns point at *the same* Frame); the bytes live one level
    down in a :class:`~repro.hardware.page_store.PageRecord`.
    """

    __slots__ = ("fid", "record", "refcount", "mergeable", "ksm_shared")

    def __init__(self, fid, content=b"", mergeable=False, record=None):
        if record is None:
            if len(content) > PAGE_SIZE:
                raise MemoryError_(
                    f"page content of {len(content)} bytes exceeds PAGE_SIZE"
                )
            record = PageRecord(content)
        self.fid = fid
        self.record = record
        self.refcount = 1
        self.mergeable = mergeable
        self.ksm_shared = False

    @property
    def content(self):
        return self.record.content

    @property
    def digest(self):
        """Content digest, computed once per unique content."""
        return self.record.digest

    def set_content(self, content):
        """Replace content on a *standalone* frame (tests, tooling).

        Frames owned by a :class:`PhysicalMemory` are rewritten through
        ``memory.write`` instead, so the page store's refcounts stay
        consistent.
        """
        if len(content) > PAGE_SIZE:
            raise MemoryError_(
                f"page content of {len(content)} bytes exceeds PAGE_SIZE"
            )
        self.record = PageRecord(content)

    def __deepcopy__(self, memo):
        # Hand-rolled: frames dominate engine snapshot forks (one per
        # distinct page) and every slot but ``record`` is atomic.  The
        # record goes through the memo, where snapshot pre-seeding maps
        # it to itself (content shared, copy-on-write by refcount).
        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        clone.fid = self.fid
        record = self.record
        copied = memo.get(id(record))
        clone.record = copied if copied is not None else _deepcopy(record, memo)
        clone.refcount = self.refcount
        clone.mergeable = self.mergeable
        clone.ksm_shared = self.ksm_shared
        return clone

    def __repr__(self):
        kind = "shared" if self.ksm_shared else "private"
        return f"<Frame {self.fid} {kind} refs={self.refcount}>"


class WriteOutcome:
    """Mechanical facts about one page write, for the cost model.

    The memory layer reports *what happened*; translating that into
    virtual time (exit costs, CoW fault latency) is the hypervisor cost
    model's job, so all calibration constants stay in one place.
    """

    __slots__ = ("cow_broken", "first_touch_levels", "depth", "pfn_chain")

    def __init__(self):
        self.cow_broken = False
        self.first_touch_levels = 0
        self.depth = 0
        self.pfn_chain = []

    def __repr__(self):
        return (
            f"<WriteOutcome cow={self.cow_broken} "
            f"faults={self.first_touch_levels} depth={self.depth}>"
        )


class MemoryDomain:
    """Interface for anything pages can be read from / written to."""

    def read(self, pfn):
        """Return the logical content of page ``pfn`` (b'' if untouched)."""
        raise NotImplementedError

    def read_many(self, pfns):
        """Return ``[(pfn, content), ...]`` for ``pfns`` in order.

        Bulk read used by the migration stream; subclasses override it
        with a loop-hoisted fast path.
        """
        read = self.read
        return [(pfn, read(pfn)) for pfn in pfns]

    def write(self, pfn, content, outcome=None):
        """Write ``content`` to page ``pfn``; returns a WriteOutcome."""
        raise NotImplementedError

    def resolve(self, pfn):
        """Return (physical_memory, host_pfn) for ``pfn``, or (None, None)
        when the page has never been materialized."""
        raise NotImplementedError

    @property
    def nesting_depth(self):
        """0 for physical memory, parent depth + 1 for guest memories."""
        raise NotImplementedError


class PhysicalMemory(MemoryDomain):
    """The host's physical memory: pfn -> Frame with lazy materialization.

    Only touched pages own a frame; untouched pages read as the zero
    page.  This keeps a simulated 16 GiB host cheap while preserving
    honest content semantics for every page that matters.
    """

    def __init__(self, size_mb=16384, perf=None):
        self.size_mb = size_mb
        self.total_pages = size_mb * 1024 * 1024 // PAGE_SIZE
        #: Perf counters shared with the engine when constructed via
        #: Machine; standalone memories count into a private instance.
        self.perf = perf if perf is not None else PerfCounters()
        self._store = PageStore(self.perf)
        self._frames = {}
        # Incremental index of mergeable pfns (dict used as an ordered
        # set): maintained on allocate/free so the KSM daemon never
        # rebuilds an O(all-frames) candidate list per pass.  Pfns are
        # handed out monotonically and never reused, so insertion order
        # here matches the _frames iteration order the scan relied on.
        self._mergeable = {}
        # Scan-candidate index: pfn -> PageRecord for every pfn whose
        # current frame is mergeable and not yet KSM-shared.  The KSM
        # scan loop runs entirely on this dict — no Frame attribute
        # chasing, no digest recomputation for pages that sat still.
        self._scan_records = {}
        # Parked candidates: record -> {pfn: None} for stabilized
        # singletons KSM retired from the active index (no partner can
        # exist while their content is unique).  Parked pfns stay in
        # ``_mergeable`` so pass boundaries are unchanged; they rejoin
        # ``_scan_records`` the moment a duplicate of their content
        # appears or they are rewritten.
        self._parked = {}
        # record -> number of candidate pfns (active + parked) holding
        # it.  A count of 1 is what licenses parking; a transition to 2
        # is what un-parks.
        self._candidate_count = {}
        # Live count of distinct frames mapped by at least one pfn
        # (shared frames counted once): +1 on allocate and CoW break,
        # -1 whenever a frame's last mapping dies.
        self._distinct = 0
        self._next_pfn = count()
        self._next_fid = count()
        self._ksm = None
        self._mergeable_generation = 0
        self._write_epoch = 0
        # The KSM daemon parked until either epoch above moves, or None
        # (see KsmDaemon.memory_moved): each bump below checks it.
        self._epoch_waiter = None
        # Fork-shared divergence ledger: record -> None for every page
        # record this memory shares with a snapshot it was forked from
        # (None outside a fork — the write path pays one is-None check).
        self._fork_shared = None

    @property
    def nesting_depth(self):
        return 0

    @property
    def page_store(self):
        """The content-addressed store backing this memory's frames."""
        return self._store

    @property
    def allocated_pages(self):
        """Number of materialized pfn mappings."""
        return len(self._frames)

    @property
    def distinct_frames(self):
        """Number of distinct frames (shared frames counted once)."""
        return self._distinct

    @property
    def pages_saved_by_sharing(self):
        """How many frames KSM sharing has reclaimed."""
        return len(self._frames) - self._distinct

    def attach_ksm(self, ksm):
        """Register the KSM daemon that owns merge policy for this memory."""
        self._ksm = ksm

    # -- snapshot/fork bookkeeping ----------------------------------------

    def adopt_fork_records(self):
        """Take one page-store reference per distinct frame.

        Called by :mod:`repro.sim.snapshot` right after this memory was
        copied with records shared by identity: every distinct frame in
        the copy now holds the same record as its source frame, so the
        records' refcounts must rise by one per adopted frame for the
        conservation invariant (one store reference per distinct live
        frame) to keep holding on *both* sides.

        Also starts the fork-shared ledger, so later writes that
        replace a shared record count as ``perf.fork_cow_breaks``.
        Returns the number of frames whose page content is now shared
        instead of copied.
        """
        fork_shared = {}
        shared = 0
        for frame in self.iter_distinct_frames():
            frame.record.refs += 1
            shared += 1
            fork_shared[frame.record] = None
        self._fork_shared = fork_shared
        return shared

    def release_fork_records(self):
        """Give back every store reference this copy's frames hold.

        The inverse of :meth:`adopt_fork_records` *plus* whatever the
        branch interned since: one reference per distinct live frame.
        After the call the shared records' refcounts are exactly what
        they were before this copy existed.
        """
        store = self._store
        for frame in self.iter_distinct_frames():
            store.release(frame.record)
        self._fork_shared = None

    def __deepcopy__(self, memo):
        """Bulk-structured copy for engine snapshot forks.

        The generic reduce path walks every pfn entry through
        ``deepcopy``; here the int-keyed indexes are copied with plain
        dict comprehensions and only frames/records route through the
        memo (where snapshot pre-seeding makes records identity-shared).
        Semantically identical to the default deepcopy — just flat.
        """
        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        clone.size_mb = self.size_mb
        clone.total_pages = self.total_pages
        clone.perf = _deepcopy(self.perf, memo)
        clone._store = _deepcopy(self._store, memo)
        # Copying the store above put every resident record in the memo,
        # so the indexes below resolve records with a raw memo probe;
        # the fallback covers records a test remapped in from outside.
        memo_get = memo.get
        frames = {}
        for pfn, frame in self._frames.items():
            copied = memo_get(id(frame))
            if copied is None:
                copied = frame.__deepcopy__(memo)
            frames[pfn] = copied
        clone._frames = frames
        clone._mergeable = dict(self._mergeable)
        clone._scan_records = {
            pfn: memo_get(id(record)) or _deepcopy(record, memo)
            for pfn, record in self._scan_records.items()
        }
        clone._parked = {
            (memo_get(id(record)) or _deepcopy(record, memo)): dict(bucket)
            for record, bucket in self._parked.items()
        }
        clone._candidate_count = {
            (memo_get(id(record)) or _deepcopy(record, memo)): n
            for record, n in self._candidate_count.items()
        }
        clone._distinct = self._distinct
        clone._next_pfn = _deepcopy(self._next_pfn, memo)
        clone._next_fid = _deepcopy(self._next_fid, memo)
        clone._ksm = _deepcopy(self._ksm, memo)
        clone._mergeable_generation = self._mergeable_generation
        clone._write_epoch = self._write_epoch
        clone._epoch_waiter = _deepcopy(self._epoch_waiter, memo)
        if self._fork_shared is None:
            clone._fork_shared = None
        else:
            clone._fork_shared = {
                _deepcopy(record, memo): None for record in self._fork_shared
            }
        return clone

    # -- scan-candidate index maintenance --------------------------------

    def _add_candidate(self, pfn, record):
        """Enter ``pfn`` into the active scan index under ``record``.

        When this makes the record's candidate count hit two, any
        parked singleton holding the same content is woken back into
        the active index — it finally has a potential merge partner.
        """
        self._scan_records[pfn] = record
        counts = self._candidate_count
        n = counts.get(record, 0) + 1
        counts[record] = n
        if n == 2:
            parked = self._parked.pop(record, None)
            if parked:
                scan_records = self._scan_records
                for parked_pfn in parked:
                    scan_records[parked_pfn] = record

    def _remove_candidate(self, pfn, record):
        """Drop ``pfn`` from the candidate index (active or parked).

        Safe to call for pfns that were never candidates (non-mergeable
        or already-shared frames): the count only moves when the pfn was
        actually indexed.
        """
        if self._scan_records.pop(pfn, None) is None:
            # Parked buckets are dicts-as-sets (values are None), so a
            # defaulted pop cannot signal a miss — test membership.
            parked = self._parked.get(record)
            if parked is None or pfn not in parked:
                return
            del parked[pfn]
            if not parked:
                del self._parked[record]
        counts = self._candidate_count
        n = counts[record] - 1
        if n:
            counts[record] = n
        else:
            del counts[record]

    def park_candidate(self, pfn, record):
        """Retire a stabilized singleton from the active scan index.

        Called by KSM when a page passed the volatility filter but can
        never merge right now: no live stable frame holds its content
        and no other candidate does either (count == 1).  Scanning it
        again each pass is a guaranteed no-op, so it sleeps here until
        :meth:`_add_candidate` sees a duplicate or a write replaces its
        record.  Parked pfns remain in the mergeable cursor, keeping
        pass boundaries — and hence merge timing — byte-identical.
        """
        if self._candidate_count.get(record) != 1:
            return False
        if self._scan_records.pop(pfn, None) is None:
            return False
        parked = self._parked.get(record)
        if parked is None:
            self._parked[record] = {pfn: None}
        else:
            parked[pfn] = None
        return True

    def allocate(self, content=b"", mergeable=False):
        """Materialize a new page; returns its pfn."""
        pfn = next(self._next_pfn)
        if pfn >= self.total_pages:
            raise MemoryError_("physical memory exhausted")
        record = self._store.intern(content)
        frame = Frame(next(self._next_fid), mergeable=mergeable, record=record)
        self._frames[pfn] = frame
        self._distinct += 1
        if mergeable:
            self._mergeable[pfn] = None
            self._mergeable_generation += 1
            if self._epoch_waiter is not None:
                self._epoch_waiter.memory_moved()
            self._add_candidate(pfn, record)
        return pfn

    def alloc_page(self, outcome=None, mergeable=False):
        """Domain-agnostic allocation (mirrors GuestMemory.alloc_page).

        Host-process pages are not mergeable unless madvised, matching
        Linux: pass ``mergeable=True`` for MADV_MERGEABLE regions.
        """
        pfn = self.allocate(b"", mergeable=mergeable)
        if outcome is not None:
            outcome.first_touch_levels += 1
        return pfn

    def touch_bulk(self, n_pages):
        """No-op at the host level (the host itself is never migrated)."""
        return 0

    def dirty_bulk(self, n_pages):
        """No-op at the host level."""

    def free(self, pfn):
        """Release the mapping for ``pfn`` (drops frame when last ref).

        Dropping the last reference also evicts the content from the
        page store and the scan-candidate index — a later realloc with
        identical content starts a fresh volatility-filter cycle
        instead of resurrecting stale KSM state.
        """
        frame = self._frames.pop(pfn, None)
        if frame is None:
            raise MemoryError_(f"free of unmapped pfn {pfn}")
        frame.refcount -= 1
        if frame.refcount <= 0:
            self._distinct -= 1
            if self._ksm is not None and frame.ksm_shared:
                self._ksm.forget_frame(frame)
            self._store.release(frame.record)
        if frame.mergeable:
            self._mergeable.pop(pfn, None)
            self._remove_candidate(pfn, frame.record)
            if self._ksm is not None:
                self._ksm.forget_pfn(pfn)
            self._mergeable_generation += 1
            if self._epoch_waiter is not None:
                self._epoch_waiter.memory_moved()

    def frame(self, pfn):
        """Return the Frame for ``pfn`` or None when untouched."""
        return self._frames.get(pfn)

    def iter_distinct_frames(self):
        """Yield every distinct mapped frame exactly once."""
        seen = set()
        seen_add = seen.add
        for frame in self._frames.values():
            key = id(frame)
            if key not in seen:
                seen_add(key)
                yield frame

    def remap(self, pfn, frame):
        """Point ``pfn`` at ``frame`` (KSM merge / CoW break mechanics)."""
        old = self._frames.get(pfn)
        if old is None:
            raise MemoryError_(f"remap of unmapped pfn {pfn}")
        if old is frame:
            return
        old.refcount -= 1
        if old.refcount <= 0:
            self._distinct -= 1
            if self._ksm is not None and old.ksm_shared:
                self._ksm.forget_frame(old)
            self._store.release(old.record)
        frame.refcount += 1
        self._frames[pfn] = frame
        self._remove_candidate(pfn, old.record)
        if frame.mergeable and not frame.ksm_shared:
            self._add_candidate(pfn, frame.record)

    def mark_ksm_shared(self, pfn, frame):
        """KSM promoted ``frame`` (mapped at ``pfn``) to the stable tree.

        Flips the frame's flag and retires the pfn from the
        scan-candidate index in one place, so the index invariant
        (candidate == mergeable and not shared) survives promotions.
        """
        frame.ksm_shared = True
        self._remove_candidate(pfn, frame.record)

    def read(self, pfn):
        frame = self._frames.get(pfn)
        return frame.record.content if frame is not None else b""

    def read_many(self, pfns):
        frames_get = self._frames.get
        return [
            (
                pfn,
                frame.record.content
                if (frame := frames_get(pfn)) is not None
                else b"",
            )
            for pfn in pfns
        ]

    def write(self, pfn, content, outcome=None):
        if outcome is None:
            outcome = WriteOutcome()
        frame = self._frames.get(pfn)
        if frame is None:
            raise MemoryError_(f"write to unmapped pfn {pfn}")
        store = self._store
        fork_shared = self._fork_shared
        if frame.refcount > 1:
            # Copy-on-write break: this pfn gets a private copy.  The
            # shared frame lives on for its other mappers.
            new_record = store.intern(content)
            if (
                fork_shared is not None
                and new_record is not frame.record
                and frame.record in fork_shared
            ):
                self.perf.fork_cow_breaks += 1
            self._remove_candidate(pfn, frame.record)
            replacement = Frame(
                next(self._next_fid),
                mergeable=frame.mergeable,
                record=new_record,
            )
            frame.refcount -= 1
            self._frames[pfn] = replacement
            self._distinct += 1
            frame = replacement
            outcome.cow_broken = True
            if frame.mergeable:
                self._write_epoch += 1
                if self._epoch_waiter is not None:
                    self._epoch_waiter.memory_moved()
                self._add_candidate(pfn, new_record)
        else:
            was_shared = frame.ksm_shared
            if was_shared:
                # Sole remaining mapper of a stable-tree frame: still a
                # CoW break in Linux (the page sits in the stable
                # tree), after which the frame becomes a normal private
                # page.
                if self._ksm is not None:
                    self._ksm.forget_frame(frame)
                frame.ksm_shared = False
                outcome.cow_broken = True
            old_record = frame.record
            new_record = store.reintern(old_record, content)
            if (
                fork_shared is not None
                and new_record is not old_record
                and old_record in fork_shared
            ):
                self.perf.fork_cow_breaks += 1
            frame.record = new_record
            if frame.mergeable:
                self._write_epoch += 1
                if self._epoch_waiter is not None:
                    self._epoch_waiter.memory_moved()
                if was_shared:
                    # The frame just left the stable tree, so the pfn
                    # re-enters the candidate set with its fresh record.
                    self._add_candidate(pfn, new_record)
                elif new_record is not old_record:
                    self._remove_candidate(pfn, old_record)
                    self._add_candidate(pfn, new_record)
                # Same record (content unchanged): candidate state —
                # active or parked — is already right.
        outcome.pfn_chain.append(pfn)
        return outcome

    def resolve(self, pfn):
        if pfn in self._frames:
            return self, pfn
        return None, None

    def iter_mergeable(self):
        """Yield (pfn, frame) for every mergeable materialized page."""
        frames = self._frames
        for pfn in self._mergeable:
            yield pfn, frames[pfn]

    def mergeable_pfns(self):
        """Snapshot list of mergeable pfns, in allocation order.

        O(mergeable pages) via the incremental index — the KSM daemon
        builds its per-pass cursor from this.
        """
        return list(self._mergeable)

    @property
    def mergeable_generation(self):
        """Bumped whenever the set of mergeable pages changes."""
        return self._mergeable_generation

    @property
    def write_epoch(self):
        """Bumped on every write to a mergeable frame (KSM idle check)."""
        return self._write_epoch
