"""Kernel samepage merging — the host-side memory deduplication daemon.

Faithful to Linux KSM in the properties the paper's detector depends on:

* only madvised (``mergeable``) pages are scanned;
* a page must be seen with *unchanged* content on two consecutive scan
  passes before it is merged (the checksum volatility filter) — this is
  what makes the detector "wait for a while" after loading File-A;
* merged pages are read-only shared frames; any write breaks
  copy-on-write, which is 2-3 orders of magnitude slower than a plain
  write (:attr:`repro.hypervisor.exits.CostModel.cow_break_cost`) — the
  timing side channel of Figs 5 and 6;
* the daemon scans ``pages_to_scan`` pages every ``sleep_millisecs``,
  exactly the two sysfs knobs Linux exposes.

The stable/unstable structures are content-keyed dictionaries rather
than the kernel's rb-trees — same semantics, simpler mechanics.
"""

from copy import deepcopy as _deepcopy

from repro.errors import HypervisorError
from repro.hardware.page_store import content_digest


class KsmStats:
    """Counters mirroring /sys/kernel/mm/ksm."""

    def __init__(self):
        self.full_scans = 0
        self.pages_merged_total = 0
        self.cow_breaks = 0
        #: Stable-frame promotions / drops over the daemon's lifetime.
        #: Conservation invariant (the fault-injection property tests
        #: hold it across stalls):
        #: ``pages_shared == pages_shared_total - pages_unshared``.
        self.pages_shared_total = 0
        self.pages_unshared = 0

    def __repr__(self):
        return (
            f"<KsmStats scans={self.full_scans} "
            f"merged={self.pages_merged_total}>"
        )


class KsmDaemon:
    """The ksmd kernel thread.

    Operates on a :class:`~repro.hardware.memory.PhysicalMemory`; only
    the bottom of a nesting chain runs KSM in this reproduction (the
    paper's detection runs at L0).
    """

    def __init__(self, machine, pages_to_scan=1250, sleep_millisecs=20):
        if pages_to_scan < 1:
            raise HypervisorError("pages_to_scan must be >= 1")
        if sleep_millisecs <= 0:
            raise HypervisorError("sleep_millisecs must be positive")
        self.machine = machine
        self.engine = machine.engine
        self.memory = machine.memory
        self.memory.attach_ksm(self)
        self.pages_to_scan = pages_to_scan
        self.sleep_seconds = sleep_millisecs / 1000.0
        self.stats = KsmStats()
        self._stable = {}       # digest -> Frame (read-only shared)
        self._unstable = {}     # digest -> pfn, rebuilt every full pass
        self._seen = {}         # pfn -> digest from the previous pass
        self._cursor = []       # remaining (pfn) list for the current pass
        self._pass_merges = 0
        self._pass_new_seen = 0
        self._pass_start_marks = (None, None)
        self._pass_started = 0.0
        self._trace_track = f"ksm:{machine.name}"
        self._idle = False
        self._idle_marks = (None, None)
        # While idle the loop parks on one pending Event instead of a
        # timer chain; _parked_at is the time the chain counts from.
        self._parked = None
        self._parked_at = 0.0
        self._process = None
        self.running = False

    def __deepcopy__(self, memo):
        # The scan bookkeeping dominates a daemon copy and is almost
        # all atomic (pfn ints, digest bytes): flat-copy it and route
        # only frames and the simulation plumbing through the memo.
        # Exists for engine snapshot forks; equivalent to the generic
        # deepcopy either way.
        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        clone.machine = _deepcopy(self.machine, memo)
        clone.engine = _deepcopy(self.engine, memo)
        clone.memory = _deepcopy(self.memory, memo)
        clone.pages_to_scan = self.pages_to_scan
        clone.sleep_seconds = self.sleep_seconds
        clone.stats = _deepcopy(self.stats, memo)
        memo_get = memo.get
        clone._stable = {
            digest: (memo_get(id(frame)) or _deepcopy(frame, memo))
            for digest, frame in self._stable.items()
        }
        clone._unstable = dict(self._unstable)
        clone._seen = dict(self._seen)
        clone._cursor = list(self._cursor)
        clone._pass_merges = self._pass_merges
        clone._pass_new_seen = self._pass_new_seen
        clone._pass_start_marks = self._pass_start_marks
        clone._pass_started = self._pass_started
        clone._trace_track = self._trace_track
        clone._idle = self._idle
        clone._idle_marks = self._idle_marks
        clone._parked = _deepcopy(self._parked, memo)
        clone._parked_at = self._parked_at
        clone._process = _deepcopy(self._process, memo)
        clone.running = self.running
        return clone

    # -- lifecycle --------------------------------------------------------

    def start(self):
        """Launch the ksmd loop (echo 1 > /sys/kernel/mm/ksm/run)."""
        if self.running:
            return self._process
        self.running = True
        self._process = self.engine.process(
            self._run(), name="ksmd", resumable=self
        )
        return self._process

    def __resume__(self):
        """Snapshot protocol: a fresh loop generator in resuming mode.

        The copy machinery advances it to the bare yield, where it
        stands in for the original generator suspended on its sleep
        timeout or its parked event — the copied event delivers into it
        and the loop continues exactly as the original would have.
        """
        return self._run(resuming=True)

    def stop(self):
        """Stop scanning (existing merges remain, as with run=0).

        A parked loop is released to its next wake boundary, where it
        ends exactly as a sleeping one would.
        """
        self.running = False
        if self._parked is not None:
            self.memory_moved()

    @property
    def pages_shared(self):
        """Number of distinct stable (shared) frames."""
        return len(self._stable)

    @property
    def pages_sharing(self):
        """Number of page mappings deduplicated into stable frames."""
        return sum(f.refcount - 1 for f in self._stable.values())

    # -- scanning ---------------------------------------------------------

    def _run(self, resuming=False):
        if resuming:
            # Stand-in for the original generator suspended on its sleep
            # timeout or parked event: nothing before this yield creates
            # events or touches counters, so splicing in here is
            # invisible.
            yield
            if not self.running:
                return
            self._wake()
        memory = self.memory
        while self.running:
            if (
                self._idle
                and memory._epoch_waiter is None
                and self._marks() == self._idle_marks
            ):
                # Every wake until the memory epochs move would return
                # at once: sleep through them on one event instead.
                # (A second loop on this memory — a restart before the
                # stopped loop's last wake — keeps polling.)
                event = self._parked = self.engine.event()
                self._parked_at = self.engine.now
                memory._epoch_waiter = self
                yield event
            else:
                yield self.engine.timeout(self.sleep_seconds)
            if not self.running:
                return
            self._wake()

    def memory_moved(self):
        """Unpark: the memory epochs moved (or :meth:`stop` was called).

        Schedules the parked event at the first wake boundary at or
        after now, accumulated exactly as the timer chain would have
        (``parked_at + s + s + ...``), so the wake — and every scan,
        merge and pass start after it — lands at the same virtual time
        as with polling.  A change at exactly a boundary is seen by the
        wake at that boundary.
        """
        self.memory._epoch_waiter = None
        event = self._parked
        self._parked = None
        engine = self.engine
        now = engine.now
        step = self.sleep_seconds
        when = self._parked_at + step
        while when < now:
            when += step
        event._ok = True
        event._value = None
        engine._enqueue_at(event, when)

    def _marks(self):
        memory = self.memory
        return (memory._mergeable_generation, memory._write_epoch)

    def _wake(self):
        faults = self.engine.faults
        if faults is not None and faults.ksm_stalled(self):
            # Injected stall: ksmd wedged mid-pass (the cursor and all
            # volatility-filter state survive untouched, so scanning
            # resumes exactly where it stopped).
            return
        if self._idle:
            if self._marks() == self._idle_marks:
                return
            self._idle = False
        if not self._cursor:
            self._begin_pass()
        cursor = self._cursor
        budget = self.pages_to_scan
        # Detach this wake's batch in one slice (the cursor is consumed
        # from the tail, matching the historical pop() order).
        if budget >= len(cursor):
            batch = cursor[::-1]
            del cursor[:]
        else:
            batch = cursor[: -budget - 1 : -1]
            del cursor[-budget:]
        self._scan_batch(batch)
        self.engine.perf.ksm_pages_scanned += len(batch)
        if not cursor:
            self._end_pass()

    def _begin_pass(self):
        self._cursor = self.memory.mergeable_pfns()
        self._unstable.clear()
        self._pass_merges = 0
        self._pass_new_seen = 0
        self._pass_start_marks = self._marks()
        self._pass_started = self.engine.now

    def _end_pass(self):
        self.stats.full_scans += 1
        self.engine.perf.ksm_passes += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(
                "ksm.pass",
                "ksm",
                self._pass_started,
                track=self._trace_track,
                args={
                    "merges": self._pass_merges,
                    "new_seen": self._pass_new_seen,
                    "pages_shared": len(self._stable),
                    "full_scans": self.stats.full_scans,
                },
            )
            tracer.metrics.counter(
                "ksm.merges", machine=self.machine.name
            ).inc(self._pass_merges)
            tracer.metrics.gauge(
                "ksm.pages_shared", machine=self.machine.name
            ).set(len(self._stable))
        if (
            self._pass_merges == 0
            and self._pass_new_seen == 0
            and self._marks() == self._pass_start_marks
        ):
            # Nothing changed during an entirely fruitless pass: go idle
            # until the memory epochs move again.
            self._idle = True
            self._idle_marks = self._pass_start_marks

    def _scan_batch(self, pfns):
        """Scan a batch of pages: digest sweep first, merges second.

        The sweep runs on the memory's scan-candidate index
        (``pfn -> PageRecord``) — membership in that dict already means
        "mergeable and not yet shared", so the common cases (volatile
        page, lone stabilized page) finish without touching a Frame
        object.  Pages that need merge work are grouped into per-digest
        buckets, in scan order, and handled together afterwards by
        :meth:`_merge_buckets`.

        No virtual time passes inside a batch, so deferring the merges
        behind the sweep is timing-equivalent to the historical
        interleaved loop; the bucket bookkeeping (once a digest has a
        bucket, later same-digest pages join it) reproduces the exact
        stable/unstable interleaving the one-page-at-a-time scan
        produced.
        """
        memory = self.memory
        scan_records = memory._scan_records
        if len(pfns) > 4:
            # Candidate prefilter at C speed: in the settled state most
            # cursor pfns are parked or shared and would fall out of the
            # sweep on their first dict probe anyway.  Nothing adds to
            # the index mid-batch (no virtual time passes, no writes),
            # so membership now equals membership at visit time — except
            # for pages this very batch parks, which the per-pfn None
            # check below still catches.
            pfns = list(filter(scan_records.__contains__, pfns))
        records_get = scan_records.get
        counts_get = memory._candidate_count.get
        park = memory.park_candidate
        seen = self._seen
        seen_get = seen.get
        stable_get = self._stable.get
        unstable = self._unstable
        unstable_get = unstable.get
        new_seen = 0
        merge_buckets = None
        bucket_order = None
        for pfn in pfns:
            record = records_get(pfn)
            if record is None:
                # Freed, non-mergeable, or already KSM-shared.
                continue
            digest = record._digest
            if digest is None:
                digest = record._digest = content_digest(record.content)
            if seen_get(pfn) != digest:
                # A newly seen or freshly rewritten page: it may
                # stabilize and merge next pass, so the daemon must not
                # go idle yet (volatility filter — give it a full pass
                # to stabilize).
                seen[pfn] = digest
                new_seen += 1
                continue
            if merge_buckets is not None:
                bucket = merge_buckets.get(digest)
                if bucket is not None:
                    bucket.append(pfn)
                    continue
            stable_frame = stable_get(digest)
            if stable_frame is not None and stable_frame.refcount > 0:
                # A live stable frame exists: bucket for merging.
                if merge_buckets is None:
                    merge_buckets = {}
                    bucket_order = []
                merge_buckets[digest] = [pfn]
                bucket_order.append(digest)
                continue
            other_pfn = unstable_get(digest)
            if other_pfn is None or other_pfn == pfn:
                # Lone stabilized page: park it in the unstable tree
                # and move on — the dominant case every pass.  When no
                # other candidate anywhere holds this content (count of
                # 1 on its record), the page also retires from the
                # active index entirely: rescanning it is a guaranteed
                # no-op until a duplicate appears or it is rewritten,
                # and the memory layer wakes it on either event.
                unstable[digest] = pfn
                if counts_get(record) == 1:
                    park(pfn, record)
                continue
            # A potential unstable partner: bucket for promotion.
            if merge_buckets is None:
                merge_buckets = {}
                bucket_order = []
            merge_buckets[digest] = [pfn]
            bucket_order.append(digest)
        merges = 0
        if merge_buckets is not None:
            merges = self._merge_buckets(merge_buckets, bucket_order)
        self._pass_merges += merges
        self._pass_new_seen += new_seen
        if merges:
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.instant(
                    "ksm.merge",
                    "ksm",
                    track=self._trace_track,
                    args={"count": merges},
                )

    def _merge_buckets(self, buckets, order):
        """Merge the bucketed candidates, one digest group at a time.

        Runs the full per-page merge protocol (live frame checks,
        stable-tree remap, unstable promotion) inside each bucket, in
        scan order — a page invalidated by an earlier merge in its own
        bucket (its frame became the shared one) is skipped exactly as
        the interleaved scan skipped it.  Returns the number of page
        merges performed.
        """
        memory = self.memory
        frame_of = memory.frame
        remap = memory.remap
        stable = self._stable
        stable_get = stable.get
        unstable = self._unstable
        unstable_get = unstable.get
        stats = self.stats
        merges = 0
        bucket_merges = 0
        for digest in order:
            before = merges
            for pfn in buckets[digest]:
                frame = frame_of(pfn)
                if frame is None or not frame.mergeable or frame.ksm_shared:
                    continue
                stable_frame = stable_get(digest)
                if stable_frame is not None and stable_frame.refcount > 0:
                    if stable_frame is frame:
                        continue
                    remap(pfn, stable_frame)
                    stats.pages_merged_total += 1
                    merges += 1
                    continue
                other_pfn = unstable_get(digest)
                if other_pfn is not None and other_pfn != pfn:
                    other_frame = frame_of(other_pfn)
                    if (
                        other_frame is not None
                        and not other_frame.ksm_shared
                        and other_frame.digest == digest
                    ):
                        # Promote this frame to the stable tree and fold
                        # the unstable partner into it.
                        memory.mark_ksm_shared(pfn, frame)
                        stable[digest] = frame
                        stats.pages_shared_total += 1
                        remap(other_pfn, frame)
                        stats.pages_merged_total += 1
                        merges += 1
                        continue
                unstable[digest] = pfn
            if merges > before:
                bucket_merges += 1
        if bucket_merges:
            self.engine.perf.ksm_bucket_merges += bucket_merges
        return merges

    def sysfs_text(self):
        """The /sys/kernel/mm/ksm/* view an administrator reads."""
        return (
            f"run: {1 if self.running else 0}\n"
            f"pages_to_scan: {self.pages_to_scan}\n"
            f"sleep_millisecs: {int(self.sleep_seconds * 1000)}\n"
            f"pages_shared: {self.pages_shared}\n"
            f"pages_sharing: {self.pages_sharing}\n"
            f"full_scans: {self.stats.full_scans}\n"
        )

    # -- callbacks from the memory layer ---------------------------------

    def forget_frame(self, frame):
        """Drop a stable frame (its last mapper wrote to or freed it)."""
        digest = frame.digest
        if self._stable.get(digest) is frame:
            del self._stable[digest]
            self.stats.pages_unshared += 1
            tracer = self.engine.tracer
            if tracer.enabled:
                # A stable frame broke: either a CoW write (the paper's
                # side channel firing) or the last mapper freed it.
                tracer.instant(
                    "ksm.unmerge",
                    "ksm",
                    track=self._trace_track,
                    args={"refcount": frame.refcount},
                )
        frame.ksm_shared = False

    def forget_pfn(self, pfn):
        """A mergeable pfn was freed: drop its volatility-filter state.

        Without this the ``_seen`` map grows monotonically with every
        mergeable page that ever existed — unbounded under alloc/free
        churn (guest reboots, short-lived VMs).
        """
        self._seen.pop(pfn, None)
