"""Pre-copy live migration: iterative copy, convergence, auto-converge.

Source-side algorithm (QEMU's ram_save path):

1. enable dirty logging, send every page (materialized pages with real
   content, bulk pages by count, never-touched pages as zero markers);
2. repeatedly sync the dirty log and re-send what changed while the
   guest keeps running;
3. when the remaining dirty set can be sent within ``max_downtime`` at
   the measured throughput, stop the guest, send the final set plus
   device state, and hand the guest over;
4. when the dirty rate refuses to converge, ratchet the auto-converge
   CPU throttle (initial 20%, +10% per stall, max 99%) — this is what
   lets the CPU-intensive case of Fig 4 finish at all, and what makes
   it take minutes instead of seconds.

The destination applies pages with *real* writes into its guest memory,
so a nested destination pays genuine nested-EPT costs per page — the
emergent source of the L0-L1 slowdown in Fig 4.
"""

from repro.errors import MigrationError
from repro.hypervisor.exits import ExitReason
from repro.migration.dirty_tracking import DirtyTracker
from repro.migration.stats import MigrationStats
from repro.migration.transport import (
    ACK_BYTES,
    Ack,
    Complete,
    DeviceState,
    PostCopyDone,
    PostCopyHandoff,
    RamChunk,
    dedup_entries,
)
from repro.net.packets import Packet

#: QEMU's historical default migration bandwidth cap (migrate_set_speed).
DEFAULT_MAX_BANDWIDTH = 32 * 1024 * 1024
#: QEMU's default allowed downtime.
DEFAULT_MAX_DOWNTIME = 0.30
#: Pages per RAM chunk (one flow-controlled message).
CHUNK_PAGES = 1024
#: Auto-converge schedule (QEMU: x-cpu-throttle-initial/-increment).
THROTTLE_INITIAL = 0.20
THROTTLE_INCREMENT = 0.10
THROTTLE_MAX = 0.99
#: Source-side scan cost per page per iteration (dirty bitmap + zero scan).
SCAN_COST_PER_PAGE = 1.2e-7


class MigrationSource:
    """What every migration source shares: the connection, the RAM
    chunk stream (:meth:`_chunks`) and the checked acknowledgement.

    :class:`PreCopyMigration` and
    :class:`~repro.migration.postcopy.PostCopyMigration` differ only in
    when they hand the guest over and how they pace each chunk.
    """

    def __init__(
        self, vm, destination_port=4444, max_bandwidth=None, destination_node=None
    ):
        if vm.guest is None:
            raise MigrationError(f"{vm.name}: no guest to migrate")
        self.vm = vm
        self.engine = vm.engine
        self.destination_port = destination_port
        #: Cross-host migration: the destination's NetworkNode.  None
        #: keeps QEMU's same-host loopback behaviour (tcp:127.0.0.1).
        self.destination_node = destination_node
        self.max_bandwidth = max_bandwidth or DEFAULT_MAX_BANDWIDTH
        #: Capability ``dedup``: collapse identical page contents within
        #: a chunk to one copy plus back-references.  KSM-heavy tenants
        #: (many pages interned to the same record) migrate in a
        #: fraction of the wire bytes; the destination still performs
        #: every per-page write, so fault accounting is unchanged.
        self.dedup = bool(
            getattr(vm, "migration_capabilities", {}).get("dedup", False)
        )
        self.stats = MigrationStats(self.engine)
        self._endpoint = None
        vm.migration_stats = self.stats

    def _connect(self):
        node = self.vm.host_system.net_node
        target = self.destination_node if self.destination_node is not None else node
        try:
            self._endpoint = node.connect(target, self.destination_port)
        except Exception as error:
            self.stats.fail(error)
            raise MigrationError(
                f"cannot reach migration destination port "
                f"{self.destination_port}: {error}"
            ) from error
        return self._endpoint

    def _before_chunk(self, number):
        """Runs before chunk ``number`` of a population is read (the
        post-copy fill hangs its fault seam here)."""

    def _chunks(self, memory, gpfns, bulk_pages, zero_pages):
        """Cut a page population into flow-controlled :class:`RamChunk` s.

        Yields ``(batch, chunk)``, ``batch`` being the chunk's slice of
        ``gpfns``.  Each chunk carries up to :data:`CHUNK_PAGES` pages:
        materialized pages first, then bulk pages, with zero markers
        (64 to a page slot) filling what is left.  Dedup
        back-references are booked as the chunk is built; its wire
        bytes and pages are booked when the caller resumes the
        generator, i.e. once the destination has acked it.
        """
        stats = self.stats
        perf = self.engine.perf
        number = 0
        index = 0
        while index < len(gpfns) or bulk_pages > 0 or zero_pages > 0:
            number += 1
            self._before_chunk(number)
            batch = gpfns[index : index + CHUNK_PAGES]
            index += len(batch)
            room = CHUNK_PAGES - len(batch)
            bulk_now = min(bulk_pages, room)
            bulk_pages -= bulk_now
            room -= bulk_now
            zero_now = min(zero_pages, max(room * 64, 0))
            zero_pages -= zero_now
            entries = memory.read_many(batch)
            dedup_table = ()
            if self.dedup and entries:
                unique, table = dedup_entries(entries)
                if table:
                    entries = unique
                    dedup_table = table
                    stats.pages_deduped += len(table)
                    perf.migration_pages_deduped += len(table)
            chunk = RamChunk(
                entries,
                bulk_pages=bulk_now,
                zero_pages=zero_now,
                dedup_table=dedup_table,
            )
            yield batch, chunk
            stats.ram_bytes += chunk.wire_bytes
            stats.pages_transferred += chunk.page_count
            stats.zero_pages += zero_now
            perf.migration_chunks += 1
            perf.migration_pages += chunk.page_count

    def _expect_ack(self, endpoint):
        ack_event = endpoint.recv()

        def _check(event):
            if event.ok and not isinstance(event.value.payload, Ack):
                raise MigrationError(
                    f"protocol error: expected Ack, got {event.value.payload!r}"
                )

        ack_event.callbacks.append(_check)
        return ack_event


class PreCopyMigration(MigrationSource):
    """The source side of one pre-copy migration."""

    def __init__(
        self,
        vm,
        destination_port=4444,
        max_bandwidth=None,
        max_downtime=None,
        destination_node=None,
    ):
        super().__init__(vm, destination_port, max_bandwidth, destination_node)
        self.max_downtime = max_downtime or DEFAULT_MAX_DOWNTIME
        #: QEMU capability: delta-encode resent pages against a sender
        #: cache (``migrate_set_capability xbzrle on``).
        self.xbzrle = bool(
            getattr(vm, "migration_capabilities", {}).get("xbzrle", False)
        )
        #: XBZRLE cache-hit probability for a resent page (pages that
        #: changed beyond recognition miss and ship in full).
        self.xbzrle_hit_ratio = 0.85
        self._pages_sent_before = set()
        self._bulk_sent_once = False
        self.xbzrle_pages = 0
        self.cancelled = False
        self._switchover_started = False
        self._process = None
        self._tracker = None
        vm.active_migration = self

    def start(self):
        """Kick off the migration; returns the engine Process."""
        self._process = self.engine.process(
            self._run(), name=f"migrate:{self.vm.name}"
        )
        return self._process

    def cancel(self):
        """`migrate_cancel`: abort and leave the source guest running.

        Refused (returns False) once the stop-and-copy switchover has
        begun — past that point the guest's ownership is in flight,
        exactly as in QEMU.
        """
        if self._switchover_started or self.stats.status in (
            "completed",
            "cancelled",
            "failed",
        ):
            return False
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("migrate_cancel")
        return True

    # -- main loop ---------------------------------------------------------

    def _run(self):
        from repro.sim.engine import Interrupt

        try:
            result = yield from self._run_inner()
            return result
        except Interrupt:
            self._cleanup_after_cancel()
            return self.stats
        except MigrationError as error:
            self._abort(error)
            raise

    def _cleanup_after_cancel(self):
        """Roll back to a running guest: QEMU's cancel semantics."""
        self.cancelled = True
        vm = self.vm
        if self._tracker is not None:
            self._tracker.stop()
        if vm.guest is not None:
            vm.guest.kernel.cpu_throttle = 0.0
        vm.resume()
        vm.status = "running"
        self.stats.status = "cancelled"
        self.stats.finished_at = self.engine.now
        if self._endpoint is not None:
            self._endpoint.close()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(
                "migration.cancelled",
                "migration",
                track=f"migrate:{vm.name}",
                args={"iterations": self.stats.iterations},
            )

    def _abort(self, error):
        """Roll back a mid-stream failure to a running source guest.

        Unlike :meth:`_cleanup_after_cancel` this runs on the error
        path, so it must leave the VM retryable: tracker stopped,
        throttle cleared, endpoint closed — the orchestrator relaunches
        the destination and calls ``start()`` on a fresh instance.
        """
        vm = self.vm
        if self._tracker is not None:
            self._tracker.stop()
        if vm.guest is not None:
            vm.guest.kernel.cpu_throttle = 0.0
            vm.resume()
            vm.status = "running"
        if self.stats.status != "failed":
            self.stats.fail(error)
        if self._endpoint is not None:
            self._endpoint.close()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(
                "migration.aborted",
                "migration",
                track=f"migrate:{vm.name}",
                args={"iterations": self.stats.iterations, "error": str(error)},
            )

    def _run_inner(self):
        vm = self.vm
        memory = vm.kvm_vm.memory
        tracker = DirtyTracker(memory, self.engine)
        self._tracker = tracker
        endpoint = self._connect()

        self.stats.status = "active"
        tracker.start()
        run_started = self.engine.now
        trace_track = f"migrate:{vm.name}"
        tracer = self.engine.tracer

        faults = self.engine.faults

        # ---- iteration 1: everything -----------------------------------
        if faults is not None:
            faults.on_precopy_iteration(self, 1)
        all_real = list(memory.iter_touched())
        bulk_total = memory.bulk_touched
        zero_total = memory.untracked_pages
        iter_started = self.engine.now
        iter_bytes = yield from self._send_pages(
            endpoint, memory, all_real, bulk_total, zero_total
        )
        self.stats.iterations += 1
        if tracer.enabled:
            tracer.complete(
                "migration.iteration",
                "migration",
                iter_started,
                track=trace_track,
                args={
                    "iteration": self.stats.iterations,
                    "bytes": iter_bytes,
                    "pages": len(all_real) + bulk_total + zero_total,
                },
            )
        measured_rate = self._measured_rate(iter_bytes, iter_started)
        self._bulk_sent_once = True

        # ---- convergence loop -------------------------------------------
        throttle = 0.0
        stall_count = 0
        previous_dirty = None
        while True:
            dirty, bulk_dirty = tracker.sync()
            dirty_pages = len(dirty) + bulk_dirty
            dirty_bytes = dirty_pages * 4104
            if dirty_bytes <= self.max_downtime * measured_rate:
                break
            # QEMU auto-converge: the throttle ratchets only after TWO
            # consecutive iterations whose dirty set refused to shrink
            # (mig_throttle_guest_down fires at dirty_rate_high_cnt >= 2).
            if previous_dirty is not None and dirty_pages > 0.85 * previous_dirty:
                stall_count += 1
                if stall_count >= 2:
                    stall_count = 0
                    throttle = (
                        THROTTLE_INITIAL
                        if throttle == 0.0
                        else min(throttle + THROTTLE_INCREMENT, THROTTLE_MAX)
                    )
                    vm.guest.kernel.cpu_throttle = throttle
                    self.stats.throttle_percentage = int(throttle * 100)
            else:
                stall_count = 0
            previous_dirty = dirty_pages
            if faults is not None:
                faults.on_precopy_iteration(self, self.stats.iterations + 1)
            iter_started = self.engine.now
            iter_bytes = yield from self._send_pages(
                endpoint, memory, dirty.page_list(), bulk_dirty, 0
            )
            self.stats.iterations += 1
            if tracer.enabled:
                tracer.complete(
                    "migration.iteration",
                    "migration",
                    iter_started,
                    track=trace_track,
                    args={
                        "iteration": self.stats.iterations,
                        "bytes": iter_bytes,
                        "pages": dirty_pages,
                        "throttle": self.stats.throttle_percentage,
                    },
                )
            measured_rate = self._measured_rate(
                iter_bytes, iter_started, fallback=measured_rate
            )

        # ---- stop-and-copy ----------------------------------------------
        self._switchover_started = True
        downtime_start = self.engine.now
        vm.pause()
        dirty, bulk_dirty = tracker.sync()
        yield from self._send_pages(
            endpoint, memory, dirty.page_list(), bulk_dirty, 0
        )
        self.stats.iterations += 1
        device_state = DeviceState()
        yield endpoint.send(
            Packet(device_state.size_bytes, payload=device_state, kind="migration")
        )
        yield self._expect_ack(endpoint)

        guest = vm.guest
        guest.kernel.cpu_throttle = 0.0
        handoff = Complete(
            guest_system=guest,
            alloc_floor=memory._next_alloc,
            bulk_pages_total=memory.bulk_touched,
        )
        vm.guest = None
        yield endpoint.send(Packet(128, payload=handoff, kind="migration"))
        yield self._expect_ack(endpoint)
        self.stats.downtime = self.engine.now - downtime_start

        tracker.stop()
        vm.status = "postmigrate"
        self.stats.complete()
        endpoint.close()
        if tracer.enabled:
            tracer.complete(
                "migration.stop_and_copy",
                "migration",
                downtime_start,
                track=trace_track,
                args={"downtime": self.stats.downtime},
            )
            tracer.complete(
                "migration.precopy",
                "migration",
                run_started,
                track=trace_track,
                args={
                    "iterations": self.stats.iterations,
                    "ram_bytes": self.stats.ram_bytes,
                    "pages": self.stats.pages_transferred,
                    "zero_pages": self.stats.zero_pages,
                    "downtime": self.stats.downtime,
                },
            )
            tracer.metrics.counter("migration.completed", mode="precopy").inc()
            tracer.metrics.histogram("migration.downtime_ms").record(
                self.stats.downtime * 1e3
            )
        return self.stats

    # -- helpers -----------------------------------------------------------

    def _measured_rate(self, iter_bytes, iter_started, fallback=None):
        """Observed stream throughput of the last iteration (bytes/s).

        An empty iteration carries no signal, so the previous estimate
        (or the configured cap) is reused.
        """
        elapsed = self.engine.now - iter_started
        if iter_bytes <= 0 or elapsed <= 0:
            return fallback if fallback is not None else float(self.max_bandwidth)
        return iter_bytes / elapsed

    def _send_pages(self, endpoint, memory, gpfns, bulk_pages, zero_pages):
        """Send a page population in flow-controlled chunks.

        Returns the wire bytes sent.  Each chunk waits for: its own
        serialization at the bandwidth cap, the network delivery, and
        the destination's ACK — so destination application cost
        backpressures the stream exactly like a real TCP window.
        """
        sent_bytes = 0
        total_pages = len(gpfns) + bulk_pages + zero_pages
        scan_cost = total_pages * SCAN_COST_PER_PAGE
        if scan_cost > 0:
            yield self.engine.timeout(scan_cost)

        sent_before = self._pages_sent_before
        for batch, chunk in self._chunks(memory, gpfns, bulk_pages, zero_pages):
            if self.xbzrle:
                # Chunk-local set intersection instead of a per-gpfn
                # membership loop against the full sent-pages set.
                # With dedup active only the pages still shipping in
                # full are candidates for delta encoding.
                resent = len(
                    sent_before.intersection([gpfn for gpfn, _ in chunk.entries])
                )
                if self._bulk_sent_once:
                    resent += chunk.bulk_pages
                chunk.xbzrle_pages = int(resent * self.xbzrle_hit_ratio)
                self.xbzrle_pages += chunk.xbzrle_pages
                sent_before.update(batch)
            packet = Packet(chunk.wire_bytes, payload=chunk, kind="migration")
            # QEMU's rate limiter counts bytes written to the socket per
            # window, and the blocking write doesn't return until the
            # receiver has drained its (one-chunk) buffer — so pacing,
            # wire serialization, and destination page application
            # serialize rather than overlap.
            yield self.engine.timeout(chunk.wire_bytes / self.max_bandwidth)
            yield endpoint.send(packet)
            yield self._expect_ack(endpoint)
            sent_bytes += chunk.wire_bytes
        return sent_bytes


#: Round-trip latency of one post-copy remote page fault (userfaultfd +
#: network).
REMOTE_FAULT_RTT = 3.5e-4
#: Fraction of guest operations that touch a not-yet-resident page when
#: post-copy residency is zero (working-set locality keeps this well
#: under 1).
FAULT_TOUCH_RATE = 0.18


class MigrationDestination:
    """The receive side: an ``-incoming tcp:0:PORT`` QEMU.

    Protocol-agnostic, like real QEMU: the stream itself announces
    whether the source runs pre-copy (RAM first, switchover last) or
    post-copy (switchover first, RAM streamed behind) — a post-copy
    stream opens with device state + handoff before any RAM arrives.
    """

    def __init__(self, vm, port):
        self.vm = vm
        self.port = port
        self.engine = vm.engine
        self.node = vm.host_system.net_node
        self.listener = self.node.listen(port)
        self.completed = False
        self.mode = None  # "precopy" | "postcopy", set by the stream

    def start(self):
        return self.engine.process(
            self._run(), name=f"incoming:{self.vm.name}:{self.port}"
        )

    def _run(self):
        from repro.sim.engine import Interrupt
        from repro.sim.process import ChannelClosed

        try:
            connection = yield self.listener.accept()
            endpoint = connection.server
            memory = self.vm.kvm_vm.memory
            depth = self.vm.kvm_vm.depth
            cost_model = self.vm.host_system.cost_model
            yield from self._receive_loop(endpoint, memory, depth, cost_model)
        except (ChannelClosed, Interrupt):
            # Stream broke before completion (source cancelled or
            # crashed), or the orchestrator tore this attempt down while
            # we were still parked on accept(): a real `qemu -incoming`
            # process exits either way.
            if self.vm.guest is None:
                self.vm.quit()
            if self.node.listener(self.port) is not None:
                self.node.close_port(self.port)
            return None
        self.node.close_port(self.port)
        self.completed = True
        return self.vm

    def _receive_loop(self, endpoint, memory, depth, cost_model):
        guest = None
        postcopy_total = 1
        postcopy_received = 0
        while True:
            packet = yield endpoint.recv()
            payload = packet.payload
            if isinstance(payload, RamChunk):
                if self.mode is None:
                    self.mode = "precopy"
                cost = self._apply_chunk(memory, payload, depth, cost_model)
                if cost > 0:
                    yield self.engine.timeout(cost)
                if self.mode == "postcopy" and guest is not None:
                    postcopy_received += payload.page_count
                    self._postcopy_penalty(
                        guest, postcopy_received, postcopy_total
                    )
                endpoint.send(Packet(ACK_BYTES, payload=Ack(), kind="migration"))
            elif isinstance(payload, DeviceState):
                yield self.engine.timeout(2.0e-3)
                if self.mode is None:
                    # Device state before any RAM: a post-copy stream
                    # (which does not ack device state).
                    self.mode = "postcopy"
                else:
                    endpoint.send(
                        Packet(ACK_BYTES, payload=Ack(), kind="migration")
                    )
            elif isinstance(payload, PostCopyHandoff):
                self.mode = "postcopy"
                memory._next_alloc = max(memory._next_alloc, payload.alloc_floor)
                guest = payload.guest_system
                postcopy_total = max(payload.total_pages, 1)
                self.vm.adopt_guest(guest)
                self._postcopy_penalty(guest, postcopy_received, postcopy_total)
                endpoint.send(Packet(ACK_BYTES, payload=Ack(), kind="migration"))
            elif isinstance(payload, PostCopyDone):
                if guest is not None:
                    guest.kernel.extra_op_latency = 0.0
                endpoint.send(Packet(ACK_BYTES, payload=Ack(), kind="migration"))
                return
            elif isinstance(payload, Complete):
                self._finish(memory, payload)
                endpoint.send(Packet(ACK_BYTES, payload=Ack(), kind="migration"))
                return
            else:
                raise MigrationError(f"unexpected migration payload {payload!r}")

    @staticmethod
    def _postcopy_penalty(guest, received_pages, total_pages):
        missing = max(0.0, 1.0 - received_pages / total_pages)
        guest.kernel.extra_op_latency = (
            FAULT_TOUCH_RATE * missing * REMOTE_FAULT_RTT
        )

    def _apply_chunk(self, memory, chunk, depth, cost_model):
        """Write the chunk into guest memory; returns the apply cost.

        Real pages are genuinely written (their outcomes price the
        faults at this destination's depth); bulk pages are counted and
        priced per-page; zero pages only cost the scan.
        """
        cost = 0.0
        for gpfn, content in chunk.entries:
            outcome = memory.write(gpfn, content)
            cost += cost_model.write_outcome_cost(outcome, depth)
            if depth >= 2:
                cost += cost_model.exit_cost(ExitReason.INVEPT, depth)
        if chunk.dedup_table:
            # Back-referenced pages shipped as 24-byte refs, but the
            # destination materializes each with a real write — same
            # fault costs as a full page, only the wire got cheaper.
            entries = chunk.entries
            for gpfn, idx in chunk.dedup_table:
                outcome = memory.write(gpfn, entries[idx][1])
                cost += cost_model.write_outcome_cost(outcome, depth)
                if depth >= 2:
                    cost += cost_model.exit_cost(ExitReason.INVEPT, depth)
        if chunk.bulk_pages:
            memory.touch_bulk(chunk.bulk_pages)
            per_page = (
                cost_model.minor_fault_cost
                + cost_model.page_write_cost
                + cost_model.exit_cost(ExitReason.EPT_VIOLATION, depth)
            )
            if depth >= 2:
                per_page += cost_model.exit_cost(ExitReason.INVEPT, depth)
            cost += chunk.bulk_pages * per_page
        cost += chunk.zero_pages * SCAN_COST_PER_PAGE
        return cost

    def _finish(self, memory, handoff):
        memory._next_alloc = max(memory._next_alloc, handoff.alloc_floor)
        self.vm.adopt_guest(handoff.guest_system)
