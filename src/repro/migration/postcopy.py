"""Post-copy live migration.

The paper uses pre-copy but notes (§II-A) that "the rootkit technique
... applies to both migration approaches"; this module exists to back
that claim with a working implementation and an ablation benchmark.

Post-copy inverts the trade-off: the guest switches over almost
immediately (tiny, workload-independent downtime), then runs at the
destination while its pages stream in — paying an expected remote-fault
latency on every operation that shrinks as residency grows.  Total
migration time becomes workload-independent (no convergence loop), at
the price of degraded guest performance during the fill.
"""

from repro.errors import MigrationError
from repro.migration.precopy import MigrationSource
from repro.migration.transport import DeviceState, PostCopyDone, PostCopyHandoff
from repro.net.packets import Packet


class PostCopyMigration(MigrationSource):
    """Source side of a post-copy migration.

    The destination is the same :class:`MigrationDestination` a
    pre-copy stream targets (a VM launched with ``incoming_port=``): the
    stream opening with device state tells it which mode it receives.
    From the monitor, ``migrate_set_capability postcopy-ram on`` selects
    this class for the next ``migrate``.
    """

    def __init__(self, vm, destination_port, max_bandwidth=None, destination_node=None):
        super().__init__(vm, destination_port, max_bandwidth, destination_node)
        #: True once the destination has acked the handoff — past this
        #: point the guest runs remotely, so a fill failure degrades the
        #: destination guest rather than rolling back to the source.
        self.switched_over = False

    def start(self):
        return self.engine.process(
            self._run(), name=f"postcopy:{self.vm.name}"
        )

    def _run(self):
        vm = self.vm
        memory = vm.kvm_vm.memory
        endpoint = self._connect()
        self.stats.status = "active"
        run_started = self.engine.now
        trace_track = f"migrate:{vm.name}"
        tracer = self.engine.tracer

        # Immediate switchover: device state + guest handoff.
        downtime_start = self.engine.now
        vm.pause()
        device_state = DeviceState()
        yield endpoint.send(
            Packet(device_state.size_bytes, payload=device_state, kind="migration")
        )
        guest = vm.guest
        vm.guest = None
        handoff = PostCopyHandoff(
            guest_system=guest,
            alloc_floor=memory._next_alloc,
            total_pages=memory.touched_pages + memory.bulk_touched,
        )
        yield endpoint.send(Packet(128, payload=handoff, kind="migration"))
        yield self._expect_ack(endpoint)
        self.switched_over = True
        self.stats.downtime = self.engine.now - downtime_start
        if tracer.enabled:
            tracer.complete(
                "migration.switchover",
                "migration",
                downtime_start,
                track=trace_track,
                args={"downtime": self.stats.downtime},
            )
        fill_started = self.engine.now

        # Background page push (the guest is already running remotely):
        # pacing overlaps delivery, since nothing waits on the stream.
        for _batch, chunk in self._chunks(
            memory,
            list(memory.iter_touched()),
            memory.bulk_touched,
            memory.untracked_pages,
        ):
            pace = self.engine.timeout(chunk.wire_bytes / self.max_bandwidth)
            delivery = endpoint.send(
                Packet(chunk.wire_bytes, payload=chunk, kind="migration")
            )
            yield self.engine.all_of([pace, delivery])
            yield self._expect_ack(endpoint)
            self.stats.iterations = 1

        yield endpoint.send(Packet(32, payload=PostCopyDone(), kind="migration"))
        yield self._expect_ack(endpoint)
        vm.status = "postmigrate"
        self.stats.complete()
        endpoint.close()
        if tracer.enabled:
            tracer.complete(
                "migration.postcopy_fill",
                "migration",
                fill_started,
                track=trace_track,
                args={
                    "ram_bytes": self.stats.ram_bytes,
                    "pages": self.stats.pages_transferred,
                },
            )
            tracer.complete(
                "migration.postcopy",
                "migration",
                run_started,
                track=trace_track,
                args={
                    "ram_bytes": self.stats.ram_bytes,
                    "pages": self.stats.pages_transferred,
                    "downtime": self.stats.downtime,
                },
            )
            tracer.metrics.counter("migration.completed", mode="postcopy").inc()
            tracer.metrics.histogram("migration.downtime_ms").record(
                self.stats.downtime * 1e3
            )
        return self.stats

    def _before_chunk(self, number):
        """Fault seam ahead of fill chunk ``number``."""
        faults = self.engine.faults
        if faults is None:
            return
        try:
            faults.on_postcopy_chunk(self, number)
        except MigrationError as error:
            # Fill transport died after switchover: the guest keeps
            # running at the destination with the residual remote-fault
            # penalty of its missing pages.  The orchestrator re-homes
            # the tenant as degraded.
            self.stats.fail(error)
            self._endpoint.close()
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.instant(
                    "migration.postcopy_aborted",
                    "migration",
                    track=f"migrate:{self.vm.name}",
                    args={"chunk": number, "error": str(error)},
                )
            raise
