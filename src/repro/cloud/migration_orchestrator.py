"""Cross-host live migration with retry/backoff and rebalancing.

The single-host experiments drive migration through the QEMU monitor
(``migrate -d tcp:127.0.0.1:PORT``); the fleet layer drives it across
the datacenter fabric: launch an ``-incoming`` QEMU on the destination
host, point the source's :class:`~repro.migration.precopy.PreCopyMigration`
(or post-copy) at the destination's network node, and stream over the
switch.  The destination side is protocol-agnostic
(:class:`~repro.migration.precopy.MigrationDestination`), exactly as a
real ``qemu -incoming`` is.

Transport failures — a partitioned uplink, a dead listener — surface as
:class:`~repro.errors.MigrationError` at connect time; the orchestrator
retries with seeded exponential backoff, relaunching the incoming VM
each attempt, and gives up after ``max_retries`` with the full attempt
log preserved.  Eviction-driven rebalancing composes this with the
placer: drain a host, or shave the most-loaded host, one tenant at a
time.
"""

from repro.errors import (
    CloudError,
    HypervisorError,
    MigrationError,
    NetworkError,
)
from repro.migration.postcopy import PostCopyMigration
from repro.migration.precopy import PreCopyMigration
from repro.qemu.qemu_img import host_images, qemu_img_create
from repro.qemu.vm import launch_vm

#: Fleet migrations run over 10GbE, not the WAN-conservative 32 MiB/s
#: QEMU default the paper's single-host runs inherit.
FLEET_MAX_BANDWIDTH = 256 * 1024 * 1024


class MigrationRecord:
    """The audit trail of one cross-host move."""

    def __init__(self, tenant_name, source, dest, mode):
        self.tenant_name = tenant_name
        self.source = source
        self.dest = dest
        self.mode = mode
        self.status = "pending"  # -> completed | failed
        #: One ``(started_at, outcome)`` pair per attempt; outcome is
        #: ``"ok"`` or the stringified transport error.
        self.attempts = []
        self.stats = None

    @property
    def attempt_count(self):
        return len(self.attempts)

    def __repr__(self):
        return (
            f"<MigrationRecord {self.tenant_name} {self.source}->{self.dest} "
            f"{self.status} attempts={self.attempt_count}>"
        )


class MigrationOrchestrator:
    """Moves tenants between hosts; retries transport failures."""

    def __init__(
        self,
        datacenter,
        max_retries=3,
        backoff_base_s=2.0,
        backoff_factor=2.0,
        max_bandwidth=FLEET_MAX_BANDWIDTH,
    ):
        self.datacenter = datacenter
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.max_bandwidth = max_bandwidth
        self.rng = datacenter.rng.stream("cloud.backoff")
        self.records = []

    # -- one tenant ---------------------------------------------------------

    def migrate_tenant(self, tenant, dest_host, mode="precopy"):
        """Generator: move ``tenant`` to ``dest_host``; returns the record."""
        if mode not in ("precopy", "postcopy"):
            raise CloudError(f"unknown migration mode {mode!r}")
        if tenant.vm is None or tenant.guest is None:
            raise CloudError(f"tenant {tenant.name}: nothing to migrate")
        source_host = tenant.host
        if dest_host is source_host:
            raise CloudError(f"tenant {tenant.name}: already on {dest_host.name}")
        dc = self.datacenter
        engine = dc.engine
        yield from dc.ensure_up(dest_host)
        record = MigrationRecord(
            tenant.name, source_host.name, dest_host.name, mode
        )
        self.records.append(record)
        tracer = engine.tracer
        move_started = engine.now

        for attempt in range(self.max_retries + 1):
            record.attempts.append([engine.now, None])
            source_vm = tenant.vm
            dest_vm = None
            incoming_port = None
            migration = None
            try:
                dest_vm, incoming_port = self._launch_incoming(
                    tenant, dest_host
                )
                migration = self._build_source(
                    source_vm, dest_host, incoming_port, mode
                )
                stats = yield migration.start()
                if stats.status != "completed":
                    raise MigrationError(
                        f"migration ended in state {stats.status!r}"
                    )
                yield dest_vm.incoming_process
            except (MigrationError, NetworkError, HypervisorError) as error:
                record.attempts[-1][1] = str(error) or type(error).__name__
                if (
                    mode == "postcopy"
                    and migration is not None
                    and migration.switched_over
                ):
                    # Past the point of no return: the guest already
                    # runs at the destination.  Roll forward, degraded,
                    # instead of failing the move.
                    yield from self._degrade_to_destination(
                        tenant, source_vm, dest_vm, dest_host, record,
                        migration, error,
                    )
                    return record
                if dest_vm is not None:
                    self._cleanup_failed_attempt(
                        dest_host, dest_vm, incoming_port
                    )
                if tracer.enabled:
                    tracer.instant(
                        "fleet.migrate_retry",
                        "cloud",
                        track="fleet",
                        args={
                            "tenant": tenant.name,
                            "attempt": record.attempt_count,
                            "error": record.attempts[-1][1],
                        },
                    )
                if attempt == self.max_retries:
                    record.status = "failed"
                    raise CloudError(
                        f"migration of {tenant.name} to {dest_host.name} "
                        f"failed after {record.attempt_count} attempts: {error}"
                    ) from error
                yield engine.timeout(self._backoff_delay(attempt))
                continue
            record.attempts[-1][1] = "ok"
            record.stats = stats
            record.status = "completed"
            source_vm.quit()
            tenant.vm = dest_vm
            dc.move_tenant(tenant, dest_host)
            engine.perf.cloud_migrations += 1
            if tracer.enabled:
                tracer.complete(
                    "fleet.migrate",
                    "cloud",
                    move_started,
                    track="fleet",
                    args={
                        "tenant": tenant.name,
                        "source": record.source,
                        "dest": record.dest,
                        "mode": mode,
                        "attempts": record.attempt_count,
                        "ram_bytes": stats.ram_bytes,
                    },
                )
                tracer.metrics.counter("fleet.migrations", mode=mode).inc()
            return record
        raise AssertionError("unreachable")

    def _launch_incoming(self, tenant, dest_host):
        """Stand up the ``-incoming`` QEMU on the destination host.

        The public endpoint remaps: the clone keeps the guest-side
        ports but binds fresh host-side forwards on the destination's
        node (the source's ports may already be taken there).
        """
        ssh_port, monitor_port, incoming_port = dest_host.next_port_block()
        config = tenant.vm.config.clone_for_destination(
            tenant.name,
            monitor_port=monitor_port,
            incoming_port=incoming_port,
            keep_hostfwds=False,
        )
        if config.nics:
            config.nics[0].hostfwds = [("tcp", ssh_port, 22)]
        for drive in config.drives:
            if not host_images(dest_host.system).exists(drive.path):
                qemu_img_create(dest_host.system, drive.path, 20.0)
        vm, _ready = launch_vm(dest_host.system, config)
        return vm, incoming_port

    def _build_source(self, source_vm, dest_host, incoming_port, mode):
        source = PostCopyMigration if mode == "postcopy" else PreCopyMigration
        return source(
            source_vm,
            destination_port=incoming_port,
            max_bandwidth=self.max_bandwidth,
            destination_node=dest_host.system.net_node,
        )

    def _degrade_to_destination(
        self, tenant, source_vm, dest_vm, dest_host, record, migration, error
    ):
        """Generator: roll a post-copy fill failure forward.

        The handoff was acked, so the guest runs at the destination with
        the residual remote-fault penalty of its never-filled pages
        (``PostCopyDone`` never arrived).  The tenant is re-homed there
        and marked ``degraded`` — a real operator pages a human, but the
        customer VM keeps serving.
        """
        dc = self.datacenter
        engine = dc.engine
        record.status = "degraded"
        record.stats = migration.stats
        if dest_vm.incoming_process is not None:
            # The destination's receive loop sees the closed channel and
            # keeps the adopted guest; wait for it to settle.
            yield dest_vm.incoming_process
        source_vm.quit()
        tenant.vm = dest_vm
        tenant.state = "degraded"
        dc.move_tenant(tenant, dest_host)
        tracer = engine.tracer
        if tracer.enabled:
            tracer.instant(
                "fleet.migrate_degraded",
                "cloud",
                track="fleet",
                args={
                    "tenant": tenant.name,
                    "dest": dest_host.name,
                    "error": str(error),
                },
            )
            tracer.metrics.counter("fleet.migrations", mode="degraded").inc()

    @staticmethod
    def _cleanup_failed_attempt(dest_host, dest_vm, incoming_port):
        """Roll the destination back so a retry starts clean.

        Closes the incoming port reservation, interrupts the parked
        ``-incoming`` receive process (otherwise every failed attempt
        leaks a process blocked on accept() forever), and quits the
        half-created destination VM — including on the *final* attempt.
        """
        incoming = dest_vm.incoming_process
        if incoming is not None and incoming.is_alive:
            incoming.interrupt("migration attempt abandoned")
        node = dest_host.system.net_node
        if node.listener(incoming_port) is not None:
            node.close_port(incoming_port)
        dest_vm.quit()

    def _backoff_delay(self, attempt):
        """Exponential backoff with seeded jitter in [0.5x, 1.5x)."""
        base = self.backoff_base_s * (self.backoff_factor**attempt)
        return base * (0.5 + self.rng.random())

    # -- fleet-level moves --------------------------------------------------

    def evacuate(self, host, placer, mode="precopy"):
        """Generator: drain every tenant off ``host`` (eviction).

        The host is marked ``draining`` first so the placer never routes
        the evicted tenants straight back.  Returns the records.
        """
        previous_state = host.state
        host.state = "draining"
        records = []
        try:
            for name in sorted(host.tenants):
                tenant = host.tenants[name]
                if tenant.vm is None:
                    continue
                dest = placer.place(tenant.spec, exclude=(host,))
                records.append(
                    (yield from self.migrate_tenant(tenant, dest, mode=mode))
                )
        finally:
            host.state = previous_state if not host.tenants else "up"
        return records

    def rebalance(self, placer, moves=1, mode="precopy"):
        """Generator: shave the most-loaded host, one tenant per move."""
        records = []
        for _ in range(moves):
            source = placer.most_loaded_up_host()
            if source is None:
                break
            # Largest tenant first (classic bin-pack shave), name tie-break.
            candidates = sorted(
                (t for t in source.tenants.values() if t.state == "running"),
                key=lambda t: (-t.spec.memory_mb, t.name),
            )
            if not candidates:
                break
            tenant = candidates[0]
            dest = placer.place(tenant.spec, exclude=(source,))
            records.append(
                (yield from self.migrate_tenant(tenant, dest, mode=mode))
            )
        return records
