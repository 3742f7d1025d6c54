"""Filebench (fileserver personality): the I/O-intensive workload.

Each iteration performs the fileserver op mix — create/append a file,
read another, stat, delete — through the guest kernel's syscall layer
and the virtio block device.  Used as Fig 4's I/O-intensive migration
backdrop and available as a standalone throughput benchmark.
"""

from repro.workloads.base import Workload

#: Pages written per created/appended file (fileserver's ~64 KiB mean).
PAGES_PER_FILE = 16
#: Pages *newly dirtied* per op from the migration log's point of view —
#: the fileserver mix mostly rewrites a bounded working set, so only a
#: couple of pages per op are fresh dirty territory each sync interval.
FRESH_DIRTY_PAGES_PER_OP = 1
#: Fraction of operations that force a journal commit.
FSYNC_RATE = 0.06
#: The syscalls of one op, in call order, charged with one
#: ``Kernel.syscall_costs`` call: create, append (per page), submit the
#: write; read another file (per page), submit the read; stat; delete.
FILEBENCH_OP = (
    "creat_meta",
    "page_cache_write",
    "block_io_submit",
    "page_cache_read",
    "block_io_submit",
    "stat",
    "unlink_meta",
)


class FilebenchWorkload(Workload):
    """The fileserver op mix."""

    name = "filebench"

    def run(self, system, duration=30.0, ops=None):
        """Run for ``duration`` seconds (or a fixed op count).

        Metrics: ``ops_per_second``, ``ops``.
        """
        self._r_system = system
        self._r_result = self._begin(system)
        self._r_kernel = system.kernel
        self._r_rng = system.rng.stream(f"filebench:{system.name}")
        self._r_device = None
        if system.qemu_vm is not None and system.qemu_vm.block_devices:
            self._r_device = system.qemu_vm.block_devices[0]

        self._r_ops = ops
        self._r_deadline = (
            None if ops is not None else system.engine.now + duration
        )
        self._r_completed = 0
        return (yield from self._body(system))

    def _body(self, system, resuming=False):
        kernel = self._r_kernel
        rng = self._r_rng
        device = self._r_device
        if resuming:
            yield from self._resume_pace(system)
            self._r_completed += 1
        while not self._stop_requested:
            if self._r_ops is not None and self._r_completed >= self._r_ops:
                break
            if (
                self._r_deadline is not None
                and system.engine.now >= self._r_deadline
            ):
                break
            creat, append, submit_write, read, submit_read, stat, unlink = (
                kernel.syscall_costs(FILEBENCH_OP)
            )
            # Summed in issue order, device time in between: the float
            # total must equal charging each syscall with syscall_cost.
            cost = creat
            cost += append * PAGES_PER_FILE
            cost += submit_write
            if device is not None:
                cost += device.write(PAGES_PER_FILE)
            system.memory.dirty_bulk(FRESH_DIRTY_PAGES_PER_OP)
            # Read a previously written file.
            cost += read * PAGES_PER_FILE
            cost += submit_read
            if device is not None:
                cost += device.read(PAGES_PER_FILE)
            cost += stat
            cost += unlink
            if rng.random() < FSYNC_RATE:
                cost += kernel.syscall_cost("fsync_journal")
                if device is not None:
                    cost += device.flush()
            yield from self._pace(system, cost)
            self._r_completed += 1
        result = self._r_result
        elapsed = system.engine.now - result.started_at
        completed = self._r_completed
        result.metrics["ops"] = completed
        result.metrics["ops_per_second"] = completed / elapsed if elapsed else 0.0
        return self._finish(system, result)
