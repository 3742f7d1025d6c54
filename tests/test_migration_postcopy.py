"""Post-copy migration: tiny downtime, workload-independent duration.

Every migration here runs the production path: a destination launched
with ``incoming_port=`` and the source's monitor driving ``migrate``,
with ``migrate_set_capability postcopy-ram on`` selecting post-copy.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro import scenarios
from repro.errors import MigrationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hypervisor.ksm import KsmDaemon
from repro.net.packets import Packet
from repro.qemu.config import DriveSpec
from repro.qemu.qemu_img import qemu_img_create
from repro.qemu.vm import launch_vm
from repro.workloads.kernel_compile import KernelCompileWorkload

PORT = 4600


def _destination(host, source_vm, port=PORT):
    qemu_img_create(host, "/var/lib/images/pcdest.qcow2", 20)
    config = source_vm.config.clone_for_destination(
        "pcdest", incoming_port=port, keep_hostfwds=False
    )
    config.drives = [DriveSpec("/var/lib/images/pcdest.qcow2")]
    vm, _ = launch_vm(host, config)
    return vm


def _migrate(host, vm, capabilities=("postcopy-ram",), port=PORT):
    for capability in capabilities:
        vm.monitor.execute(f"migrate_set_capability {capability} on")
    vm.monitor.execute(f"migrate -d tcp:127.0.0.1:{port}")
    host.engine.run(vm.migration_process)
    return vm.migration_stats


def test_postcopy_completes(host, victim):
    dest = _destination(host, victim)
    stats = _migrate(host, victim)
    assert stats.status == "completed"
    assert dest.incoming_process.value is dest
    assert dest.status == "running"
    assert dest.guest is not None
    assert dest.guest.depth == 1


def test_postcopy_downtime_tiny(host, victim):
    _destination(host, victim)
    stats = _migrate(host, victim)
    assert stats.downtime < 0.05


def test_postcopy_duration_workload_independent(host, victim):
    """Unlike pre-copy, a dirty-page storm cannot stall post-copy."""
    workload = KernelCompileWorkload()
    workload.start(victim.guest, loop_forever=True)
    _destination(host, victim)
    stats = _migrate(host, victim)
    workload.stop()
    # Pre-copy under compile takes hundreds of seconds; post-copy just
    # streams the RAM once.
    assert stats.total_time < 60.0


def test_postcopy_penalty_decays_to_zero(host, victim):
    dest = _destination(host, victim)
    _migrate(host, victim)
    assert dest.guest.kernel.extra_op_latency == 0.0


# -- dedup round trip --------------------------------------------------------


def _dedup_victim(seed=7):
    """A KSM-heavy victim: 4 x 12 templates, each written to 40 pages."""
    host = scenarios.testbed(seed=seed)
    vm = scenarios.launch_victim(host)
    KsmDaemon(host.machine).start()
    memory = vm.guest.memory
    for group in range(4):
        for template in range(12):
            content = hashlib.blake2b(
                f"dedup:{group}:{template}".encode("utf-8"), digest_size=48
            ).digest()
            for _ in range(40):
                memory.write(memory.alloc_page(), content)
    return host, vm


@pytest.mark.parametrize(
    "capabilities",
    [("dedup",), ("postcopy-ram", "dedup"), ("xbzrle",), ("postcopy-ram",)],
    ids=["precopy-dedup", "postcopy-dedup", "precopy-xbzrle", "postcopy"],
)
def test_dedup_victim_round_trip(capabilities):
    host, vm = _dedup_victim()
    dest = _destination(host, vm)
    source_memory = vm.kvm_vm.memory
    stats = _migrate(host, vm, capabilities)
    assert stats.status == "completed"
    assert stats.pages_deduped == (1870 if "dedup" in capabilities else 0)
    gpfns = list(source_memory.iter_touched())
    assert dest.kvm_vm.memory.read_many(gpfns) == source_memory.read_many(gpfns)


# -- failure paths -------------------------------------------------------------


def test_postcopy_rejects_non_ack_reply(host, victim):
    """The handoff must be acked: any other reply is a protocol error."""
    node = host.net_node
    listener = node.listen(PORT)

    def bogus_destination():
        connection = yield listener.accept()
        endpoint = connection.server
        while True:
            yield endpoint.recv()
            endpoint.send(Packet(64, payload="nak", kind="migration"))

    host.engine.process(bogus_destination(), name="bogus-incoming")
    with pytest.raises(MigrationError, match="expected Ack"):
        _migrate(host, victim)


@pytest.mark.parametrize(
    "chunk, deduped, chunks",
    [(2, 0, 1), (5, 581, 4)],
    ids=["before-any-dedup", "after-dedup-chunk"],
)
def test_postcopy_fill_drop_books_nothing_of_the_dropped_chunk(
    chunk, deduped, chunks
):
    """A fill dropped before chunk N books chunks 1..N-1 and nothing of N.

    Chunks 4-6 of this victim carry the dedup back-references, so the
    second case would also count chunk 5's 997 references if the fault
    seam fired after the chunk was built.
    """
    host, vm = _dedup_victim()
    plan = FaultPlan()
    plan.migration_drop(0.0, mode="postcopy", iteration=chunk)
    datacenter = SimpleNamespace(engine=host.engine, hosts={})
    FaultInjector(datacenter, plan).arm(base=host.engine.now)
    _destination(host, vm)
    with pytest.raises(MigrationError, match=f"fill chunk {chunk}"):
        _migrate(host, vm, ("postcopy-ram", "dedup"))
    perf = host.engine.perf
    assert vm.migration_stats.status == "failed"
    assert vm.migration_stats.pages_deduped == deduped
    assert perf.migration_pages_deduped == deduped
    assert perf.migration_chunks == chunks
