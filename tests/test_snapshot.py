"""Engine snapshot/fork: COW sharing, counters, determinism, failure.

The snapshot layer (`repro.sim.snapshot`) is what lets drivers pay a
warm-up prefix once and fan out N divergent branches.  These tests pin
its contract at the engine/machine level:

* forking shares `PageRecord`s by refcount — no byte copies, and a
  branch write diverges copy-on-write without touching the snapshot
  or sibling branches;
* `snapshot_captures` / `engine_forks` / `fork_pages_shared` /
  `fork_cow_breaks` count exactly, `snapshot.*` trace instants land in
  the trace, and metric dumps carry the counters;
* a fork resumes the original timeline byte-identically (same KSM
  passes, same perf counters) — the fleet-level twin of this check
  lives in test_fleet_fanout.py;
* capture copies nothing, so the live world is the fork root: a live
  process without the resumable protocol fails the first fork loudly
  instead of silently dropping state, a fork after the captured engine
  ran is refused, and a fork taken after a sibling ran and was disposed
  sees the same world the sibling saw.
"""

import gc

import pytest

from repro.hardware.machine import Machine
from repro.hypervisor.ksm import KsmDaemon
from repro.obs.export import metrics_json
from repro.sim.snapshot import SnapshotError, capture, heap_frozen

#: Perf counters that legitimately differ between a forked engine and
#: the original timeline (the fork pays bookkeeping the original never
#: sees, and vice versa).
_FORK_ONLY_COUNTERS = {
    "snapshot_captures",
    "engine_forks",
    "fork_pages_shared",
    "fork_cow_breaks",
}


def _comparable_perf(engine):
    return {
        name: value
        for name, value in engine.perf.as_dict().items()
        if name not in _FORK_ONLY_COUNTERS
    }


def _warm_machine(seed=11, duplicates=6):
    """A small machine with KSM running and merged duplicate pages."""
    machine = Machine(memory_mb=32, seed=seed)
    ksm = KsmDaemon(machine, pages_to_scan=500)
    ksm.start()
    memory = machine.memory
    pfns = [
        memory.allocate(b"shared template", mergeable=True)
        for _ in range(duplicates)
    ]
    pfns.append(memory.allocate(b"loner", mergeable=True))
    machine.engine.run(until=30.0)  # several KSM passes: merge settles
    return machine, ksm, pfns


def test_fork_shares_pages_and_diverges_cow():
    machine, _ksm, pfns = _warm_machine()
    engine = machine.engine
    memory = machine.memory
    saved_before = memory.pages_saved_by_sharing
    assert saved_before > 0

    snapshot = capture(engine, machine, label="unit")
    fork_a = snapshot.fork()
    fork_b = snapshot.fork()
    assert fork_a.pages_shared == fork_b.pages_shared > 0

    # Shared by identity: the records backing the fork's frames are the
    # very objects the original store holds.
    target = pfns[0]
    mem_a = fork_a.root.memory
    assert mem_a.frame(target).record is memory.frame(target).record

    # A branch write breaks COW for that branch only.
    mem_a.write(target, b"branch A diverged")
    assert mem_a.read(target) == b"branch A diverged"
    assert memory.read(target) == b"shared template"
    assert fork_b.root.memory.read(target) == b"shared template"
    assert snapshot.root.memory.read(target) == b"shared template"
    assert fork_a.engine.perf.fork_cow_breaks >= 1
    assert fork_b.engine.perf.fork_cow_breaks == 0
    assert engine.perf.fork_cow_breaks == 0

    fork_a.dispose()
    fork_b.dispose()
    snapshot.dispose()
    # Nothing about the original changed across the whole fan-out.
    assert memory.pages_saved_by_sharing == saved_before


def test_counters_instants_and_gauges():
    machine, _ksm, _pfns = _warm_machine(seed=3)
    engine = machine.engine
    engine.tracer.enable()
    snapshot = capture(engine, machine, label="counted")
    assert engine.perf.snapshot_captures == 1
    fork = snapshot.fork()
    assert engine.perf.engine_forks == 1
    assert snapshot.forks_taken == 1
    assert fork.engine.perf.fork_pages_shared == fork.pages_shared > 0

    names = [event[1] for event in engine.tracer.events()]
    assert "snapshot.capture" in names
    assert "snapshot.fork" in names

    # Metric dumps carry the perf counters next to the registry.
    (dump,) = metrics_json([engine.tracer]).values()
    assert dump["perf"]["snapshot_captures"] == 1
    assert dump["perf"]["engine_forks"] == 1
    fork.dispose()
    snapshot.dispose()


def test_fork_resumes_original_timeline_byte_identically():
    machine, _ksm, _pfns = _warm_machine(seed=29)
    engine = machine.engine
    snapshot = capture(engine, machine, label="determinism")
    fork_a = snapshot.fork()
    fork_b = snapshot.fork()

    # Continue all three timelines — original and both forks — to the
    # same horizon.  KSM keeps scanning in each; every counter the
    # simulation touches must agree.
    for eng in (engine, fork_a.engine, fork_b.engine):
        eng.run(until=150.0)
    assert _comparable_perf(fork_a.engine) == _comparable_perf(engine)
    assert _comparable_perf(fork_b.engine) == _comparable_perf(engine)
    assert (
        fork_a.root.memory.pages_saved_by_sharing
        == fork_b.root.memory.pages_saved_by_sharing
        == machine.memory.pages_saved_by_sharing
    )
    fork_a.dispose()
    fork_b.dispose()
    snapshot.dispose()


def test_unresumable_process_fails_first_fork_loudly():
    machine = Machine(memory_mb=16, seed=1)
    engine = machine.engine

    def opaque():
        yield engine.timeout(1000.0)

    engine.process(opaque(), name="opaque")
    snapshot = capture(engine, machine, label="opaque-world")
    with pytest.raises(SnapshotError, match="opaque-world.*opaque"):
        snapshot.fork()
    assert snapshot.forks_taken == 0


def test_fork_after_captured_engine_ran_fails_loudly():
    machine, _ksm, _pfns = _warm_machine(seed=5)
    engine = machine.engine
    snapshot = capture(engine, machine, label="moved")
    early = snapshot.fork()
    engine.run(until=engine.now + 1.0)
    with pytest.raises(SnapshotError, match="'moved'.*ran since capture"):
        snapshot.fork()
    # A fork taken before the original ran is its own world and stays
    # runnable.
    early.engine.run(until=engine.now)
    assert early.engine.now == engine.now
    early.dispose()
    snapshot.dispose()


def test_fork_after_disposed_sibling_ran_sees_the_same_world():
    # Forks copy the live warm world, so a branch that ran and was
    # disposed must leave nothing behind for the next sibling.  Each
    # sibling breaks COW and adds pages for KSM to merge, so a page
    # store or daemon shared with the warm world shows as a mismatch.
    machine, _ksm, pfns = _warm_machine(seed=17)
    snapshot = capture(machine.engine, machine, label="siblings")
    outcomes = []
    for _sibling in range(2):
        fork = snapshot.fork()
        memory = fork.root.memory
        memory.write(pfns[0], b"sibling write")
        for _ in range(4):
            memory.allocate(b"sibling template", mergeable=True)
        fork.engine.run(until=120.0)
        outcomes.append(
            (
                _comparable_perf(fork.engine),
                fork.engine.now,
                memory.pages_saved_by_sharing,
            )
        )
        fork.dispose()
    snapshot.dispose()
    assert outcomes[1] == outcomes[0]


def test_disposed_snapshot_refuses_forks():
    machine = Machine(memory_mb=16, seed=1)
    snapshot = capture(machine.engine, machine)
    snapshot.dispose()
    with pytest.raises(SnapshotError):
        snapshot.fork()


def test_heap_frozen_restores_collector_state():
    was_enabled = gc.isenabled()
    frozen_before = gc.get_freeze_count()
    with heap_frozen():
        assert gc.get_freeze_count() > frozen_before
    assert gc.get_freeze_count() == frozen_before
    assert gc.isenabled() == was_enabled


def test_heap_frozen_nests_without_early_thaw():
    # gc.unfreeze() thaws the whole permanent generation, so an inner
    # fan-out must not strip an enclosing driver's freeze — only the
    # outermost exit may thaw (the fanout benchmark freezes around its
    # cold comparator legs while fan_out freezes internally).
    frozen_before = gc.get_freeze_count()
    with heap_frozen():
        outer_frozen = gc.get_freeze_count()
        assert outer_frozen > frozen_before
        with heap_frozen():
            pass
        # Inner exit must NOT have thawed the outer freeze.
        assert gc.get_freeze_count() >= outer_frozen
    assert gc.get_freeze_count() == frozen_before


def test_empty_never_booted_machine_captures_and_forks():
    # An empty capture is the degenerate warm-up: no processes, no
    # allocations, virtual time zero.  It must capture and fork cleanly
    # (the scenario matrix hits this with settle-free, churn-free warm
    # prefixes), and the fork must be a fully independent world.
    machine = Machine(memory_mb=16, seed=2)
    engine = machine.engine
    assert engine.now == 0.0
    snapshot = capture(engine, machine, label="empty")
    fork = snapshot.fork()
    assert fork.engine.now == 0.0
    assert fork.pages_shared == 0
    # The branch can boot real work the parent never sees.
    pfn = fork.root.memory.allocate(b"branch page", mergeable=True)
    assert fork.root.memory.read(pfn) == b"branch page"
    assert machine.memory.allocated_pages == 0
    fork.dispose()
    snapshot.dispose()
