"""Kernel samepage merging: the detector's substrate."""

import pytest

from repro.errors import HypervisorError
from repro.hardware.machine import Machine
from repro.hypervisor.ept import GuestMemory
from repro.hypervisor.ksm import KsmDaemon


@pytest.fixture
def machine():
    return Machine(memory_mb=1024, seed=7)


@pytest.fixture
def ksm(machine):
    daemon = KsmDaemon(machine, pages_to_scan=200, sleep_millisecs=20)
    daemon.start()
    return daemon


def _settle(machine, seconds=1.0):
    machine.engine.run(until=machine.engine.now + seconds)


def test_identical_mergeable_pages_merge(machine, ksm):
    a = machine.memory.allocate(b"twin", mergeable=True)
    b = machine.memory.allocate(b"twin", mergeable=True)
    _settle(machine)
    assert machine.memory.frame(a) is machine.memory.frame(b)
    assert ksm.stats.pages_merged_total >= 1
    assert ksm.pages_sharing >= 1


def test_non_mergeable_pages_never_merge(machine, ksm):
    a = machine.memory.allocate(b"twin", mergeable=False)
    b = machine.memory.allocate(b"twin", mergeable=False)
    _settle(machine)
    assert machine.memory.frame(a) is not machine.memory.frame(b)


def test_different_content_never_merges(machine, ksm):
    a = machine.memory.allocate(b"one", mergeable=True)
    b = machine.memory.allocate(b"two", mergeable=True)
    _settle(machine)
    assert machine.memory.frame(a) is not machine.memory.frame(b)


def test_merge_requires_two_stable_passes(machine, ksm):
    """The volatility filter: no merge within a single scan pass."""
    machine.memory.allocate(b"p", mergeable=True)
    machine.memory.allocate(b"p", mergeable=True)
    _settle(machine, 0.02)  # at most one wake: far too early
    assert ksm.stats.pages_merged_total == 0
    _settle(machine, 1.0)
    assert ksm.stats.pages_merged_total == 1


def test_volatile_page_not_merged(machine, ksm):
    a = machine.memory.allocate(b"flip", mergeable=True)
    machine.memory.allocate(b"flip", mergeable=True)
    flip = [True]

    def churn():
        machine.memory.write(a, b"flip" if flip[0] else b"flop")
        flip[0] = not flip[0]
        machine.engine.call_later(0.01, churn)

    churn()
    _settle(machine, 0.8)
    assert machine.memory.frame(a).refcount == 1


def test_third_copy_joins_stable_frame(machine, ksm):
    pfns = [machine.memory.allocate(b"trio", mergeable=True) for _ in range(2)]
    _settle(machine)
    late = machine.memory.allocate(b"trio", mergeable=True)
    _settle(machine)
    frames = {id(machine.memory.frame(p)) for p in pfns + [late]}
    assert len(frames) == 1
    assert machine.memory.frame(late).refcount == 3


def test_cow_break_restores_privacy(machine, ksm):
    a = machine.memory.allocate(b"shared", mergeable=True)
    b = machine.memory.allocate(b"shared", mergeable=True)
    _settle(machine)
    outcome = machine.memory.write(a, b"diverged")
    assert outcome.cow_broken
    assert machine.memory.read(b) == b"shared"
    # The survivor can merge again with a new twin.
    c = machine.memory.allocate(b"shared", mergeable=True)
    _settle(machine)
    assert machine.memory.frame(c) is machine.memory.frame(b)


def test_merge_across_nesting_levels(machine, ksm):
    """An L2 page merges with an L0 page — the detection premise."""
    l1 = GuestMemory(machine.memory, 64, name="l1")
    l2 = GuestMemory(l1, 32, name="l2")
    deep = l2.alloc_page()
    l2.write(deep, b"file-a-page")
    host_pfn = machine.memory.allocate(b"file-a-page", mergeable=True)
    _settle(machine)
    backing, resolved = l2.resolve(deep)
    assert backing.frame(resolved) is machine.memory.frame(host_pfn)


def test_zero_pages_merge(machine, ksm):
    pfns = [machine.memory.allocate(b"", mergeable=True) for _ in range(10)]
    _settle(machine)
    frames = {id(machine.memory.frame(p)) for p in pfns}
    assert len(frames) == 1


def test_stop_halts_scanning(machine, ksm):
    ksm.stop()
    machine.memory.allocate(b"late", mergeable=True)
    machine.memory.allocate(b"late", mergeable=True)
    _settle(machine)
    assert ksm.stats.pages_merged_total == 0


def test_idle_fast_path_engages_and_recovers(machine, ksm):
    machine.memory.allocate(b"pair", mergeable=True)
    machine.memory.allocate(b"pair", mergeable=True)
    _settle(machine, 2.0)
    assert ksm._idle  # nothing left to do
    # Parked on the memory epochs: no 20 ms timer left on the queue.
    assert ksm._parked is not None
    assert machine.memory._epoch_waiter is ksm
    assert ksm._process._waiting_on is ksm._parked
    assert machine.engine._queue == []
    merged_before = ksm.stats.pages_merged_total
    machine.memory.allocate(b"fresh", mergeable=True)
    machine.memory.allocate(b"fresh", mergeable=True)
    _settle(machine, 2.0)
    assert ksm.stats.pages_merged_total == merged_before + 1


def test_full_scans_counted(machine, ksm):
    machine.memory.allocate(b"x", mergeable=True)
    _settle(machine, 0.5)
    assert ksm.stats.full_scans >= 2


def test_start_idempotent(machine, ksm):
    assert ksm.start() is ksm._process


def test_parameter_validation(machine):
    with pytest.raises(HypervisorError):
        KsmDaemon(machine, pages_to_scan=0)
    with pytest.raises(HypervisorError):
        KsmDaemon(machine, sleep_millisecs=0)


def test_freed_stable_frame_forgotten(machine, ksm):
    a = machine.memory.allocate(b"gone", mergeable=True)
    b = machine.memory.allocate(b"gone", mergeable=True)
    _settle(machine)
    shared = machine.memory.frame(a)
    assert shared.ksm_shared
    machine.memory.free(a)
    machine.memory.free(b)
    assert ksm.pages_shared == 0 or shared.digest not in ksm._stable


def test_seen_filter_bounded_under_alloc_free_churn(machine, ksm):
    baseline = len(ksm._seen)
    high_water = 0
    for round_no in range(5):
        pfns = [
            machine.memory.allocate(
                f"churn-{round_no}-{page}".encode(), mergeable=True
            )
            for page in range(40)
        ]
        _settle(machine, 2.0)
        high_water = max(high_water, len(ksm._seen))
        for pfn in pfns:
            machine.memory.free(pfn)
        # Freed pfns must leave the volatility filter immediately.
        assert len(ksm._seen) == baseline
    assert high_water >= baseline + 40
