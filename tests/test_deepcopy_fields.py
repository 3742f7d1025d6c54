"""Field coverage of the hand-written ``__deepcopy__`` overrides.

Engine snapshot forks copy the page, memory, EPT, KSM and dirty-bitmap
types through flat ``__deepcopy__`` overrides that name every field by
hand.  A field added to a constructor and forgotten there is missing
from forked branches, or — passed through without a copy — shared
between them.  Each case builds a populated instance, copies it the way
a snapshot does (page records seeded into the memo as themselves), and
checks that the clone has exactly the original's fields and shares no
mutable object with it, except the page records shared by design.
"""

import copy

import pytest

from repro.hardware.machine import Machine
from repro.hardware.page_store import PageRecord
from repro.hypervisor.ept import GuestMemory
from repro.hypervisor.ksm import KsmDaemon
from repro.sim.snapshot import _seed_memo

#: Values a copy may hand over as they are.
_IMMUTABLE = (
    type(None), bool, int, float, str, bytes, tuple, frozenset, range,
)


def _fields(obj):
    """Instance attributes that are set, from ``__dict__`` and slots."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.update(slot for slot in slots if hasattr(obj, slot))
    return names


def _mutable(value):
    return not isinstance(value, _IMMUTABLE + (PageRecord,))


def _members(container):
    if isinstance(container, dict):
        return [*container.keys(), *container.values()]
    if isinstance(container, (list, set)):
        return list(container)
    return []


def _assert_flat_copy(original, clone):
    assert type(clone) is type(original)
    assert _fields(clone) == _fields(original)
    for name in sorted(_fields(original)):
        value, copied = getattr(original, name), getattr(clone, name)
        if not _mutable(value):
            assert copied == value or copied is value, name
            continue
        assert copied is not value, f"{name} shared with the original"
        inner = {id(item) for item in _members(value) if _mutable(item)}
        shared = [
            item for item in _members(copied)
            if _mutable(item) and id(item) in inner
        ]
        assert not shared, f"{name} shares {shared[:3]!r}"


@pytest.fixture
def world():
    """A small machine whose KSM merged, parked candidates and parked
    itself, plus an L1 guest with a live dirty log."""
    machine = Machine(memory_mb=256, seed=7)
    memory = machine.memory
    ksm = KsmDaemon(machine, pages_to_scan=64)
    ksm.start()
    for index in range(40):
        memory.allocate(b"dup-%d" % (index % 8), mergeable=True)
    for index in range(8):
        memory.allocate(b"unique-%d" % index, mergeable=True)
    guest = GuestMemory(memory, 64, name="l1")
    for index in range(20):
        gpfn = guest.alloc_page()
        guest.write(gpfn, b"guest-%d" % (index % 4))
    guest.touch_bulk(100)
    guest.start_dirty_log()
    guest.write(3, b"dirtied")
    guest.dirty_bulk(5)
    machine.engine.run(until=2.0)
    assert ksm._parked is not None and memory._epoch_waiter is ksm
    assert memory._parked and ksm._stable
    return machine, ksm, guest


def _snapshot_copy(obj, memory):
    return copy.deepcopy(obj, _seed_memo([memory]))


def test_ksm_daemon(world):
    machine, ksm, _guest = world
    _assert_flat_copy(ksm, _snapshot_copy(ksm, machine.memory))


def test_physical_memory(world):
    machine, _ksm, _guest = world
    # A forked memory also carries the fork-shared divergence ledger.
    snapshot = machine.engine.snapshot()
    fork = snapshot.fork()
    try:
        memory = fork.engine._memories[0]
        assert memory._fork_shared
        _assert_flat_copy(memory, _snapshot_copy(memory, memory))
    finally:
        fork.dispose()
        snapshot.dispose()


def test_frame(world):
    machine, ksm, _guest = world
    frame = next(iter(ksm._stable.values()))
    assert frame.refcount > 1
    clone = _snapshot_copy(frame, machine.memory)
    _assert_flat_copy(frame, clone)
    assert clone.record is frame.record


def test_guest_memory(world):
    machine, _ksm, guest = world
    assert guest._dirty_words and guest._mapping
    _assert_flat_copy(guest, _snapshot_copy(guest, machine.memory))


def test_page_store(world):
    machine, _ksm, _guest = world
    store = machine.memory.page_store
    clone = _snapshot_copy(store, machine.memory)
    _assert_flat_copy(store, clone)
    for content, record in store._by_content.items():
        assert clone._by_content[content] is record


def test_page_record(world):
    machine, _ksm, _guest = world
    record = machine.memory.frame(0).record
    record.digest  # populate the cached digest
    # Snapshots share records; the override serves standalone copies.
    clone = copy.deepcopy(record)
    assert clone is not record
    _assert_flat_copy(record, clone)


def test_dirty_bitmap(world):
    _machine, _ksm, guest = world
    bitmap, _bulk = guest.fetch_and_reset_dirty()
    for pfn in (1, 70, 130):
        bitmap.mark(pfn)
    assert len(bitmap) == 4  # also caches the count
    _assert_flat_copy(bitmap, copy.deepcopy(bitmap))
