"""The snapshot copy of the memory, EPT, KSM and page types.

Engine snapshot forks copy :class:`Frame`, :class:`PhysicalMemory`,
:class:`PageStore`, :class:`GuestMemory` and :class:`KsmDaemon` through
flat ``__deepcopy__`` overrides that name every field by hand; the page
record and the dirty bitmap take the generic :func:`copy.deepcopy`.
Two checks guard the overrides:

* *field coverage* — each case builds a populated instance, copies it
  the way a snapshot does (page records seeded into the memo as
  themselves), and checks that the clone has exactly the original's
  fields and shares no mutable object with it, except the page records
  shared by design.  A field added to a constructor and forgotten in an
  override is missing from forked branches, or shared between them;
* *value equality* — each override's copy is walked in lockstep with a
  generic ``copy.deepcopy`` of the same object, taken with that one
  override removed from its class, and the two must agree on every
  reachable value, on dict order, on aliasing, and on which objects
  they share with the original.
"""

import copy
import random
from collections import deque
from types import FunctionType, GeneratorType, MethodType

import pytest

from repro.hardware.machine import Machine
from repro.hardware.memory import Frame, PhysicalMemory
from repro.hardware.page_store import PageRecord, PageStore
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
    # Snapshots share records; standalone copies duplicate them.
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


# -- value equality against the generic copy --------------------------------

#: Values :func:`copy.deepcopy` hands back as they are.
_ATOMIC = (
    type(None), bool, int, float, complex, str, bytes, range, type,
    FunctionType, type(len),
)


def _children(value):
    """``(label, child)`` pairs the comparison walks into, in order."""
    if isinstance(value, dict):
        return [
            pair
            for index, (key, item) in enumerate(value.items())
            for pair in ((f"key#{index}", key), (f"[{key!r}]", item))
        ]
    if isinstance(value, (list, tuple, deque)):
        return [(f"[{index}]", item) for index, item in enumerate(value)]
    if isinstance(value, random.Random):
        return [("state", value.getstate())]
    if isinstance(value, MethodType):
        return [("__self__", value.__self__)]
    fields = _fields(value)
    if fields:
        return [(f".{name}", getattr(value, name)) for name in sorted(fields)]
    # C types without fields (itertools.count): compare their reduction.
    return [("reduce", value.__reduce_ex__(4)[1:])]


def _leaf_mismatch(left, right):
    """Why two same-typed leaves differ, or None if they agree."""
    if isinstance(left, _ATOMIC):
        return None if left == right else f"{left!r} != {right!r}"
    if isinstance(left, (set, frozenset)):
        if not all(isinstance(item, _ATOMIC) for item in left):
            return "set of objects: no order to compare by"
        return None if left == right else f"{left!r} != {right!r}"
    if isinstance(left, GeneratorType):
        # Process.__deepcopy__ rebuilds continuations the same way in
        # both copies; the generator code is what can differ.
        return None if left.gi_code is right.gi_code else "other generator"
    if isinstance(left, MethodType) and left.__func__ is not right.__func__:
        return "bound to another function"
    if isinstance(left, deque) and left.maxlen != right.maxlen:
        return "deque maxlen differs"
    return None


def _assert_same_copy(original, flat, generic):
    """Walk ``original`` and its two copies in lockstep.

    Both copies must hold equal values in the same order, alias the
    same objects the same way, and share exactly the same objects with
    the original.
    """
    seen = {}
    stack = [("", original, flat, generic)]
    while stack:
        path, source, left, right = stack.pop()
        where = path or "<root>"
        assert type(left) is type(source) is type(right), (
            f"{where}: {type(left).__name__} / {type(right).__name__}"
        )
        if isinstance(source, _ATOMIC):
            assert left == right, f"{where}: {left!r} != {right!r}"
            continue
        mutable = not isinstance(source, (tuple, frozenset))
        if mutable:
            assert (left is source) == (right is source), (
                f"{where}: shared with the original by one copy only"
            )
            if left is source:
                continue
        if id(source) in seen:
            pair = seen[id(source)]
            assert pair[0] is left and pair[1] is right, (
                f"{where}: aliasing differs between the copies"
            )
            continue
        # Holding ``source`` keeps its id from being reused mid-walk.
        seen[id(source)] = (left, right, source)
        problem = _leaf_mismatch(left, right)
        assert problem is None, f"{where}: {problem}"
        if isinstance(source, ((set, frozenset), GeneratorType)):
            continue
        parts = _children(source), _children(left), _children(right)
        counts = [len(part) for part in parts]
        assert counts[1:] == counts[:1] * 2, (
            f"{where}: {counts} members (original, flat, generic)"
        )
        assert [label for label, _ in parts[1]] == [
            label for label, _ in parts[2]
        ], f"{where}: member order differs"
        for (label, child), (_, flat_child), (_, generic_child) in zip(*parts):
            stack.append((path + label, child, flat_child, generic_child))


def _check_override(monkeypatch, cls, obj, memory):
    """Compare a snapshot-style copy of ``obj`` with one taken while
    ``cls`` has no ``__deepcopy__`` of its own."""
    flat = _snapshot_copy(obj, memory)
    with monkeypatch.context() as patch:
        patch.delattr(cls, "__deepcopy__")
        generic = _snapshot_copy(obj, memory)
    _assert_same_copy(obj, flat, generic)


def test_ksm_daemon_matches_generic_copy(world, monkeypatch):
    machine, ksm, _guest = world
    _check_override(monkeypatch, KsmDaemon, ksm, machine.memory)


def test_physical_memory_matches_generic_copy(world, monkeypatch):
    # Frame keeps its override: the memory override calls it directly.
    machine, _ksm, _guest = world
    snapshot = machine.engine.snapshot()
    fork = snapshot.fork()
    try:
        memory = fork.engine._memories[0]
        assert memory._fork_shared and memory._parked
        _check_override(monkeypatch, PhysicalMemory, memory, memory)
    finally:
        fork.dispose()
        snapshot.dispose()


def test_frame_matches_generic_copy(world, monkeypatch):
    machine, ksm, _guest = world
    frames = list(machine.memory.iter_distinct_frames())
    assert any(frame.refcount > 1 for frame in frames)
    _check_override(monkeypatch, Frame, frames, machine.memory)
    _check_override(monkeypatch, Frame, ksm._stable, machine.memory)


def test_page_store_matches_generic_copy(world, monkeypatch):
    machine, _ksm, _guest = world
    store = machine.memory.page_store
    _check_override(monkeypatch, PageStore, store, machine.memory)


def test_guest_memory_matches_generic_copy(world, monkeypatch):
    machine, _ksm, guest = world
    assert guest._dirty_words and guest._mapping
    _check_override(monkeypatch, GuestMemory, guest, machine.memory)


def test_value_check_catches_a_dropped_value():
    machine = Machine(memory_mb=64, seed=3)
    machine.memory.allocate(b"x", mergeable=True)
    flat = copy.deepcopy(machine)
    generic = copy.deepcopy(machine)
    flat.memory._write_epoch += 1
    with pytest.raises(AssertionError, match="_write_epoch"):
        _assert_same_copy(machine, flat, generic)
    shared = copy.deepcopy(machine)
    shared.memory._mergeable = machine.memory._mergeable
    with pytest.raises(AssertionError, match="one copy only"):
        _assert_same_copy(machine, shared, generic)
