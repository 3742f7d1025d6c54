"""Property and regression tests for the content-addressed page store.

The page store swap (frames hold refcounted PageRecords instead of
private byte copies) must be invisible in every simulated result:

* refcount/intern invariants survive arbitrary alloc/write/free/merge
  interleavings (seeded random lifecycle property);
* a page freed and re-allocated with identical content starts a fresh
  KSM volatility cycle instead of resurrecting stale digest state;
* the candidate-parking fast path (singletons retired from the active
  scan index) wakes pages the moment a duplicate appears;
* the Fig 5/6 detection fingerprints are byte-identical to values
  captured on the pre-swap representation.
"""

import random

import pytest

from repro.hardware.machine import Machine
from repro.hardware.memory import PAGE_SIZE, PhysicalMemory
from repro.hardware.page_store import PageStore, content_digest
from repro.hypervisor.ksm import KsmDaemon
from repro.migration.transport import RamChunk, dedup_entries
from repro.sim.perf import PerfCounters
from repro.sim.snapshot import capture


# ---------------------------------------------------------------------------
# PageStore unit behaviour
# ---------------------------------------------------------------------------


def test_intern_is_content_addressed():
    perf = PerfCounters()
    store = PageStore(perf)
    a = store.intern(b"alpha")
    b = store.intern(b"alpha")
    c = store.intern(b"beta")
    assert a is b
    assert a is not c
    assert a.refs == 2
    assert c.refs == 1
    assert perf.page_store_interns == 2
    assert perf.page_store_hits == 1
    assert store.unique_contents == 2
    store.release(a)
    assert a.refs == 1
    store.release(a)
    assert store.unique_contents == 1


def test_digest_computed_once_and_stable():
    store = PageStore(PerfCounters())
    record = store.intern(b"digest me")
    assert record.digest == content_digest(b"digest me")
    # Same-content reintern keeps the record (and its cached digest).
    again = store.reintern(record, b"digest me")
    assert again is record


def test_oversized_content_rejected():
    store = PageStore(PerfCounters())
    with pytest.raises(Exception):
        store.intern(b"x" * (PAGE_SIZE + 1))


# ---------------------------------------------------------------------------
# Random lifecycle property
# ---------------------------------------------------------------------------


def _check_invariants(memory, ksm, shadow):
    # Read-back correctness: the store swap must never change what a
    # pfn reads as.
    for pfn, content in shadow.items():
        assert memory.read(pfn) == content

    frames = memory._frames
    # Mapping refcounts: each frame's refcount equals the number of
    # pfns that map it, and every live frame has at least one mapper.
    by_frame = {}
    for frame in frames.values():
        by_frame[id(frame)] = by_frame.get(id(frame), 0) + 1
    for frame in frames.values():
        assert frame.refcount == by_frame[id(frame)] >= 1

    # Record refcounts: each record's refs equals the number of
    # *distinct* frames holding it (standalone handles aside).
    by_record = {}
    for frame in memory.iter_distinct_frames():
        key = id(frame.record)
        by_record[key] = by_record.get(key, 0) + 1
        assert frame.record.refs >= 1
    for frame in memory.iter_distinct_frames():
        assert frame.record.refs == by_record[id(frame.record)]

    # Sharing arithmetic is a pure counter read.
    assert memory.distinct_frames == len(by_frame)
    assert (
        memory.pages_saved_by_sharing
        == memory.allocated_pages - memory.distinct_frames
        >= 0
    )

    # KSM conservation: shared == shared_total - unshared.
    stats = ksm.stats
    assert ksm.pages_shared == stats.pages_shared_total - stats.pages_unshared

    # Candidate index partition: active + parked candidates are exactly
    # the mergeable, unshared pfns; counts agree with the index.
    parked_pfns = {
        pfn for bucket in memory._parked.values() for pfn in bucket
    }
    active_pfns = set(memory._scan_records)
    assert not (parked_pfns & active_pfns)
    expected = {
        pfn
        for pfn, frame in frames.items()
        if frame.mergeable and not frame.ksm_shared
    }
    assert active_pfns | parked_pfns == expected
    counted = sum(memory._candidate_count.values())
    assert counted == len(expected)


def _ksm_pass(ksm):
    """One full synchronous scan pass (no virtual time needed)."""
    ksm._begin_pass()
    cursor = ksm._cursor
    ksm._cursor = []
    ksm._scan_batch(cursor[::-1])
    ksm._end_pass()


@pytest.mark.parametrize("seed", [3, 17, 4242])
def test_random_lifecycle_property(seed):
    rng = random.Random(seed)
    machine = Machine(memory_mb=64, seed=seed)
    memory = machine.memory
    ksm = KsmDaemon(machine, pages_to_scan=500)
    contents = [
        f"page-{i}".encode("utf-8") * rng.randint(1, 4) for i in range(8)
    ]
    shadow = {}
    for step in range(400):
        op = rng.random()
        if op < 0.45 or not shadow:
            content = rng.choice(contents)
            pfn = memory.allocate(content, mergeable=rng.random() < 0.8)
            shadow[pfn] = content
        elif op < 0.70:
            pfn = rng.choice(list(shadow))
            content = rng.choice(contents)
            memory.write(pfn, content)
            shadow[pfn] = content
        elif op < 0.85:
            pfn = rng.choice(list(shadow))
            memory.free(pfn)
            del shadow[pfn]
        else:
            _ksm_pass(ksm)
        if step % 25 == 0:
            _check_invariants(memory, ksm, shadow)
    _check_invariants(memory, ksm, shadow)


# ---------------------------------------------------------------------------
# Fork/dispose refcount conservation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [5, 271])
def test_fork_dispose_refcount_conservation(seed):
    """Forking, mutating one branch, and disposing it is invisible.

    The snapshot layer shares `PageRecord`s by identity across forks,
    so the original store's refcount partition reflects every holder on
    every side.  After the branch is disposed, the partition must
    return to the pre-fork state *exactly* — any drift means a leaked
    or double-released reference.
    """
    rng = random.Random(seed)
    machine = Machine(memory_mb=64, seed=seed)
    memory = machine.memory
    ksm = KsmDaemon(machine, pages_to_scan=500)
    contents = [
        f"page-{i}".encode("utf-8") * rng.randint(1, 4) for i in range(6)
    ]
    shadow = {}
    for _ in range(150):
        op = rng.random()
        if op < 0.5 or not shadow:
            content = rng.choice(contents)
            pfn = memory.allocate(content, mergeable=rng.random() < 0.8)
            shadow[pfn] = content
        elif op < 0.75:
            pfn = rng.choice(list(shadow))
            content = rng.choice(contents)
            memory.write(pfn, content)
            shadow[pfn] = content
        elif op < 0.9:
            pfn = rng.choice(list(shadow))
            memory.free(pfn)
            del shadow[pfn]
        else:
            _ksm_pass(ksm)
    _ksm_pass(ksm)
    before = memory.page_store.refs_partition()

    snapshot = capture(machine.engine, machine, label="conservation")
    fork = snapshot.fork()
    fork_memory = fork.root.memory

    # While the branch lives, every resident content's refcount is
    # strictly elevated (the fork adopted one ref per distinct frame).
    during = memory.page_store.refs_partition()
    assert set(during) == set(before)
    assert all(during[content] > before[content] for content in before)

    # Mutate the branch: rewrites, frees, and fresh allocations — the
    # original and its shadow stay untouched (COW), and the rewrites of
    # fork-shared records count as divergence.
    fork_rng = random.Random(seed + 1)
    for pfn in list(shadow)[:20]:
        fork_memory.write(pfn, b"branch rewrite %d" % pfn)
    for pfn in list(shadow)[20:30]:
        fork_memory.free(pfn)
    for i in range(10):
        fork_memory.allocate(
            b"branch only %d" % i, mergeable=fork_rng.random() < 0.5
        )
    assert fork.engine.perf.fork_cow_breaks >= 1
    for pfn, content in shadow.items():
        assert memory.read(pfn) == content

    fork.dispose()
    snapshot.dispose()
    assert memory.page_store.refs_partition() == before
    _check_invariants(memory, ksm, shadow)


# ---------------------------------------------------------------------------
# Free -> realloc regression (stale digest-bucket state)
# ---------------------------------------------------------------------------


def test_free_realloc_does_not_double_count_shared_total():
    machine = Machine(memory_mb=64, seed=1)
    memory = machine.memory
    ksm = KsmDaemon(machine)
    content = b"recycled content"
    a = memory.allocate(content, mergeable=True)
    b = memory.allocate(content, mergeable=True)
    _ksm_pass(ksm)  # volatility filter: both newly seen
    _ksm_pass(ksm)  # stabilized: merge
    assert ksm.stats.pages_shared_total == 1
    assert memory.pages_saved_by_sharing == 1

    memory.free(a)
    memory.free(b)
    # Last reference gone: the stable frame dropped and the content
    # left the store entirely.
    assert ksm.pages_shared == 0
    assert ksm.stats.pages_unshared == 1
    assert memory.page_store.unique_contents == 0

    # Identical content reallocated: a *fresh* volatility cycle, no
    # instant merge against stale state, no double counting.
    c = memory.allocate(content, mergeable=True)
    d = memory.allocate(content, mergeable=True)
    _ksm_pass(ksm)
    assert ksm.stats.pages_shared_total == 1  # not merged yet
    _ksm_pass(ksm)
    assert ksm.stats.pages_shared_total == 2  # merged exactly once more
    assert ksm.pages_shared == 1
    assert (
        ksm.pages_shared
        == ksm.stats.pages_shared_total - ksm.stats.pages_unshared
    )
    assert memory.read(c) == memory.read(d) == content


# ---------------------------------------------------------------------------
# Candidate parking
# ---------------------------------------------------------------------------


def test_parked_singleton_wakes_on_duplicate_and_merges():
    machine = Machine(memory_mb=64, seed=1)
    memory = machine.memory
    ksm = KsmDaemon(machine)
    pfn = memory.allocate(b"unique for now", mergeable=True)
    _ksm_pass(ksm)  # newly seen
    assert pfn in memory._scan_records
    _ksm_pass(ksm)  # stabilized singleton: parked
    assert pfn not in memory._scan_records
    assert any(pfn in bucket for bucket in memory._parked.values())
    # A duplicate arrives: the parked page must wake...
    dup = memory.allocate(b"unique for now", mergeable=True)
    assert pfn in memory._scan_records
    # ...and the pair merges once the newcomer stabilizes.
    _ksm_pass(ksm)
    _ksm_pass(ksm)
    assert ksm.pages_shared == 1
    assert memory.frame(pfn) is memory.frame(dup)


def test_parked_singleton_wakes_on_rewrite():
    machine = Machine(memory_mb=64, seed=1)
    memory = machine.memory
    ksm = KsmDaemon(machine)
    pfn = memory.allocate(b"original", mergeable=True)
    _ksm_pass(ksm)
    _ksm_pass(ksm)
    assert pfn not in memory._scan_records
    memory.write(pfn, b"rewritten")
    assert pfn in memory._scan_records
    assert not memory._parked


# ---------------------------------------------------------------------------
# Migration dedup transport
# ---------------------------------------------------------------------------


def test_dedup_entries_grouping_and_wire_accounting():
    entries = [(1, b"a"), (2, b"b"), (3, b"a"), (4, b"a"), (5, b"b")]
    unique, table = dedup_entries(entries)
    assert unique == [(1, b"a"), (2, b"b")]
    assert table == [(3, 0), (4, 0), (5, 1)]
    deduped = RamChunk(unique, dedup_table=table)
    plain = RamChunk(entries)
    # Same logical page population, strictly fewer wire bytes.
    assert deduped.page_count == plain.page_count == 5
    assert deduped.wire_bytes < plain.wire_bytes


# ---------------------------------------------------------------------------
# Detection fingerprints: byte-identical across the representation swap
# ---------------------------------------------------------------------------


def test_detection_fingerprints_byte_identical():
    """Figs 5/6 medians pinned on the pre-page-store representation.

    The pinned constants were captured by running this exact scenario on
    the commit preceding the page-store swap; equality must be exact —
    the data plane refactor may not move a single float.
    """
    from tests.fleet_helpers import DETECTION_PINS_SEED7, detection_fingerprint

    for key, nested in (("clean", False), ("nested", True)):
        assert detection_fingerprint(nested) == DETECTION_PINS_SEED7[key]
