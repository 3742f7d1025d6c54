"""Copy-on-write snapshot/fork of a running engine.

The expensive part of every detection sweep, chaos campaign, and A/B
fault study is the shared warm-up prefix: boot hosts, place tenants,
let KSM converge.  This module lets a driver pay that prefix once —
:func:`capture` freezes the full simulation state (event heap, timers,
process continuations, RNG streams, perf counters) and every
:meth:`EngineSnapshot.fork` call produces an *independent* engine whose
guest memory shares the interned :class:`~repro.hardware.page_store.
PageRecord` objects with the snapshot by refcount.  No page bytes are
copied at fork time; a branch that writes a shared page diverges
through the memory layer's ordinary intern-on-write path.

Mechanics
---------

A snapshot is one :func:`copy.deepcopy` of ``(engine, root)`` with a
pre-seeded memo:

* every resident ``PageRecord`` of every memory the engine has
  registered (:meth:`Engine.register_memory`) is entered as *itself*,
  so the copy shares page contents instead of duplicating them;
* the engine's internal ``_PENDING`` sentinel is entered as itself, so
  pending-event identity checks survive the copy.

After the copy, each copied memory *adopts* one page-store reference
per distinct frame (:meth:`PhysicalMemory.adopt_fork_records`) — the
records' refcounts now account for every holder on both sides, and
disposing a branch (:meth:`Fork.dispose`) returns the refcounts to the
pre-fork partition exactly.

Generators cannot be copied, so every process alive at capture time
must be *resumable*: created with ``engine.process(gen, resumable=obj)``
where ``obj.__resume__()`` returns a fresh generator in resuming mode —
its first yield bare and side-effect-free (no events created, no
counters touched).  :meth:`Process.__deepcopy__` advances the fresh
generator to that bare yield; the copied pending event then delivers
its value through the copied callbacks exactly as the original would
have.  The KSM daemon and every workload implement the protocol; a
live process without it fails the capture loudly.

What is *not* captured: wall-clock state (perf_counter values), the
process-global observability registry (a forked tracer's events stay
reachable through the fork's own engine but are not auto-registered
for merged exports), and OS-level resources — there are none; the
simulation is pure Python state by construction.
"""

import contextlib
import copy
import gc

from repro.errors import ReproError, SimulationError
from repro.sim.engine import _PENDING

__all__ = ["EngineSnapshot", "Fork", "SnapshotError", "capture", "heap_frozen"]


#: Depth of nested :func:`heap_frozen` contexts.  ``gc.unfreeze`` has
#: no nesting of its own — it thaws the *entire* permanent generation —
#: so only the outermost exit may call it, or an inner fan-out would
#: silently strip the protection an enclosing driver (for example a
#: benchmark that also freezes around its cold comparator legs) set up.
_freeze_depth = 0


@contextlib.contextmanager
def heap_frozen():
    """Freeze the live heap around a fan-out loop.

    A fork loop allocates and frees one whole engine copy per branch;
    every disposed branch leaves cycles behind, and the collector's
    full-heap passes re-scan the (large, immortal) warm fleet plus the
    pristine snapshot each time — in practice that roughly doubles
    per-branch wall time.  Freezing moves everything alive at entry
    into the permanent generation so per-branch ``gc.collect()`` calls
    only walk that branch's own garbage.  Drivers use::

        with heap_frozen():
            for spec in branches:
                run_one(spec)
                gc.collect()   # cheap: only the branch's garbage

    Contexts nest: an inner ``heap_frozen`` re-freezes whatever was
    allocated since the outer one (the warm fleet itself, typically)
    and the heap thaws only when the outermost context exits.
    """
    global _freeze_depth
    gc.collect()
    gc.freeze()
    _freeze_depth += 1
    try:
        yield
    finally:
        _freeze_depth -= 1
        if _freeze_depth == 0:
            gc.unfreeze()


class SnapshotError(SimulationError):
    """Capture or fork failed (unresumable process, disposed snapshot)."""


def _seed_memo(memories):
    """Deepcopy memo mapping every page record (and the pending
    sentinel) to itself, so the copy shares them by identity."""
    memo = {id(_PENDING): _PENDING}
    for memory in memories:
        for record in memory.page_store.iter_records():
            memo[id(record)] = record
        for frame in memory.iter_distinct_frames():
            record = frame.record
            memo[id(record)] = record
    return memo


def _copy_world(engine, root, track_divergence):
    """One shared-record deepcopy of ``(engine, root)`` + ref adoption.

    Returns ``(engine_copy, root_copy, pages_shared)``.
    """
    memo = _seed_memo(engine._memories)
    # The copy allocates tens of thousands of objects and frees none;
    # letting the cyclic collector run its full-heap passes mid-copy
    # roughly doubles fork latency for zero reclaim.
    was_collecting = gc.isenabled()
    if was_collecting:
        gc.disable()
    try:
        engine_copy, root_copy = copy.deepcopy((engine, root), memo)
    except (ReproError, TypeError) as exc:
        raise SnapshotError(f"engine state is not snapshotable: {exc}") from exc
    finally:
        if was_collecting:
            gc.enable()
    shared = 0
    for memory in engine_copy._memories:
        shared += memory.adopt_fork_records(track_divergence=track_divergence)
    return engine_copy, root_copy, shared


class Fork:
    """One independent branch forked off an :class:`EngineSnapshot`.

    ``engine`` and ``root`` are full, runnable copies; run the branch
    to any horizon, read its results, then :meth:`dispose` it so the
    page records it shares with the snapshot drop back to the pre-fork
    refcounts.
    """

    def __init__(self, snapshot, engine, root, pages_shared):
        self.snapshot = snapshot
        self.engine = engine
        self.root = root
        self.pages_shared = pages_shared
        self._disposed = False

    def dispose(self):
        """Release every page-store reference this branch holds."""
        if self._disposed:
            return
        self._disposed = True
        for memory in self.engine._memories:
            memory.release_fork_records()

    def __repr__(self):
        state = "disposed" if self._disposed else "live"
        return f"<Fork of {self.snapshot!r} shared={self.pages_shared} {state}>"


class EngineSnapshot:
    """A frozen, pristine copy of an engine (plus its domain root).

    The capture itself is one shared-record deepcopy held aside; the
    original engine may keep running (or be thrown away) without
    touching the snapshot.  Each :meth:`fork` produces an independent
    branch from the pristine copy.
    """

    def __init__(self, engine, label, pristine_engine, pristine_root, shared):
        #: The engine the snapshot was captured from.
        self.engine = engine
        self.label = label
        self.captured_at = pristine_engine.now
        self.pages_shared = shared
        self._pristine_engine = pristine_engine
        self._pristine_root = pristine_root
        self._disposed = False
        self.forks_taken = 0

    @property
    def root(self):
        """Read-only view of the captured domain root (do not run it)."""
        return self._pristine_root

    def fork(self):
        """Produce an independent branch; returns a :class:`Fork`."""
        if self._disposed:
            raise SnapshotError("snapshot has been disposed")
        engine_copy, root_copy, shared = _copy_world(
            self._pristine_engine, self._pristine_root, track_divergence=True
        )
        self.forks_taken += 1
        self.engine.perf.engine_forks += 1
        engine_copy.perf.fork_pages_shared += shared
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(
                "snapshot.fork",
                "snapshot",
                track="snapshot",
                args={
                    "label": self.label,
                    "fork": self.forks_taken,
                    "pages_shared": shared,
                },
            )
        return Fork(self, engine_copy, root_copy, shared)

    def dispose(self):
        """Release the pristine copy's page-store references."""
        if self._disposed:
            return
        self._disposed = True
        for memory in self._pristine_engine._memories:
            memory.release_fork_records()

    def __repr__(self):
        label = f" {self.label!r}" if self.label else ""
        return (
            f"<EngineSnapshot{label} at={self.captured_at:.3f}s "
            f"shared={self.pages_shared} forks={self.forks_taken}>"
        )


def capture(engine, root=None, label=None):
    """Snapshot ``engine`` (and the ``root`` object graph) right now.

    Every process alive on the engine must be resumable (see the module
    docstring); raises :class:`SnapshotError` otherwise.  Returns an
    :class:`EngineSnapshot`.
    """
    pristine_engine, pristine_root, shared = _copy_world(
        engine, root, track_divergence=False
    )
    engine.perf.snapshot_captures += 1
    tracer = engine.tracer
    if tracer.enabled:
        tracer.instant(
            "snapshot.capture",
            "snapshot",
            track="snapshot",
            args={"label": label, "pages_shared": shared},
        )
    return EngineSnapshot(engine, label, pristine_engine, pristine_root, shared)
