"""The discrete-event engine: virtual clock, events, and processes.

The design follows the classic event-list pattern (and will look familiar
to SimPy users): an :class:`Engine` owns a priority queue of triggered
events ordered by virtual time; a :class:`Process` wraps a generator that
yields waitable :class:`Event` objects and is resumed when they fire.

The engine is intentionally small — the substrates built on top (guest
kernels, KSM daemon, migration streams) provide the domain behaviour.

Every class on the dispatch path uses ``__slots__``, timeouts defer
building their callback list until a waiter actually attaches, and a
process that yields an already-processed event is resumed inline rather
than through a throwaway queue entry.  :attr:`Engine.perf` counts the
work done (see :mod:`repro.sim.perf`).
"""

import heapq
from itertools import count

from repro.errors import SimulationError
from repro.obs.trace import Tracer
from repro.sim.perf import PerfCounters

_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot waitable occurrence on the engine's timeline.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, which schedules its callbacks to run at the current
    virtual time.  Processes wait on events by yielding them.

    ``callbacks`` may be ``None`` (no waiter ever attached — the timer
    fast-path) or a list; internal code attaches waiters through
    :meth:`_add_callback`, which materializes the list on demand.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "processed", "tainted", "when")

    def __init__(self, engine):
        self.engine = engine
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        #: True once the engine has popped the event and run its
        #: callbacks.  Distinct from :attr:`triggered`: a Timeout is
        #: "triggered" (value assigned) from birth but fires later.
        self.processed = False
        #: Send-relevance mark for sharded runs: True when popping this
        #: event can transitively resume a process that broadcasts a
        #: cross-shard completion.  The shard governor seeds and
        #: propagates the mark (see :mod:`repro.sim.shard`); serial
        #: runs never set it.  ``when`` is the absolute virtual fire
        #: time, stamped by :meth:`Engine._enqueue` — the governor
        #: reads it to bound the next cross-shard send without
        #: scanning the heap.
        self.tainted = False

    @property
    def triggered(self):
        """Whether the event has been succeeded or failed."""
        return self._value is not _PENDING

    @property
    def ok(self):
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self):
        """The event's result value (or exception when it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    def _add_callback(self, fn):
        """Attach a waiter, materializing the callback list lazily."""
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = [fn]
        else:
            callbacks.append(fn)

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.engine._enqueue(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception, propagated to waiters."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception")
        self._ok = False
        self._value = exception
        self.engine._enqueue(self)
        return self


class Timeout(Event):
    """An event that fires automatically after a virtual-time delay.

    Bare ``engine.timeout(d)`` yields are the single most common event
    in every scenario, so the constructor bypasses ``Event.__init__``
    and leaves ``callbacks`` as ``None`` until a waiter attaches.
    """

    __slots__ = ()

    def __init__(self, engine, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.engine = engine
        self.callbacks = None
        self._ok = True
        self._value = value
        self.processed = False
        self.tainted = False
        engine._enqueue(self, delay=delay)


class _Initialize(Event):
    """Internal event used to start a process at the current time."""

    __slots__ = ()

    def __init__(self, engine, process):
        self.engine = engine
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self.processed = False
        self.tainted = False
        engine._enqueue(self)


class _Call:
    """A deferred ``fn(*args)`` used by ``call_at`` / ``call_later``.

    A lambda closure here would be shared *by identity* across snapshot
    forks (plain functions are atomic to :mod:`copy`); an instance
    rebinds its payload through the copy memo like every other event
    callback, so a forked branch calls the forked injector, not the
    parent's.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args

    def __call__(self, _event):
        self.fn(*self.args)


class Process(Event):
    """A running generator coroutine; also an event that fires on return.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event triggers, the generator is resumed with the event's value (or,
    for failed events, the exception is thrown into it).  The process
    itself is an event whose value is the generator's return value.

    ``resumable`` optionally names the object the generator came from.
    Generators cannot be copied, so engine snapshots (:mod:`repro.sim.
    snapshot`) rebuild a live process's continuation by asking the
    copied resumable for a fresh generator positioned at the suspension
    point — see :meth:`__deepcopy__`.
    """

    __slots__ = ("_generator", "name", "_waiting_on", "resumable")

    def __init__(self, engine, generator, name=None, resumable=None):
        super().__init__(engine)
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on = None
        self.resumable = resumable
        _Initialize(engine, self)

    def __deepcopy__(self, memo):
        """Copy for engine snapshots; the generator needs special care.

        A finished process drops its (exhausted) generator.  A live one
        must carry a ``resumable`` — an object exposing ``__resume__()``
        returning a *resuming-mode* generator whose first yield is bare
        and side-effect-free; the copy advances that fresh generator to
        the bare yield, after which the copied waiting event's callback
        (already rebound to this copy through the memo) delivers the
        pending value exactly as it would have to the original.
        """
        from copy import deepcopy

        memo.setdefault(id(_PENDING), _PENDING)
        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        clone.name = self.name
        clone._ok = self._ok
        clone.processed = self.processed
        clone.tainted = False  # shard governors exist only post-fork
        try:
            clone.when = self.when
        except AttributeError:
            pass
        clone.engine = deepcopy(self.engine, memo)
        clone.callbacks = deepcopy(self.callbacks, memo)
        clone._value = deepcopy(self._value, memo)
        clone._waiting_on = deepcopy(self._waiting_on, memo)
        clone.resumable = deepcopy(self.resumable, memo)
        if self._value is not _PENDING:
            clone._generator = None
        elif clone.resumable is not None:
            generator = clone.resumable.__resume__()
            generator.send(None)
            clone._generator = generator
        else:
            raise SimulationError(
                f"cannot snapshot live process {self.name!r}: it has no "
                "resumable (see repro.sim.snapshot)"
            )
        return clone

    @property
    def is_alive(self):
        """Whether the process has not yet finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        interrupt_event = Event(self.engine)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks.append(self._resume)
        self.engine._enqueue(interrupt_event)

    def _resume(self, event):
        if self._value is not _PENDING:
            # The process already ended.  Stale interrupts lose the race
            # benignly; any other failed event with no remaining waiter
            # is a genuine lost error and must not pass silently.
            if (
                not event._ok
                and not event.callbacks
                and not isinstance(event._value, Interrupt)
            ):
                raise event._value
            return
        detach = self._waiting_on
        if detach is not None and detach is not event:
            try:
                detach.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
        self._waiting_on = None
        generator = self._generator
        engine = self.engine
        perf = engine.perf
        ok = event._ok
        value = event._value
        while True:
            perf.processes_resumed += 1
            try:
                if ok:
                    target = generator.send(value)
                else:
                    target = generator.throw(value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                engine._enqueue(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                engine._enqueue(self)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
            if target.processed:
                # The event already fired and its callbacks ran: deliver
                # its outcome inline (queue-less immediate path) instead
                # of enqueueing a throwaway redelivery event.
                perf.immediate_resumes += 1
                ok = target._ok
                value = target._value
                continue
            self._waiting_on = target
            target._add_callback(self._resume)
            if self.tainted and not target.tainted:
                governor = engine.governor
                if governor is not None:
                    governor.taint(target)
            return


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, engine, events):
        super().__init__(engine)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event.processed:
                self._observe_now(event)
            else:
                self._pending += 1
                event._add_callback(self._observe)
        self._check_initial()

    def _observe_now(self, event):
        raise NotImplementedError

    def _observe(self, event):
        raise NotImplementedError

    def _check_initial(self):
        raise NotImplementedError

    def _results(self):
        return [e._value for e in self._events if e.triggered and e._ok]


class AllOf(_Condition):
    """Fires when every given event has fired (fails fast on failure)."""

    __slots__ = ()

    def _observe_now(self, event):
        if not event._ok:
            if not self.triggered:
                self.fail(event._value)

    def _observe(self, event):
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._results())

    def _check_initial(self):
        if self.triggered:
            return
        if self._pending == 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires as soon as any one of the given events fires."""

    __slots__ = ()

    def _observe_now(self, event):
        if not self.triggered:
            if event._ok:
                self.succeed(event._value)
            else:
                self.fail(event._value)

    def _observe(self, event):
        if self.triggered:
            return
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def _check_initial(self):
        if not self.triggered and not self._events:
            raise SimulationError("AnyOf requires at least one event")


class Engine:
    """The virtual clock and event loop.

    All durations and timestamps are floats in *seconds of virtual time*.
    :attr:`perf` exposes always-on work counters (events dispatched,
    heap pushes, processes resumed, ...) — see :mod:`repro.sim.perf`.
    """

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._sequence = count()
        self.perf = PerfCounters()
        #: Virtual-time tracer + metric registry (:mod:`repro.obs`).
        #: Disabled by default; instrumented seams pay one attribute
        #: check until ``tracer.enable()`` (or ``obs.configure``) runs.
        self.tracer = Tracer(self)
        #: Fault injector (:mod:`repro.faults`), or None.  Instrumented
        #: seams check this one attribute before consulting the
        #: injector, so an unfaulted run pays nothing and replays
        #: byte-identically.
        self.faults = None
        #: Shard governor (:mod:`repro.sim.shard`), or None.  When a
        #: run is sharded across worker processes, the governor brakes
        #: each step at the conservative ceiling and injects
        #: cross-shard ghost events; serial runs pay one attribute
        #: check per step.
        self.governor = None
        #: Physical memories whose page stores participate in
        #: snapshot/fork record sharing (see :meth:`register_memory`).
        self._memories = []

    @property
    def now(self):
        """Current virtual time in seconds."""
        return self._now

    def event(self):
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator, name=None, resumable=None):
        """Start a :class:`Process` running ``generator`` immediately.

        ``resumable`` makes the process snapshot-safe: pass the object
        the generator came from, exposing ``__resume__()`` (see
        :mod:`repro.sim.snapshot`).
        """
        return Process(self, generator, name=name, resumable=resumable)

    def call_at(self, when, fn, *args):
        """Run ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(f"call_at in the past: {when} < {self._now}")
        marker = Timeout(self, when - self._now)
        marker._add_callback(_Call(fn, args))
        return marker

    def call_later(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        marker = self.timeout(delay)
        marker._add_callback(_Call(fn, args))
        return marker

    # -- snapshot / fork ---------------------------------------------------

    def register_memory(self, memory):
        """Enroll a :class:`~repro.hardware.memory.PhysicalMemory`.

        Registered memories have their interned page records shared *by
        identity* (refcounted, copy-on-write) across snapshot forks
        instead of being byte-copied.
        """
        self._memories.append(memory)
        return memory

    def all_of(self, events):
        """Composite event firing when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events):
        """Composite event firing when any of ``events`` fires."""
        return AnyOf(self, events)

    def _enqueue(self, event, delay=0.0):
        self.perf.heap_pushes += 1
        when = self._now + delay
        event.when = when
        heapq.heappush(self._queue, (when, next(self._sequence), event))

    def _enqueue_at(self, event, when):
        """Queue ``event`` to fire at absolute virtual time ``when``.

        Unlike ``_enqueue(event, delay=when - now)`` the fire time is
        taken as given, so a time computed by accumulation elsewhere
        (the KSM wake boundaries) lands on the heap bit for bit.
        """
        if when < self._now:
            raise SimulationError(f"enqueue in the past: {when} < {self._now}")
        self.perf.heap_pushes += 1
        event.when = when
        heapq.heappush(self._queue, (when, next(self._sequence), event))

    def step(self):
        """Process the single next event; returns False when queue is empty."""
        queue = self._queue
        governor = self.governor
        if governor is not None:
            governor.gate(queue[0][0] if queue else None)
        if not queue:
            return False
        when, _seq, event = heapq.heappop(queue)
        self._now = when
        event.processed = True
        perf = self.perf
        perf.events_dispatched += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.on_step(self)
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        else:
            perf.timer_fast_path += 1
            if event._ok is False and not isinstance(event, Process):
                # A failed event nobody waited for: surface the error
                # loudly.
                raise event._value
        return True

    def run(self, until=None):
        """Run the event loop.

        ``until`` may be ``None`` (run to quiescence), a number (absolute
        virtual time to stop at), or an :class:`Event` (run until it
        triggers, returning its value or raising its failure).
        """
        if until is None:
            step = self.step
            while step():
                pass
            return None
        if isinstance(until, Event):
            if until.processed:
                if until._ok:
                    return until._value
                raise until._value
            finished = []
            until._add_callback(finished.append)
            step = self.step
            while not finished:
                if not step():
                    raise SimulationError(
                        f"engine ran out of events before {getattr(until, 'name', 'event')!r} fired"
                    )
            if until._ok:
                return until._value
            raise until._value
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(f"cannot run backwards to {deadline}")
        queue = self._queue
        step = self.step
        while queue and queue[0][0] <= deadline:
            step()
        self._now = deadline
        return None
