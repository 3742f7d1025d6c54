"""The virtual-time tracer: spans, instants, and counter samples.

One :class:`Tracer` hangs off every :class:`~repro.sim.engine.Engine`
(``engine.tracer``).  It is born disabled unless the process-wide
defaults (:mod:`repro.obs.config`) say otherwise, and the contract with
the hot paths is strict: a *disabled* tracer costs exactly one
attribute check at each instrumented seam —

    tracer = engine.tracer
    if tracer.enabled:
        tracer.complete("ksm.pass", "ksm", started_at, ...)

Every recorded event is stamped twice: with the engine's virtual time
(the simulated timeline the paper's figures live on) and with a
wall-clock reading (``time.perf_counter_ns``, for finding *host-side*
hot spots).  Exports keep the virtual timeline by default and only
include wall stamps on request, so same-seed traces are byte-identical.

Three event shapes, following the Chrome trace-event model:

* **complete span** (``ph="X"``) — a named interval on a track, with
  duration in virtual time;
* **instant** (``ph="i"``) — a point marker (a CoW break, a placement
  decision);
* **counter sample** (``ph="C"``) — a numeric series (event-queue
  depth, per-sample perf-counter deltas) rendered as a graph track.

Two unbounded-volume sources are decimated deterministically (by call
count, never wall time): :meth:`on_step` samples the engine loop every
:data:`STEP_SAMPLE_INTERVAL` dispatches, and :meth:`vm_exit` coalesces
per-(VM, reason, depth) exit bursts into one instant per
:data:`EXIT_SAMPLE_INTERVAL` recordings.  Ring-buffer mode
(``ring_capacity``) caps memory for long fleet runs by dropping the
oldest events, counting the drops.
"""

import time
from collections import deque

from repro.obs import config as obs_config
from repro.obs.metrics import MetricRegistry

#: Engine dispatches between two ``engine`` counter samples.
STEP_SAMPLE_INTERVAL = 1024

#: VM-exit recordings per (VM, reason, depth) coalesced into one instant.
EXIT_SAMPLE_INTERVAL = 256


class Tracer:
    """Per-engine trace-event recorder and metric registry host."""

    __slots__ = (
        "engine",
        "label",
        "enabled",
        "metrics",
        "dropped_events",
        "ring_capacity",
        "_events",
        "_step_countdown",
        "_perf_mark",
        "_exit_pending",
        "_wall",
    )

    def __init__(self, engine, label=None):
        cfg = obs_config.active_config()
        self.engine = engine
        self.label = label
        self.metrics = MetricRegistry()
        self.dropped_events = 0
        self.ring_capacity = cfg.ring_capacity
        self._events = deque()
        self._step_countdown = STEP_SAMPLE_INTERVAL
        self._perf_mark = None
        self._exit_pending = {}
        self._wall = time.perf_counter_ns
        self.enabled = False
        if cfg.enabled:
            self.enable()

    # -- lifecycle ---------------------------------------------------------

    def enable(self, ring_capacity=None):
        """Turn recording on (and register for end-of-run export)."""
        self.enabled = True
        if ring_capacity is not None:
            self.ring_capacity = ring_capacity
        obs_config.register(self)
        return self

    def disable(self):
        """Stop recording; already-captured events are kept."""
        self.enabled = False
        return self

    # -- raw event recording ----------------------------------------------

    def _append(self, event):
        events = self._events
        capacity = self.ring_capacity
        if capacity is not None and len(events) >= capacity:
            events.popleft()
            self.dropped_events += 1
        events.append(event)

    def instant(self, name, cat, track="main", args=None):
        """Record a point event at the current virtual time."""
        self._append(
            ("i", name, cat, track, self.engine.now * 1e6, 0.0, self._wall(), args)
        )

    def complete(self, name, cat, start_seconds, track="main", args=None):
        """Record a span from ``start_seconds`` (virtual) to now."""
        start_us = start_seconds * 1e6
        self._append(
            (
                "X",
                name,
                cat,
                track,
                start_us,
                self.engine.now * 1e6 - start_us,
                self._wall(),
                args,
            )
        )

    def counter_sample(self, name, values, track="counters"):
        """Record a counter sample (``values``: series name -> number)."""
        self._append(
            ("C", name, None, track, self.engine.now * 1e6, 0.0, self._wall(), values)
        )

    # -- decimated hot-path hooks ------------------------------------------

    def on_step(self, engine):
        """Called by ``Engine.step`` per dispatch (when enabled).

        Every :data:`STEP_SAMPLE_INTERVAL` dispatches, emits one counter
        sample carrying the queue depth and the perf-counter deltas
        since the previous sample (``PerfCounters.delta``), so the
        timeline shows *where* the simulation spent its work.
        """
        self._step_countdown -= 1
        if self._step_countdown > 0:
            return
        self._step_countdown = STEP_SAMPLE_INTERVAL
        perf = engine.perf
        mark = self._perf_mark
        self._perf_mark = perf.snapshot()
        if mark is None:
            delta = self._perf_mark
        else:
            delta = perf.delta(mark)
        self.counter_sample(
            "engine",
            {
                "pending_events": len(engine._queue),
                "events_dispatched": delta["events_dispatched"],
                "processes_resumed": delta["processes_resumed"],
                "ksm_pages_scanned": delta["ksm_pages_scanned"],
                "migration_pages": delta["migration_pages"],
            },
            track="engine",
        )

    def vm_exit(self, vm_name, reason, count, depth):
        """Account one VM-exit burst; emits an aggregated instant.

        Exits fire per syscall and would swamp the trace one-by-one, so
        each (VM, reason, depth) key accumulates until
        :data:`EXIT_SAMPLE_INTERVAL` recordings, then flushes as a single
        ``vm_exit`` instant carrying the accumulated count.  The
        remainder flushes at export (:meth:`flush`).
        """
        key = (vm_name, reason, depth)
        pending = self._exit_pending.get(key)
        if pending is None:
            self._exit_pending[key] = pending = [0, 0.0]
        pending[0] += 1
        pending[1] += count
        if pending[0] >= EXIT_SAMPLE_INTERVAL:
            self._flush_exit(key, pending)

    def _flush_exit(self, key, pending):
        vm_name, reason, depth = key
        del self._exit_pending[key]
        self.metrics.counter("vm_exits", vm=vm_name, reason=reason.value).inc(
            pending[1]
        )
        self.instant(
            "vm_exit",
            "hypervisor",
            track=f"vm:{vm_name}",
            args={"reason": reason.value, "depth": depth, "count": pending[1]},
        )

    def flush(self):
        """Drain pending aggregations (call before reading events)."""
        for key in sorted(self._exit_pending, key=lambda k: (k[0], k[1].value, k[2])):
            self._flush_exit(key, self._exit_pending[key])
        # Ring-buffer drops would silently bias any analysis built on
        # this trace; surface them in every metric dump.
        if self.enabled:
            self.metrics.gauge("trace.drops").set(self.dropped_events)

    # -- reading -----------------------------------------------------------

    def events(self):
        """All recorded events (after flushing aggregations)."""
        self.flush()
        return list(self._events)

    def clear(self):
        """Drop captured events and metrics (config stays)."""
        self._events.clear()
        self._exit_pending.clear()
        self._perf_mark = None
        self.dropped_events = 0
        self.metrics = MetricRegistry()

    def to_chrome(self, include_wall=False):
        """This tracer's events as a Chrome trace-event JSON object."""
        from repro.obs.export import chrome_trace

        return chrome_trace([self], include_wall=include_wall)

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<Tracer {self.label or 'engine'} {state} "
            f"events={len(self._events)} dropped={self.dropped_events}>"
        )
