"""Conservative shard synchronization for multi-process runs.

One datacenter run is split across OS worker processes.  Each worker
(*shard*) owns a contiguous group of hosts, runs its own
:class:`~repro.sim.engine.Engine` replica forward independently, and
synchronizes virtual time with the classic conservative (null-message)
protocol:

* every shard periodically broadcasts its **horizon** — the earliest
  virtual time at which it could still complete a cross-shard
  operation (its next local event time while it owns in-flight work,
  ``+inf`` otherwise);
* a shard with outstanding remote operations only advances to a
  **ceiling** derived from the owners' horizons and blocks on its
  pipes past it.  Because every cross-shard operation is awaited alone
  or through an all-or-nothing barrier, the ceiling is the *max* of the
  owners' horizons, not the textbook min — see
  :meth:`ShardRuntime._ceiling` for the safety argument;
* completed cross-shard operations travel as timestamped **messages**
  over pre-fork pipes and are merged into the local event heap
  deterministically — ordered by ``(timestamp, shard index, per-shard
  sequence)``, injected only once the local clock is about to pass
  their timestamp, so a ghost completion lands in the heap exactly
  where the serial engine would have scheduled the real one.

The ceiling adds no slack to the owners' horizons: the channels
sharded (sweep reports, campaign install completions) are
instantaneous in serial semantics, so any slack would let a replica's
clock pass a completion it had not seen yet.

Deadlock freedom is the textbook argument: before blocking, a shard
broadcasts its current horizon; if two shards block on each other, the
one with the globally minimal next event time finds its ceiling above
that event and proceeds.  Every blocking wait carries a wall-clock
timeout so a crashed peer surfaces as a :class:`ShardError` rather
than a hang.
"""

import heapq
import select

from itertools import count

from repro.errors import SimulationError
from repro.sim.engine import Event, Process, _Condition

_INF = float("inf")

#: Wall-clock seconds a blocked shard waits for *any* peer message
#: before declaring the mesh dead.  Generous: virtual-time stalls are
#: bounded by the null-message cadence, so only a crashed or wedged
#: peer ever gets near this.
RECV_TIMEOUT_S = 120.0

#: A running shard re-broadcasts its horizon and pumps its pipes every
#: this-many engine steps while cross-shard work is in flight.
HORIZON_STRIDE = 64

#: A blocked shard re-broadcasts its horizon on entry and then only
#: every this-many wakeups.  While blocked with nothing owned, the
#: advertised horizon tracks the ceiling, which rises with every peer
#: horizon received — re-broadcasting each rise turns the mesh into an
#: O(shards^2) echo storm per real advance.  Peers that need the
#: ceiling-driven horizon (a shard awaiting one of our *post-resumption*
#: operations) tolerate stride-coarse updates exactly like the running
#: case.
BLOCKED_RESEND_STRIDE = 16


class ShardError(SimulationError):
    """Shard planning or synchronization failure."""


class ShardPlan:
    """The host -> shard partition of one datacenter run.

    ``groups`` is a tuple of host-name tuples, one per shard, in shard
    index order.
    """

    def __init__(self, groups):
        self.groups = tuple(tuple(group) for group in groups)
        if not self.groups or any(not group for group in self.groups):
            raise ShardError("every shard group needs at least one host")
        self._owner = {}
        for index, group in enumerate(self.groups):
            for host_name in group:
                if host_name in self._owner:
                    raise ShardError(f"host {host_name!r} in two shard groups")
                self._owner[host_name] = index

    @property
    def shards(self):
        return len(self.groups)

    def owner_of(self, host_name):
        try:
            return self._owner[host_name]
        except KeyError:
            raise ShardError(f"host {host_name!r} is in no shard group") from None

    @classmethod
    def contiguous(cls, host_names, shards):
        """Cut the sorted ``host_names`` into ``shards`` contiguous
        groups whose sizes differ by at most one."""
        names = sorted(host_names)
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ShardError(f"shards must be a positive integer, got {shards!r}")
        total = len(names)
        if shards > total:
            raise ShardError(
                f"shards={shards} exceeds the fleet's {total} host(s); "
                "each shard needs at least one host"
            )
        return cls(
            names[index * total // shards : (index + 1) * total // shards]
            for index in range(shards)
        )

    def __repr__(self):
        sizes = ",".join(str(len(group)) for group in self.groups)
        return f"<ShardPlan shards={self.shards} hosts=[{sizes}]>"


def describe_error(exc):
    """Wire form of a survivable exception: ``(class name, message)``."""
    return (type(exc).__name__, str(exc))


def rebuild_error(payload):
    """Reconstruct a peer's exception from its wire form.

    Only :mod:`repro.errors` types cross the wire (anything else is a
    shard bug and surfaces as :class:`ShardError`), so every replica
    re-raises the exact class its survivable-error handling matches on.
    """
    import repro.errors as errors_module

    name, message = payload
    exc_type = getattr(errors_module, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, Exception):
        return exc_type(message)
    return ShardError(f"peer failed with non-repro error {name}: {message}")


class _PublishDone:
    """Event callback broadcasting a completed owned operation.

    A class (not a closure) purely for the engine's callback idiom;
    shard runtimes exist only post-fork and are never snapshotted.
    """

    __slots__ = ("runtime", "key", "transform")

    def __init__(self, runtime, key, transform):
        self.runtime = runtime
        self.key = key
        self.transform = transform

    def __call__(self, event):
        runtime = self.runtime
        runtime._published_open -= 1
        if event._ok:
            value = event._value
            if self.transform is not None:
                value = self.transform(value)
            runtime._broadcast_done(self.key, True, value)
        else:
            runtime._broadcast_done(
                self.key, False, describe_error(event._value)
            )


class ShardRuntime:
    """One worker's view of the shard mesh; plugs into ``engine.governor``.

    ``conns`` maps peer shard index -> duplex
    :class:`multiprocessing.connection.Connection`.  The runtime is
    created *after* the OS fork, attached as ``engine.governor`` (the
    engine consults it once per step, mirroring the ``engine.faults``
    one-attribute seam), and drives three duties:

    * **publish** — operations this shard owns: when the underlying
      event fires, the completion is broadcast with its virtual
      timestamp;
    * **remote** — operations another shard owns: the caller gets a
      ghost :class:`~repro.sim.engine.Event` that the governor fulfils
      at the exact virtual time the owner recorded;
    * **gate** — the per-step conservative brake: pump pipes, inject
      ready ghosts in ``(t, shard, seq)`` order, and block while the
      next local event lies beyond the ceiling (:meth:`_ceiling`).
    """

    def __init__(self, engine, index, conns):
        self.engine = engine
        self.index = index
        self.conns = dict(conns)
        now = engine.now
        self._hz = {peer: now for peer in self.conns}
        self._outstanding = {}  # key -> (Event, owner shard index)
        self._buffered = {}  # key -> (t, sender, seq, ok, payload)
        self._op_seq = count()
        self._published_open = 0
        self._steps = 0
        self._hz_sent = -_INF
        self._fins = {}  # peer -> digest
        self._fin_extras = {}  # peer -> stats dict sent with the fin
        self._dead = set()  # peers whose pipes hit EOF after their fin
        # One persistent poller for the whole mesh.  The stdlib's
        # Connection.poll / connection.wait build a fresh selector per
        # call — at null-message cadence that is hundreds of thousands
        # of selector registrations per run and dominates the profile.
        self._poller = select.poll()
        self._fd_peer = {}
        for peer, conn in self.conns.items():
            self._poller.register(conn.fileno(), select.POLLIN)
            self._fd_peer[conn.fileno()] = peer
        self.recv_timeout = RECV_TIMEOUT_S
        #: The *send cone*: scheduled events whose pop can transitively
        #: lead to a cross-shard broadcast (the control process and
        #: everything it waits on, published operations and their
        #: timer chains — but not the independent per-host daemons that
        #: dominate the heap).  ``_cone_heap`` holds ``(fire time, seq,
        #: event)`` for scheduled cone events; ``_cone_unscheduled``
        #: holds cone events whose trigger time is unknown (a pending
        #: Event some other simulation code will succeed) — while any
        #: exists the horizon falls back to the queue head.
        self._cone_heap = []
        self._cone_seq = count()
        self._cone_unscheduled = set()
        #: Protocol work counters (surfaced in bench/test reports).
        self.messages_sent = 0
        self.messages_received = 0
        self.ghosts_injected = 0
        self.blocked_waits = 0

    # -- the send cone -----------------------------------------------------

    def taint(self, event):
        """Mark ``event`` send-relevant and track its cone contribution.

        Recursion mirrors the wait graph: a process contributes whatever
        it currently waits on, a composite contributes its members, a
        scheduled event contributes its fire time, and a pending event
        with an unknown trigger time forces the conservative queue-head
        fallback until it fires.  Ghost events created by
        :meth:`remote` arrive pre-marked, so the cone never descends
        into them — their timing is the ceiling's job.  Called by
        ``Process._resume`` each time a tainted process parks on a new
        wait, so the cone follows the control plane automatically.
        """
        if event.tainted or event.processed:
            return
        event.tainted = True
        if isinstance(event, Process):
            wait = event._waiting_on
            if wait is not None:
                self.taint(wait)
            elif not event.triggered:
                # Initializing or mid-resume: until its first yield the
                # process could do anything "now".
                self._cone_unscheduled.add(event)
            return
        if isinstance(event, _Condition):
            for member in event._events:
                if not member.processed:
                    self.taint(member)
            return
        if event.triggered:
            heapq.heappush(
                self._cone_heap, (event.when, next(self._cone_seq), event)
            )
        else:
            self._cone_unscheduled.add(event)

    def _cone_bound(self):
        """Earliest virtual time a cone event can pop — the shard's
        tightest sound lower bound on its next cross-shard send.

        Falls back to the queue head while any cone event's trigger
        time is unknown (and whenever the cone is empty — an
        under-promise is always safe).
        """
        unscheduled = self._cone_unscheduled
        if unscheduled:
            still = set()
            push = None
            for event in unscheduled:
                if event.processed:
                    continue
                if isinstance(event, Process):
                    wait = event._waiting_on
                    if wait is not None:
                        if not wait.tainted:
                            self.taint(wait)
                        continue
                    if event.triggered:
                        continue
                    still.add(event)
                    continue
                if event.triggered:
                    heapq.heappush(
                        self._cone_heap,
                        (event.when, next(self._cone_seq), event),
                    )
                    continue
                still.add(event)
            self._cone_unscheduled = still
            if still:
                queue = self.engine._queue
                return queue[0][0] if queue else _INF
        heap = self._cone_heap
        while heap and heap[0][2].processed:
            heapq.heappop(heap)
        if heap:
            return heap[0][0]
        queue = self.engine._queue
        return queue[0][0] if queue else _INF

    # -- ownership helpers -------------------------------------------------

    def publish(self, key, event, transform=None):
        """Broadcast ``event``'s completion to every peer when it fires.

        ``transform`` maps the event value to its wire form (e.g. the
        slimmed sweep report); failures travel as ``(class, message)``
        pairs and re-raise identically in every replica.
        """
        self._published_open += 1
        event._add_callback(_PublishDone(self, key, transform))
        self.taint(event)
        return event

    def begin(self, _key=None):
        """Open an inline owned operation (close with :meth:`complete`).

        While any owned operation is open the shard's horizon stays
        pinned to its next local event time, so peers waiting on the
        completion cannot run past the time it will carry.
        """
        self._published_open += 1

    def complete(self, key, value):
        """Broadcast an inline completion (opened with :meth:`begin`)."""
        self._published_open -= 1
        self._broadcast_done(key, True, value)

    def complete_error(self, key, exc):
        """Broadcast an inline completion that raised ``exc``."""
        self._published_open -= 1
        self._broadcast_done(key, False, describe_error(exc))

    def remote(self, key, owner):
        """A ghost event for an operation ``owner`` runs on our behalf.

        The governor triggers it at the virtual time the owner's
        completion message carries; until then the ceiling keeps this
        shard from advancing past any time the completion could name.
        """
        if owner == self.index:
            raise ShardError(f"shard {owner} cannot wait on itself for {key!r}")
        if owner not in self.conns:
            raise ShardError(f"no pipe to shard {owner} for {key!r}")
        event = Event(self.engine)
        # Pre-marked so cone tracking never descends into ghosts: their
        # fire time is bounded by the ceiling, not by local events.
        event.tainted = True
        self._outstanding[key] = (event, owner)
        return event

    # -- the engine governor hook -----------------------------------------

    def gate(self, _next_time):
        """Called by ``Engine.step`` before every event pop."""
        self._steps += 1
        if self._steps % HORIZON_STRIDE == 0:
            self._pump(block=False)
            # Unconditional: a peer may already be outstanding on an
            # operation we have not reached begin()/publish() for yet,
            # in which case its ceiling tracks our horizon right now.
            # The monotonic throttle in _send_horizon keeps this cheap.
            self._send_horizon()
        if self._buffered and self._outstanding:
            self._inject_ready()
        waits = 0
        while self._outstanding:
            queue = self.engine._queue
            next_time = queue[0][0] if queue else None
            if next_time is not None and next_time <= self._ceiling():
                break
            if waits % BLOCKED_RESEND_STRIDE == 0:
                self._send_horizon()
            waits += 1
            self.blocked_waits += 1
            self._pump(block=True)
            self._inject_ready()

    def _ceiling(self):
        """Highest virtual time this shard may advance to while blocked.

        The textbook conservative bound is ``min(owner horizons)`` —
        safe for arbitrary message consumers.  The cloud
        seams obey a stronger contract that licenses ``max``: every
        remote operation is awaited either alone or through an
        all-or-nothing barrier (``engine.all_of``), and control cannot
        resume before the *latest* member completes.  A ghost arriving
        below the local clock is therefore inert — its callback only
        ticks the barrier counter — and :meth:`_inject_ready` clamps
        its enqueue delay to "now".  The completion that actually
        resumes control carries the barrier's max timestamp, which is
        >= every owner horizon, so popping local events up to
        ``max(owner horizons)`` can never run past a resumption.  (With one outstanding op the two rules coincide.)
        A seam that waits on one of several registered ghosts
        *selectively* would break this contract — none does; the
        differential pins would catch it as divergence.
        """
        hz = self._hz
        return max(hz[owner] for _event, owner in self._outstanding.values())

    def _inject_ready(self):
        """Merge buffered completions into the local heap, in order.

        Deterministic merge rule: ready ghosts sort by ``(t, sender
        shard, sender sequence)`` and are enqueued only once the next
        local event time has reached ``t`` — so their heap sequence
        numbers interleave with local events exactly as the serial
        engine's completion events would.

        Under the max-of-horizons ceiling (:meth:`_ceiling`) the local
        clock may already sit *past* a lagging owner's completion time
        when its message lands.  Such a late ghost is inert — it can
        only tick an all-of barrier whose latest member is still ahead
        of us — so its enqueue delay is clamped to zero: it fires
        "now", the barrier counts it, and the resumption still happens
        at the barrier's max timestamp, carried by an on-time event.
        """
        buffered = self._buffered
        outstanding = self._outstanding
        ready = sorted(
            (entry[0], entry[1], entry[2], key)
            for key, entry in buffered.items()
            if key in outstanding
        )
        if not ready:
            return
        engine = self.engine
        queue = engine._queue
        for t, _sender, _seq, key in ready:
            next_time = queue[0][0] if queue else None
            if next_time is not None and t > next_time:
                break
            _t, _s, _q, ok, payload = buffered.pop(key)
            event, _owner = outstanding.pop(key)
            if ok:
                event._ok = True
                event._value = payload
            else:
                event._ok = False
                event._value = rebuild_error(payload)
            engine._enqueue(event, delay=max(0.0, t - engine._now))
            self.ghosts_injected += 1

    # -- wire protocol -----------------------------------------------------

    def _horizon(self):
        """Lower bound on the timestamp of any done we may still send.

        The bound is the send cone's earliest pop time
        (:meth:`_cone_bound`) — typically a probe settle-wait timer
        seconds of virtual time ahead, licensing peers to free-run
        through thousands of daemon events the myopic queue head would
        have gated one at a time.

        While an owned operation is open, the cone bound stands alone:
        owned completions are driven purely by local cone events (the
        control planes keep inline and published work phase-disjoint,
        and all-of waits cannot resume below an own member's
        completion).  Crucially it is *not* min-ed with the ceiling:
        echoing ``min(local bound, hz[peer])`` back at the peer freezes
        both horizons at whatever stale value they last exchanged, and
        with no slack above the horizons neither side ever moves — the
        textbook null-message feedback deadlock.

        With nothing owned but remotes outstanding, a ghost injection
        could resume control (and trigger an inline begin+complete) as
        early as the ceiling, so the ceiling joins the min there.  The
        result is ``+inf`` only once this shard is fully drained (queue
        empty, nothing owned or outstanding), i.e. at fin.
        """
        bound = self._cone_bound()
        if self._outstanding and not self._published_open:
            ceiling = self._ceiling()
            if ceiling < bound:
                bound = ceiling
        return bound

    def _send_horizon(self):
        horizon = self._horizon()
        if horizon <= self._hz_sent:
            return
        self._hz_sent = horizon
        self._broadcast(("hz", self.index, horizon))

    def _broadcast_done(self, key, ok, payload):
        t = self.engine.now
        if t < self._hz_sent:
            # An advertised horizon is a promise that no message below
            # it is coming; breaking it means a peer may already have
            # advanced past t and would inject this ghost out of order.
            raise ShardError(
                f"shard {self.index}: completion for {key!r} at t={t!r} "
                f"violates the advertised horizon {self._hz_sent!r} "
                "(owned operations must not depend on cross-shard ghosts)"
            )
        seq = next(self._op_seq)
        self._broadcast(("done", self.index, seq, key, t, ok, payload))

    def _broadcast(self, message):
        for peer, conn in self.conns.items():
            try:
                conn.send(message)
            except (BrokenPipeError, OSError) as exc:
                raise ShardError(
                    f"shard {self.index}: peer {peer} pipe is down ({exc})"
                ) from exc
            self.messages_sent += 1

    def _pump(self, block):
        got = self._drain_ready(self._poller.poll(0))
        if block and not got:
            if len(self._dead) == len(self.conns):
                raise ShardError(
                    f"shard {self.index}: blocked with every peer gone"
                )
            ready = self._poller.poll(int(self.recv_timeout * 1000))
            if not ready:
                raise ShardError(
                    f"shard {self.index}: no peer message within "
                    f"{self.recv_timeout:.0f}s (peer stalled or died)"
                )
            got = self._drain_ready(ready)
        return got

    def _drain_ready(self, events):
        """Dispatch every queued message on ready pipes; EOF-aware.

        Re-polls (one cheap syscall on the persistent poller) until no
        pipe is readable, so a burst of peer messages drains in one
        call.  A pipe at EOF still polls readable, so a peer that
        exited after the fin barrier surfaces here: benign once its fin
        arrived — the fd is unregistered and the peer marked dead — a
        dead-peer error before that.
        """
        got = False
        while events:
            for fd, _mask in events:
                peer = self._fd_peer[fd]
                if peer in self._dead:
                    continue
                try:
                    message = self.conns[peer].recv()
                except (EOFError, ConnectionResetError):
                    # EOF is the clean FIN; a reset happens when the
                    # peer died with our messages still unread in its
                    # receive buffer.  Both mean the peer is gone.
                    if peer not in self._fins:
                        raise ShardError(
                            f"shard {self.index}: pipe to shard {peer} "
                            "closed before its fin (peer died)"
                        ) from None
                    self._dead.add(peer)
                    self._poller.unregister(fd)
                    continue
                self._dispatch(message)
                got = True
            events = self._poller.poll(0)
        return got

    def _dispatch(self, message):
        self.messages_received += 1
        kind = message[0]
        if kind == "hz":
            _kind, sender, horizon = message
            if horizon > self._hz[sender]:
                self._hz[sender] = horizon
        elif kind == "done":
            _kind, sender, seq, key, t, ok, payload = message
            self._buffered[key] = (t, sender, seq, ok, payload)
            # A completion at t promises nothing earlier remains.
            if t > self._hz[sender]:
                self._hz[sender] = t
        elif kind == "fin":
            _kind, sender, digest, extra = message
            self._fins[sender] = digest
            self._fin_extras[sender] = extra
            self._hz[sender] = _INF
        elif kind == "fail":
            _kind, sender, text = message
            raise ShardError(
                f"shard {sender} died:\n{text}"
            )
        else:  # pragma: no cover - protocol bug guard
            raise ShardError(f"unknown shard message kind {kind!r}")

    # -- teardown ----------------------------------------------------------

    def announce_failure(self, text):
        """Best-effort death notice so peers fail fast, not on timeout."""
        for conn in self.conns.values():
            try:
                conn.send(("fail", self.index, text))
            except (BrokenPipeError, OSError):
                pass

    def finish(self, digest, extra=None):
        """Fin barrier: exchange digests (and stats) with every peer.

        Returns ``{shard index: digest}`` including our own.  No shard
        leaves the barrier before every peer has arrived, so nobody
        ever writes to a pipe whose reader already exited.  ``extra``
        is a small stats dict shipped alongside the digest — shard 0
        folds every peer's copy into :meth:`stats` so a single-process
        caller can see the whole mesh's work split (the scaling bench
        gates on the per-shard event counts it carries).
        """
        if self._outstanding:
            raise ShardError(
                f"shard {self.index} finished with outstanding remote ops: "
                f"{sorted(map(repr, self._outstanding))[:4]}"
            )
        self._broadcast(("fin", self.index, digest, extra))
        while len(self._fins) < len(self.conns):
            self._pump(block=True)
        self._fin_extras[self.index] = extra
        fins = dict(self._fins)
        fins[self.index] = digest
        return fins

    def stats(self):
        return {
            "shard": self.index,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "ghosts_injected": self.ghosts_injected,
            "blocked_waits": self.blocked_waits,
            "per_shard": {
                shard: dict(extra)
                for shard, extra in sorted(self._fin_extras.items())
                if extra is not None
            },
        }

    def __repr__(self):
        return (
            f"<ShardRuntime shard={self.index} peers={len(self.conns)} "
            f"outstanding={len(self._outstanding)}>"
        )
