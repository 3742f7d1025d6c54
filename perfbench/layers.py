"""Outside-in layer timer for the traced benchmark run.

The program is not edited to be traced.  :class:`LayerTimer` replaces
each layer's entry points (class attributes, or a module binding where
the entry point is a function) with a timing wrapper, and puts the
originals back on :meth:`LayerTimer.uninstall`.

Every wrapped call is a span.  Spans nest along the Python call stack,
so a layer's *self* time is its spans' duration minus the part covered
by child spans.  A generator entry point is timed per resumption: each
``send``/``throw`` into it is one span, and the time it sits suspended
in the event queue belongs to nobody.  Spans are folded into per-entry
totals in memory as they close; nothing is written until the run ends.

Spans recorded in a forked shard worker stay in that worker (it leaves
through ``os._exit``); the shard-0 process is the one measured, and
``shard_stats`` covers the rest of the mesh.
"""

import importlib
import time

#: ``(layer, module, owner, attribute, kind)`` for every wrapped entry
#: point.  ``owner`` is a class in ``module``, or None when the entry
#: point is a module-level binding.  ``kind`` is ``call`` for a plain
#: function, ``gen`` for a generator function (timed per resumption),
#: ``count`` for a function whose int result is a work count to sum, and
#: ``pump`` for ``ShardRuntime._pump``, whose ``block=True`` calls are
#: also summed as time blocked on peers.
ENTRY_POINTS = (
    ("sim.engine", "repro.sim.engine", "Engine", "step", "call"),
    ("guest.kernel", "repro.guest.kernel", "Kernel", "syscall_cost", "call"),
    ("guest.kernel", "repro.guest.kernel", "Kernel", "charge_syscalls", "call"),
    ("hypervisor.kvm", "repro.hypervisor.kvm", "KvmVm", "record_exit", "call"),
    ("hypervisor.ksm", "repro.hypervisor.ksm", "KsmDaemon", "_wake", "call"),
    # Returns the number of page merges it performed.
    ("hypervisor.ksm", "repro.hypervisor.ksm", "KsmDaemon", "_merge_buckets", "count"),
    ("hardware.memory", "repro.hardware.memory", "PhysicalMemory", "read_many", "call"),
    ("hardware.memory", "repro.hardware.memory", "PhysicalMemory", "write", "call"),
    ("hardware.memory", "repro.hardware.memory", "PhysicalMemory", "alloc_page", "call"),
    ("hardware.memory", "repro.hypervisor.ept", "GuestMemory", "read_many", "call"),
    ("hardware.memory", "repro.hypervisor.ept", "GuestMemory", "write", "call"),
    ("hardware.memory", "repro.hypervisor.ept", "GuestMemory", "alloc_page", "call"),
    ("hardware.page_store", "repro.hardware.page_store", "PageStore", "intern", "call"),
    ("hardware.page_store", "repro.hardware.page_store", "PageStore", "release", "call"),
    ("hardware.page_store", "repro.hardware.page_store", "PageStore", "reintern", "call"),
    ("migration", "repro.migration.precopy", "PreCopyMigration", "_send_pages", "gen"),
    ("migration", "repro.migration.precopy", "MigrationDestination", "_apply_chunk", "call"),
    ("migration", "repro.migration.dirty_tracking", "DirtyTracker", "sync", "call"),
    # Engine.snapshot imports capture at call time, so the module
    # binding is the one every caller reaches.
    ("sim.snapshot", "repro.sim.snapshot", None, "capture", "call"),
    ("sim.snapshot", "repro.sim.snapshot", "EngineSnapshot", "fork", "call"),
    ("sim.snapshot", "repro.sim.snapshot", "Fork", "dispose", "call"),
    ("sim.shard", "repro.sim.shard", "ShardRuntime", "gate", "call"),
    ("sim.shard", "repro.sim.shard", "ShardRuntime", "_pump", "pump"),
    ("core.detection", "repro.core.detection.dedup_detector", "DedupDetector", "run", "gen"),
    # The monitoring service binds run_probe at import; patch its copy.
    ("probes", "repro.core.detection.service", None, "run_probe", "gen"),
    ("cloud", "repro.cloud.placement", "BinPackingPlacer", "place", "call"),
    ("cloud", "repro.cloud.migration_orchestrator", "MigrationOrchestrator", "migrate_tenant", "gen"),
    ("cloud", "repro.cloud.fleet_monitor", "FleetMonitor", "sweep_fleet", "gen"),
)

PHASES = ("setup", "timed")


def entry_name(owner, attribute):
    return attribute if owner is None else f"{owner}.{attribute}"


class _Totals:
    """Per-entry accumulators for one phase."""

    def __init__(self, size):
        self.self_s = [0.0] * size
        self.total_s = [0.0] * size
        self.calls = [0] * size
        #: Sum of the results of ``count`` entries.
        self.returned = [0] * size
        #: Wall time of ShardRuntime._pump calls made with block=True.
        self.blocked_s = 0.0


class LayerTimer:
    """Wraps every entry point in :data:`ENTRY_POINTS` while installed.

    ``phase`` selects which accumulator closing spans land in; the
    benchmark flips it between ``setup`` and ``timed`` sections.
    """

    def __init__(self, entry_points=ENTRY_POINTS, clock=time.perf_counter):
        self.entry_points = tuple(entry_points)
        self.clock = clock
        self.phases = {phase: _Totals(len(self.entry_points)) for phase in PHASES}
        self.phase = "setup"
        self._stack = []
        self._originals = []

    @property
    def phase(self):
        return self._phase

    @phase.setter
    def phase(self, phase):
        self._phase = phase
        self._totals = self.phases[phase]

    # -- span bookkeeping -------------------------------------------------

    def _close(self, index, elapsed, children):
        """Fold a finished span into its entry's totals and charge its
        duration to the enclosing span as child time."""
        totals = self._totals
        totals.self_s[index] += elapsed - children
        totals.total_s[index] += elapsed
        stack = self._stack
        if stack:
            stack[-1][0] += elapsed

    def _wrap_call(self, index, function, kind):
        stack = self._stack
        clock = self.clock
        close = self._close

        def timed_call(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(index, elapsed, frame[0])
                totals = self._totals
                totals.calls[index] += 1
            if kind == "count":
                totals.returned[index] += result
            elif kind == "pump" and kwargs.get("block", args[1:2] == (True,)):
                totals.blocked_s += elapsed
            return result

        timed_call.__wrapped__ = function
        return timed_call

    def _wrap_gen(self, index, function):
        stack = self._stack
        clock = self.clock
        close = self._close

        def timed_generator(*args, **kwargs):
            self._totals.calls[index] += 1
            inner = function(*args, **kwargs)
            value = None
            error = None
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    if error is None:
                        item = inner.send(value)
                    else:
                        item = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    close(index, elapsed, frame[0])
                    error = None
                try:
                    value = yield item
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # delivered into the inner generator
                    error = exc

        timed_generator.__wrapped__ = function
        return timed_generator

    # -- install / uninstall ----------------------------------------------

    def install(self):
        """Replace every entry point with its timing wrapper."""
        if self._originals:
            raise RuntimeError("layer timer already installed")
        try:
            for index, (_layer, module, owner, attribute, kind) in enumerate(
                self.entry_points
            ):
                target = importlib.import_module(module)
                if owner is not None:
                    target = getattr(target, owner)
                original = vars(target).get(attribute)
                if original is None:
                    raise AttributeError(
                        f"{module}.{entry_name(owner, attribute)} is not defined "
                        "there; update perfbench/layers.py"
                    )
                if kind == "gen":
                    wrapper = self._wrap_gen(index, original)
                else:
                    wrapper = self._wrap_call(index, original, kind)
                setattr(target, attribute, wrapper)
                self._originals.append((target, attribute, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        """Put every original entry point back (idempotent)."""
        while self._originals:
            target, attribute, original = self._originals.pop()
            setattr(target, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- read-out -----------------------------------------------------------

    def entries(self, phase):
        """``{entry: {layer, calls, self_s, total_s, returned}}`` for a phase."""
        totals = self.phases[phase]
        table = {}
        for index, (layer, _module, owner, attribute, _kind) in enumerate(
            self.entry_points
        ):
            table[entry_name(owner, attribute)] = {
                "layer": layer,
                "calls": totals.calls[index],
                "self_s": totals.self_s[index],
                "total_s": totals.total_s[index],
                "returned": totals.returned[index],
            }
        return table

    def read_out(self):
        """Everything the run needs from the timer, JSON-ready."""
        return {
            phase: {
                "entries": self.entries(phase),
                "blocked_s": self.phases[phase].blocked_s,
            }
            for phase in PHASES
        }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(trace, perf, shard_stats, timed_wall, untraced_wall, ops_failed):
    """Derive the per-layer metric set from one traced rep.

    ``trace`` is :meth:`LayerTimer.read_out`; ``perf`` the summed
    ``engine.perf`` deltas of the timed phase; ``shard_stats`` the
    sharded branch's ``shard_stats`` (None when nothing ran sharded).
    Returns ``{name: (value, unit)}``.
    """
    timed = trace["timed"]["entries"]
    setup = trace["setup"]["entries"]

    def calls(entry):
        return timed[entry]["calls"]

    def self_s(*entries, table=timed):
        return sum(table[entry]["self_s"] for entry in entries)

    def layer_s(layer, table=timed):
        return sum(row["self_s"] for row in table.values() if row["layer"] == layer)

    events = perf["events_dispatched"]
    engine_s = self_s("Engine.step")
    kernel_calls = calls("Kernel.syscall_cost")
    kernel_s = layer_s("guest.kernel")
    scanned = perf["ksm_pages_scanned"]
    merges = timed["KsmDaemon._merge_buckets"]["returned"]
    ksm_s = layer_s("hypervisor.ksm")
    interns = calls("PageStore.intern")
    store_s = layer_s("hardware.page_store")
    pages = perf["migration_pages"]
    send_s = self_s("PreCopyMigration._send_pages")
    apply_s = self_s("MigrationDestination._apply_chunk")
    sync_s = self_s("DirtyTracker.sync")
    shared = perf["fork_pages_shared"]
    shard = shard_stats or {}
    shard_events = shard.get("branch_events", [])
    covered = sum(row["self_s"] for row in timed.values())

    metrics = {
        "sim.engine.events": (events, "count"),
        "sim.engine.processes_resumed": (perf["processes_resumed"], "count"),
        "sim.engine.self_s": (engine_s, "s"),
        "sim.engine.ns_per_event": (1e9 * _ratio(engine_s, events), "ns"),
        "guest.kernel.calls": (kernel_calls, "count"),
        "guest.kernel.self_s": (kernel_s, "s"),
        "guest.kernel.ns_per_call": (1e9 * _ratio(kernel_s, kernel_calls), "ns"),
        "hypervisor.kvm.exits_recorded": (calls("KvmVm.record_exit"), "count"),
        "hypervisor.kvm.self_s": (layer_s("hypervisor.kvm"), "s"),
        "hypervisor.ksm.wakes": (calls("KsmDaemon._wake"), "count"),
        "hypervisor.ksm.pages_scanned": (scanned, "count"),
        "hypervisor.ksm.merges": (merges, "count"),
        "hypervisor.ksm.merge_yield": (_ratio(merges, scanned), "ratio"),
        "hypervisor.ksm.self_s": (ksm_s, "s"),
        "hypervisor.ksm.ns_per_page": (1e9 * _ratio(ksm_s, scanned), "ns"),
        "hardware.memory.calls": (
            sum(row["calls"] for row in timed.values() if row["layer"] == "hardware.memory"),
            "count",
        ),
        "hardware.memory.self_s": (layer_s("hardware.memory"), "s"),
        "hardware.page_store.interns": (interns, "count"),
        "hardware.page_store.hits": (perf["page_store_hits"], "count"),
        "hardware.page_store.hit_ratio": (_ratio(perf["page_store_hits"], interns), "ratio"),
        "hardware.page_store.self_s": (store_s, "s"),
        "hardware.page_store.ns_per_intern": (1e9 * _ratio(store_s, interns), "ns"),
        "hardware.page_store.setup_self_s": (layer_s("hardware.page_store", setup), "s"),
        "migration.pages": (pages, "count"),
        "migration.chunks": (perf["migration_chunks"], "count"),
        "migration.send_s": (send_s, "s"),
        "migration.apply_s": (apply_s, "s"),
        "migration.dirty_sync_s": (sync_s, "s"),
        "migration.dirty_words_scanned": (perf["dirty_words_scanned"], "count"),
        "migration.ns_per_page": (1e9 * _ratio(send_s + apply_s + sync_s, pages), "ns"),
        "migration.dedup_ratio": (_ratio(perf["migration_pages_deduped"], pages), "ratio"),
        "migration.setup_self_s": (layer_s("migration", setup), "s"),
        "sim.snapshot.capture_s": (
            self_s("capture", table=setup) + self_s("capture"),
            "s",
        ),
        "sim.snapshot.forks": (calls("EngineSnapshot.fork"), "count"),
        "sim.snapshot.fork_s": (self_s("EngineSnapshot.fork"), "s"),
        "sim.snapshot.dispose_s": (self_s("Fork.dispose"), "s"),
        "sim.snapshot.pages_shared": (shared, "count"),
        "sim.snapshot.cow_breaks": (perf["fork_cow_breaks"], "count"),
        "sim.snapshot.cow_break_ratio": (_ratio(perf["fork_cow_breaks"], shared), "ratio"),
        "sim.shard.messages_sent": (shard.get("messages_sent", 0), "count"),
        "sim.shard.blocked_waits": (shard.get("blocked_waits", 0), "count"),
        "sim.shard.blocked_s": (trace["timed"]["blocked_s"], "s"),
        "sim.shard.ghosts_injected": (shard.get("ghosts_injected", 0), "count"),
        "sim.shard.event_imbalance": (
            _ratio(max(shard_events), sum(shard_events) / len(shard_events))
            if shard_events
            else 0.0,
            "ratio",
        ),
        "sim.shard.self_s": (layer_s("sim.shard"), "s"),
        "core.detection.self_s": (layer_s("core.detection"), "s"),
        "probes.runs": (calls("run_probe"), "count"),
        "probes.self_s": (layer_s("probes"), "s"),
        "cloud.placements": (perf["cloud_placements"], "count"),
        "cloud.migrations": (perf["cloud_migrations"], "count"),
        "cloud.self_s": (layer_s("cloud"), "s"),
        "cloud.setup_self_s": (layer_s("cloud", setup), "s"),
        "faults.injected": (perf["faults_injected"], "count"),
        "faults.recovered": (perf["faults_recovered"], "count"),
        "trace.coverage": (_ratio(covered, timed_wall), "ratio"),
        "trace.overhead_pct": (100.0 * (_ratio(timed_wall, untraced_wall) - 1.0), "%"),
        "checks.ops_failed": (ops_failed, "fraction"),
    }
    return metrics
