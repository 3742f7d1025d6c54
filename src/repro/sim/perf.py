"""Always-on performance counters for the simulation core.

The counters are *host-side* observability: they measure how much work
the Python simulation performs (events dispatched, heap pushes, pages
scanned), never virtual time.  They exist so perf regressions in the
hot paths — :meth:`repro.sim.engine.Engine.step`, the KSM scan loop,
the migration stream — are visible per run without a profiler, and so
``benchmarks/perf_report.py`` can record a trajectory for later PRs to
beat.

Incrementing a slotted int attribute costs a few tens of nanoseconds,
cheap enough to keep the counters unconditionally on.
"""


class PerfCounters:
    """Cheap always-on counters surfaced through ``Engine.perf``.

    Fields (all plain ints, reset with :meth:`reset`):

    * ``events_dispatched`` — events popped and processed by
      :meth:`Engine.step`;
    * ``heap_pushes`` — entries pushed onto the event heap;
    * ``processes_resumed`` — generator resumptions (``send``/``throw``)
      across all :class:`Process` instances;
    * ``immediate_resumes`` — resumptions delivered inline because the
      yielded event had already been processed (the queue-less path);
    * ``timer_fast_path`` — timeouts that fired with no waiter ever
      attached (their callback list was never materialized);
    * ``ksm_pages_scanned`` — pages examined by the KSM daemon;
    * ``ksm_passes`` — completed KSM full scans;
    * ``ksm_bucket_merges`` — digest buckets the KSM daemon merged as a
      group (each bucket covers one or more individual page merges);
    * ``page_store_interns`` — unique page contents interned into a
      :class:`repro.hardware.page_store.PageStore`;
    * ``page_store_hits`` — page-store interns satisfied by an existing
      record (content already resident, only a refcount bump);
    * ``dirty_words_scanned`` — 64-page bitmap words examined while
      draining guest dirty logs;
    * ``migration_chunks`` — RAM chunks sent by migration sources;
    * ``migration_pages`` — pages carried by those chunks;
    * ``migration_pages_deduped`` — pages shipped as digest-table
      references instead of full content (``dedup`` capability);
    * ``cloud_placements`` — tenant placement decisions by the fleet
      scheduler;
    * ``cloud_migrations`` — completed cross-host tenant migrations;
    * ``fleet_sweeps`` — fleet-wide monitoring sweeps completed;
    * ``fleet_detections`` — compromised-tenant verdicts across fleet
      sweeps (repeat detections of the same tenant count);
    * ``faults_injected`` — fault-plan injections performed by
      :class:`repro.faults.injector.FaultInjector` (skips not counted);
    * ``faults_recovered`` — fault recoveries (heals, crash restores,
      stall expiries) performed by the injector;
    * ``snapshot_captures`` — engine snapshots taken
      (:func:`repro.sim.snapshot.capture`);
    * ``engine_forks`` — independent branches forked off a snapshot
      (counted on the captured engine);
    * ``fork_pages_shared`` — interned page records a forked branch
      adopted by refcount instead of copying (counted on the branch);
    * ``fork_cow_breaks`` — branch writes that replaced a fork-shared
      page record on the written pfn, i.e. genuine copy-on-write
      divergence from the snapshot (counted on the branch).
    """

    __slots__ = (
        "events_dispatched",
        "heap_pushes",
        "processes_resumed",
        "immediate_resumes",
        "timer_fast_path",
        "ksm_pages_scanned",
        "ksm_passes",
        "ksm_bucket_merges",
        "page_store_interns",
        "page_store_hits",
        "dirty_words_scanned",
        "migration_chunks",
        "migration_pages",
        "migration_pages_deduped",
        "cloud_placements",
        "cloud_migrations",
        "fleet_sweeps",
        "fleet_detections",
        "faults_injected",
        "faults_recovered",
        "snapshot_captures",
        "engine_forks",
        "fork_pages_shared",
        "fork_cow_breaks",
    )

    def __init__(self):
        self.reset()

    def reset(self):
        """Zero every counter."""
        self.events_dispatched = 0
        self.heap_pushes = 0
        self.processes_resumed = 0
        self.immediate_resumes = 0
        self.timer_fast_path = 0
        self.ksm_pages_scanned = 0
        self.ksm_passes = 0
        self.ksm_bucket_merges = 0
        self.page_store_interns = 0
        self.page_store_hits = 0
        self.dirty_words_scanned = 0
        self.migration_chunks = 0
        self.migration_pages = 0
        self.migration_pages_deduped = 0
        self.cloud_placements = 0
        self.cloud_migrations = 0
        self.fleet_sweeps = 0
        self.fleet_detections = 0
        self.faults_injected = 0
        self.faults_recovered = 0
        self.snapshot_captures = 0
        self.engine_forks = 0
        self.fork_pages_shared = 0
        self.fork_cow_breaks = 0

    def as_dict(self):
        """Counters as a plain dict (the BENCH_core.json field order)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def snapshot(self):
        """Point-in-time copy of every counter (a plain dict).

        Pair with :meth:`delta` to report per-phase work instead of
        whole-run totals — benchmarks bracket a phase with
        ``before = perf.snapshot()`` / ``perf.delta(before)``, and the
        tracer's engine sampler emits exactly these deltas.
        """
        return {name: getattr(self, name) for name in self.__slots__}

    def delta(self, since):
        """Counter increments since a :meth:`snapshot` dict."""
        return {
            name: getattr(self, name) - since.get(name, 0)
            for name in self.__slots__
        }

    def __repr__(self):
        return (
            f"<PerfCounters events={self.events_dispatched} "
            f"resumes={self.processes_resumed} "
            f"ksm_scanned={self.ksm_pages_scanned}>"
        )
