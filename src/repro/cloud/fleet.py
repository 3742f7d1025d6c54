"""End-to-end fleet experiment: churn, rebalance, attack, sweep, score.

This is the cloud-scale version of the paper's experiment loop.  One
seeded run:

1. provisions ``tenants`` VMs across ``hosts`` lazily-booted hosts
   (placement exercises packing, anti-affinity, and KSM co-location);
2. applies a churn tail (create/stop/delete/resize);
3. rebalances with real cross-host live migrations;
4. injects CloudSkulk campaigns against sampled tenants;
5. fleet-sweeps under the detection budget and scores recall and
   detection latency against ground truth.

Steps 1-3 are the *warm-up* (:func:`warm_fleet`), steps 4-5 the
*branch* (:func:`_run_branch`); :data:`WARM_KEYS` and
:data:`BRANCH_KEYS` say which parameter feeds which.  A cold
:func:`run_fleet` is one warm-up followed by one branch on the same
engine; :func:`fan_out_jobs` warms once per distinct warm-up and forks
one branch per job.  Two runs with the same parameters produce
byte-identical summaries.
"""

import contextlib
import gc
import time

from repro.cloud.campaign import AttackCampaign
from repro.cloud.datacenter import Datacenter
from repro.errors import (
    CloudError,
    HypervisorError,
    MigrationError,
    RootkitError,
)
from repro.cloud.fleet_monitor import (
    FLEET_FILE_PAGES,
    FLEET_WAIT_SECONDS,
    FleetMonitor,
)
from repro.cloud.migration_orchestrator import MigrationOrchestrator
from repro.cloud.placement import BinPackingPlacer
from repro.cloud.tenants import TenantChurn

#: Errors a chaos-enabled run absorbs: the injected faults are
#: *supposed* to break control-plane steps — including the attacker's
#: own CloudSkulk install migration — and the report scores what
#: survived.  Fault-free runs keep the errors loud.
SURVIVABLE_ERRORS = (CloudError, HypervisorError, MigrationError, RootkitError)

#: Parameters of the shared warm-up prefix.  Jobs agreeing on all of
#: them replay byte-identical warm-ups, so :func:`fan_out_jobs` warms
#: once per distinct set and forks the rest.
WARM_KEYS = (
    "seed",
    "hosts",
    "tenants",
    "churn_operations",
    "rebalance_moves",
    "overcommit",
    "settle_seconds",
)

#: Parameters of the divergent branch phase (the :func:`_run_branch`
#: keywords a job or matrix spec may set).
BRANCH_KEYS = (
    "campaigns",
    "sweeps",
    "sweeps_per_hour",
    "max_concurrent_probes",
    "file_pages",
    "wait_seconds",
    "migration_mode",
    "migration_capabilities",
    "campaign_stream",
    "faults",
    "probes",
)


def split_params(params):
    """``(warm, branch)`` halves of one fleet parameter dict."""
    warm = {key: value for key, value in params.items() if key in WARM_KEYS}
    branch = {key: value for key, value in params.items() if key not in warm}
    return warm, branch


class FleetRunResult:
    """Everything one fleet run produced, with a deterministic summary."""

    def __init__(
        self,
        datacenter,
        placer,
        churn,
        orchestrator,
        monitor,
        campaign,
        injector=None,
    ):
        self.datacenter = datacenter
        self.placer = placer
        self.churn = churn
        self.orchestrator = orchestrator
        self.monitor = monitor
        self.campaign = campaign
        #: The armed FaultInjector when the run was chaos-enabled.
        self.injector = injector
        self.recall = 0.0
        self.detection_latencies = []
        #: Shard-0 protocol counters when the branch ran sharded
        #: (:mod:`repro.cloud.sharding`), else None.
        self.shard_stats = None
        #: Where the branch phase started — virtual time and a perf
        #: counter snapshot — and its wall-clock cost, so fan-out
        #: scorers can report branch-only work.
        self.branched_at = 0.0
        self.branch_perf = {}
        self.branch_wall_seconds = 0.0

    @property
    def tracer(self):
        """The fleet engine's tracer (fleet-wide trace + metrics)."""
        return self.datacenter.engine.tracer

    def write_trace(self, path, include_wall=False):
        """Export the fleet-wide Chrome/Perfetto trace to ``path``."""
        from repro.obs.export import write_chrome_trace

        return write_chrome_trace(
            path, tracers=[self.tracer], include_wall=include_wall
        )

    def probe_metrics(self, since_seconds=0.0):
        """Per-tenant detector probe time (the Fig 5/6 overhead axis).

        Sums each probe verdict's virtual span (``finished_at -
        started_at``) per tenant, over every sweep the monitor ran;
        crashed-host findings carry no verdicts and add nothing.  The
        window is relative to ``since_seconds`` — pass the warm-up's
        ``engine.now`` to scope a forked branch.  Spans add up per
        (tenant, probe) in sweep order and then per tenant in sorted
        probe order, so the numbers match the traced
        ``detect.probe_seconds`` counters bit for bit; ``math.fsum``
        keeps the total exact and order-independent.
        """
        import math

        spans = {}
        for report in self.monitor.reports:
            for host_report in report.host_reports.values():
                for finding in host_report.findings:
                    for probe, verdict in finding.probe_verdicts.items():
                        key = (probe, finding.tenant_name)
                        spans[key] = spans.get(key, 0) + (
                            verdict.finished_at - verdict.started_at
                        )
        probe_seconds = {}
        for (_probe, tenant), value in sorted(spans.items()):
            probe_seconds[tenant] = probe_seconds.get(tenant, 0.0) + value
        total = math.fsum(probe_seconds.values())
        window = self.datacenter.engine.now - since_seconds
        return {
            "window_virtual_seconds": window,
            "probe_seconds": probe_seconds,
            "probe_seconds_total": total,
            "probe_overhead_pct": (
                100.0 * total / window if window > 0 else 0.0
            ),
        }

    @property
    def detected_campaigns(self):
        return sum(1 for e in self.campaign.events if e.detected)

    def summary(self):
        dc = self.datacenter
        perf = dc.engine.perf
        lines = [
            f"fleet run: hosts={len(dc.hosts)} seed={dc.seed}",
            f"  virtual time     {dc.engine.now:.3f}s",
            f"  placements       {perf.cloud_placements}",
            f"  migrations       {perf.cloud_migrations}",
            f"  churn events     {len(self.churn.events)}",
            f"  tenants running  {len(dc.running_tenants())}",
            f"  fleet sweeps     {perf.fleet_sweeps}",
            f"  campaigns        {len(self.campaign.events)}",
            f"  detected         {self.detected_campaigns}"
            f" (recall {self.recall:.2f})",
        ]
        for event in self.campaign.events:
            latency = (
                f"{event.detection_latency:.3f}s"
                if event.detection_latency is not None
                else "n/a"
            )
            lines.append(
                f"  campaign         {event.tenant_name}@{event.host_name} "
                f"installed={event.installed_at:.3f}s latency={latency}"
            )
        for host_line in dc.inventory_lines():
            lines.append(f"  {host_line}")
        for report in self.monitor.reports:
            lines.append(report.summary())
        return "\n".join(lines)


def _run_branch(
    datacenter,
    placer,
    churn,
    orchestrator,
    faults=None,
    campaigns=1,
    sweeps=1,
    sweeps_per_hour=2.0,
    max_concurrent_probes=2,
    file_pages=FLEET_FILE_PAGES,
    wait_seconds=FLEET_WAIT_SECONDS,
    migration_mode="precopy",
    migration_capabilities=(),
    campaign_stream=None,
    probes=None,
    shards=1,
    injector=None,
):
    """The divergent suffix of a fleet experiment: attack, sweep, score.

    Runs against an already-warmed datacenter — either one forked off an
    :class:`~repro.sim.snapshot.EngineSnapshot` or a live fleet that
    just finished its warm-up.  ``faults`` arms a FaultPlan with the
    current virtual time as base, so plans written against t=0 play out
    relative to the branch point.  Returns a scored
    :class:`FleetRunResult`.

    ``shards > 1`` runs this branch sharded across worker processes
    (:mod:`repro.cloud.sharding`): hosts partition into contiguous
    groups, each worker simulates only its own hosts, and cross-shard
    sweep/install completions synchronize over pipes.  Same-seed
    results are fingerprint-identical to the serial path; ``shards=1``
    *is* the serial path, and a traced branch must use it.  ``injector`` passes a pre-armed FaultInjector (the
    cold ``run_fleet`` arms at t=0, before its warm phase) instead of
    arming ``faults`` here.
    """
    engine = datacenter.engine
    branched_at, branch_perf = engine.now, engine.perf.snapshot()
    started = time.perf_counter()
    if injector is None and faults is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(datacenter, faults).arm(base=engine.now)
    monitor = FleetMonitor(
        datacenter,
        sweeps_per_hour=sweeps_per_hour,
        max_concurrent_probes=max_concurrent_probes,
        file_pages=file_pages,
        wait_seconds=wait_seconds,
        probes=probes,
    )
    campaign = AttackCampaign(
        datacenter,
        count=campaigns,
        migration_mode=migration_mode,
        migration_capabilities=migration_capabilities,
        stream=campaign_stream,
    )

    def control():
        if campaigns:
            try:
                yield from campaign.run()
            except SURVIVABLE_ERRORS:
                if injector is None:
                    raise
        if sweeps:
            yield monitor.run_periodic(max_sweeps=sweeps)

    def finish():
        result = FleetRunResult(
            datacenter, placer, churn, orchestrator, monitor, campaign,
            injector=injector,
        )
        result.recall, result.detection_latencies = campaign.score(
            monitor.alerts
        )
        result.branched_at, result.branch_perf = branched_at, branch_perf
        result.branch_wall_seconds = time.perf_counter() - started
        return result

    if shards > 1:
        from repro.cloud.sharding import run_control_sharded

        result, shard_stats = run_control_sharded(
            datacenter, control, finish, shards, name="fleet-branch"
        )
        result.shard_stats = shard_stats
        return result

    engine.run(engine.process(control(), name="fleet-branch"))
    return finish()


def _warm(
    hosts, tenants, seed, churn_operations, rebalance_moves, overcommit,
    trace, faults=None,
):
    """Build a datacenter and run the warm-up prefix on it: provision,
    churn, rebalance.

    ``faults`` arms a FaultInjector at t=0, before the warm-up, so
    faults can land in provisioning too; each step then absorbs
    :data:`SURVIVABLE_ERRORS` so the run scores what survived.  Without
    faults every error stays loud.  Returns ``(live WarmFleet, injector
    or None)``.
    """
    datacenter = Datacenter(hosts=hosts, seed=seed, overcommit=overcommit)
    if trace:
        datacenter.engine.tracer.enable()
    injector = None
    if faults is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(datacenter, faults).arm()
    placer = BinPackingPlacer(datacenter)
    churn = TenantChurn(datacenter, placer)
    orchestrator = MigrationOrchestrator(datacenter)

    def control():
        steps = [churn.bring_up(tenants), churn.run(churn_operations)]
        if rebalance_moves:
            steps.append(orchestrator.rebalance(placer, moves=rebalance_moves))
        for step in steps:
            try:
                yield from step
            except SURVIVABLE_ERRORS:
                if injector is None:
                    raise

    engine = datacenter.engine
    engine.run(engine.process(control(), name="fleet-warm"))
    return WarmFleet(datacenter, placer, churn, orchestrator), injector


class WarmFleet:
    """A fleet that has paid its warm-up prefix once, ready to fan out.

    Produced by :func:`warm_fleet`.  When captured (the default), every
    :meth:`branch` call forks the snapshot into an independent engine —
    guest pages shared copy-on-write — runs the divergent suffix there,
    and disposes the fork's page references afterwards.  When built
    with ``capture=False`` the single live fleet *is* the branch
    substrate: exactly one branch may run (this is the cold comparator
    the determinism tests and benchmarks diff forked branches against).
    """

    def __init__(self, datacenter, placer, churn, orchestrator, snapshot=None):
        self.datacenter = datacenter
        self.placer = placer
        self.churn = churn
        self.orchestrator = orchestrator
        #: The EngineSnapshot, or None for a live (single-branch) fleet.
        self.snapshot = snapshot
        self._spent = False

    @property
    def engine(self):
        return self.datacenter.engine

    @contextlib.contextmanager
    def substrate(self):
        """The ``(datacenter, placer, churn, orchestrator)`` root one
        branch runs on: a fresh fork of the snapshot, disposed on exit,
        or — for a live fleet, exactly once — the fleet itself."""
        if self.snapshot is None:
            from repro.sim.snapshot import SnapshotError

            if self._spent:
                raise SnapshotError(
                    "live (uncaptured) warm fleet supports exactly one "
                    "branch; build with capture=True to fan out"
                )
            self._spent = True
            yield (self.datacenter, self.placer, self.churn, self.orchestrator)
            return
        fork = self.snapshot.fork()
        try:
            yield fork.root
        finally:
            fork.dispose()

    def branch(self, **branch_params):
        """Run one divergent branch; returns a scored FleetRunResult.

        Accepts the keywords of :func:`_run_branch` (the
        :data:`BRANCH_KEYS` plus ``shards`` and ``injector``).
        """
        with self.substrate() as root:
            return _run_branch(*root, **branch_params)

    def fan_out(self, branch_specs, score=None):
        """Run one branch per spec dict, serially, with GC kept off the
        warm baseline (see :func:`~repro.sim.snapshot.heap_frozen`).

        Returns ``score(index, result)`` per spec, in spec order —
        by default the FleetRunResult itself.  Scoring inside the loop
        lets each finished branch be collected before the next runs,
        which keeps N-branch loops at flat memory.
        """
        from repro.sim.snapshot import heap_frozen

        out = []
        with heap_frozen():
            for index, spec in enumerate(branch_specs):
                result = self.branch(**spec)
                out.append(result if score is None else score(index, result))
                del result
                gc.collect()
        return out

    def dispose(self):
        """Release the snapshot's page-store references."""
        if self.snapshot is not None:
            self.snapshot.dispose()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.dispose()
        return False

    def __repr__(self):
        mode = "live" if self.snapshot is None else repr(self.snapshot)
        return (
            f"<WarmFleet hosts={len(self.datacenter.hosts)} "
            f"seed={self.datacenter.seed} {mode}>"
        )


#: ``(fn, items)`` a forked :func:`fork_map` worker serves; set in
#: the worker only, by the pool initializer.
_worker_task = None


def _init_worker(fn, items):
    global _worker_task
    _worker_task = (fn, items)


def _run_task(index):
    fn, items = _worker_task
    return index, fn(items[index])


def fork_map(fn, items, processes):
    """``[fn(item) for item in items]`` across ``processes`` forked
    workers, results in ``items`` order.

    Workers inherit ``fn`` and ``items`` through fork — closures, fault
    plans and variants need not pickle; only indices go out and results
    come back.  One process (or one item) runs inline.
    """
    workers = min(processes or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    results = [None] * len(items)
    with multiprocessing.get_context("fork").Pool(
        workers, initializer=_init_worker, initargs=(fn, items)
    ) as pool:
        # imap_unordered for throughput; indexing re-imposes order.
        for index, value in pool.imap_unordered(_run_task, range(len(items))):
            results[index] = value
    return results


def group_by_warm(jobs):
    """``[(warm_params, [(key, branch_params), ...]), ...]`` for
    ``(key, params)`` jobs, groups and members in first-appearance
    order."""
    groups = {}
    for key, params in jobs:
        warm, branch = split_params(params)
        groups.setdefault(tuple(sorted(warm.items())), []).append((key, branch))
    return [(dict(warm), members) for warm, members in groups.items()]


def fan_out_jobs(
    jobs, score, processes=None, warm_fork=True, trace=False, keep_results=None
):
    """The fan-out executor: run ``(key, params)`` fleet jobs, paying
    each distinct warm-up once.

    ``params`` mixes :data:`WARM_KEYS` and :data:`BRANCH_KEYS`; jobs
    with equal warm halves form a warm group.  A group of several jobs
    captures its warm fleet and forks one branch per job; a lone job
    runs on the live fleet; ``warm_fork=False`` (the cold comparator)
    gives every job its own live warm-up.
    ``score(key, result)`` turns each FleetRunResult into its job's
    entry.

    ``processes > 1`` spreads (group, slice) units over forked workers:
    with at least as many groups as workers each unit is a whole group,
    otherwise each group is sliced round-robin so every worker gets
    work.  Every unit warms its own fleet — same-seed warm-ups are
    identical — so pooled entries equal serial ones.  ``keep_results``
    collects FleetRunResults on serial runs only.

    Returns ``(groups, entries)``: one record per warm group (seed, the
    other warm parameters, member keys, whether it forked, warm-up wall
    seconds) and the entries in ``jobs`` order.
    """
    groups = group_by_warm(jobs)
    workers = processes or 1
    slices = max(1, workers // max(1, len(groups)))
    units = [
        (number, members[start::slices])
        for number, (_warm, members) in enumerate(groups)
        for start in range(min(slices, len(members)))
    ]
    keep = keep_results if min(workers, len(units)) <= 1 else None

    def run_unit(unit):
        number, members = unit
        warm_wall, entries = 0.0, []
        for batch in [members] if warm_fork else [[job] for job in members]:

            def scored(index, result, batch=batch):
                if keep is not None:
                    keep.append(result)
                return score(batch[index][0], result)

            started = time.perf_counter()
            fleet = warm_fleet(
                capture=len(batch) > 1, trace=trace, **groups[number][0]
            )
            warm_wall += time.perf_counter() - started
            with fleet:
                entries += fleet.fan_out([b for _k, b in batch], score=scored)
        return warm_wall, entries

    warm_walls, by_key = [0.0] * len(groups), {}
    for (number, members), (warm_wall, entries) in zip(
        units, fork_map(run_unit, units, workers)
    ):
        warm_walls[number] += warm_wall
        by_key.update(zip((key for key, _b in members), entries))
    records = [
        {
            "seed": warm.get("seed", 1701),
            "warm_params": {
                k: v for k, v in sorted(warm.items()) if k != "seed"
            },
            "variants": [key for key, _branch in members],
            "forked": warm_fork and len(members) > 1,
            "warm_wall_seconds": round(wall, 3),
        }
        for (warm, members), wall in zip(groups, warm_walls)
    ]
    return records, [by_key[key] for key, _params in jobs]


def warm_fleet(
    hosts=8,
    tenants=64,
    seed=1701,
    churn_operations=24,
    rebalance_moves=2,
    overcommit=1.0,
    settle_seconds=0.0,
    capture=True,
    trace=False,
    label=None,
):
    """Pay the warm-up prefix once; returns a :class:`WarmFleet`.

    Runs the fault-free shared prefix of every fleet experiment —
    provision ``tenants`` across ``hosts``, apply the churn tail,
    rebalance — then optionally idles ``settle_seconds`` of virtual
    time so KSM converges, and (unless ``capture=False``) snapshots the
    whole world for copy-on-write fan-out.
    """
    fleet, _injector = _warm(
        hosts, tenants, seed, churn_operations, rebalance_moves, overcommit, trace
    )
    engine = fleet.engine
    if settle_seconds:
        engine.run(until=engine.now + settle_seconds)
    if capture:
        if label is None:
            label = f"fleet-{hosts}x{tenants}-s{seed}"
        fleet.snapshot = fleet.datacenter.snapshot(
            fleet.placer, fleet.churn, fleet.orchestrator, label=label
        )
    return fleet


def run_fleet(
    hosts=8,
    tenants=64,
    seed=1701,
    churn_operations=24,
    rebalance_moves=2,
    campaigns=1,
    sweeps=1,
    sweeps_per_hour=2.0,
    max_concurrent_probes=2,
    file_pages=FLEET_FILE_PAGES,
    wait_seconds=FLEET_WAIT_SECONDS,
    migration_mode="precopy",
    migration_capabilities=(),
    probes=None,
    overcommit=1.0,
    trace=False,
    faults=None,
    shards=1,
):
    """Run one complete fleet experiment; returns a FleetRunResult.

    A cold run is the warm-up of :func:`warm_fleet` (uncaptured)
    followed by one branch on the same engine.  ``shards > 1`` splits
    the branch (attack/sweep) phase across worker processes with
    contiguous host ownership and conservative virtual-time sync
    (:mod:`repro.cloud.sharding`); the warm-up runs serially first (its
    cross-host migrations need the whole fabric in one engine), and
    results stay fingerprint-identical to ``shards=1``.

    ``trace=True`` enables the fleet engine's tracer for the whole run
    (placements, churn-driven migrations, sweep waves, per-tenant
    probes); read it back via ``result.tracer`` or export with
    ``result.write_trace(path)``.

    ``faults`` takes a :class:`~repro.faults.plan.FaultPlan`; the plan
    is armed on the fleet engine before the warm-up starts, and
    control-plane failures the injected faults provoke (exhausted
    migration retries, campaigns with no reachable target) degrade the
    run instead of raising.  An empty plan leaves the run byte-identical
    to ``faults=None``.
    """
    params = locals()
    branch = {key: params[key] for key in BRANCH_KEYS if key in params}
    fleet, injector = _warm(
        hosts, tenants, seed, churn_operations, rebalance_moves, overcommit,
        trace, faults=faults,
    )
    return fleet.branch(shards=shards, injector=injector, **branch)
