"""Sharded execution of a fleet control phase across worker processes.

:func:`run_control_sharded` is the one entry point: it takes a warmed
:class:`~repro.cloud.datacenter.Datacenter` plus a control-generator
factory, forks ``shards - 1`` workers (``os.fork`` — live generators,
heaps and RNG streams carry over verbatim), and runs one *replica* of
the control plane in every process:

* every replica executes the identical control generator — churn
  records, campaign target sampling, sweep scheduling, fault arming
  all replay byte-for-byte because they draw from the same forked RNG
  streams at the same virtual times;
* each replica *simulates* only the hosts its shard owns (a
  contiguous :class:`~repro.sim.shard.ShardPlan`): non-owned hosts'
  KSM daemons and tenant workloads are stopped right after the fork,
  so they generate no events;
* host-heavy operations (per-host monitoring sweeps, CloudSkulk
  installs) run on the owner only and their completions cross the
  mesh as timestamped messages; the other replicas wait on ghost
  events the shard governor fulfils at the recorded virtual time.

Every replica finishes by building the same result object and
exchanging a digest of its deterministic summary at the fin barrier —
a replica that diverged (a nondeterministic seam we missed) fails the
whole run loudly instead of silently desynchronizing.

A traced branch is refused before any worker forks: each worker would
hold only its own hosts' trace rows, so the run must be serial.
"""

import os
import sys
import traceback

from multiprocessing import Pipe

from repro.core.detection.service import HostSweepReport, TenantFinding
from repro.probes.base import Verdict
from repro.sim.shard import ShardError, ShardPlan, ShardRuntime


class GhostVm:
    """Stand-in for a nested VM another shard installed.

    A replica that does not own the compromised tenant's host never
    builds the real nested VM; the control plane only needs an object
    that survives host crash/recover choreography (pause/resume) and
    churn teardown (quit) without touching simulated state.
    """

    __slots__ = ("status", "paused")

    #: Control-plane code reads ``vm.guest`` only through locators,
    #: which never run on a non-owned host's replica.
    guest = None

    def __init__(self):
        self.status = "running"
        self.paused = False

    def pause(self):
        self.paused = True

    def resume(self):
        self.paused = False

    def quit(self):
        self.status = "terminated"

    def __repr__(self):
        return f"<GhostVm {self.status}>"


class ShardContext:
    """What the cloud seams see on ``datacenter.shard`` in a worker.

    Bundles the partition (:class:`ShardPlan`) with this worker's mesh
    runtime; the monitoring and campaign seams ask ``owns(host)`` and
    then either run the real operation (publishing its completion) or
    wait on a ghost.
    """

    def __init__(self, plan, runtime):
        self.plan = plan
        self.runtime = runtime
        self.index = runtime.index
        self._owned = set(plan.groups[runtime.index])

    def owns(self, host_name):
        return host_name in self._owned

    def owner_of(self, host_name):
        return self.plan.owner_of(host_name)

    def publish(self, key, event, transform=None):
        return self.runtime.publish(key, event, transform=transform)

    def remote(self, key, host_name):
        return self.runtime.remote(key, self.plan.owner_of(host_name))

    def begin(self, key=None):
        self.runtime.begin(key)

    def complete(self, key, value=None):
        self.runtime.complete(key, value)

    def complete_error(self, key, exc):
        self.runtime.complete_error(key, exc)

    def __repr__(self):
        return f"<ShardContext shard={self.index} of {self.plan!r}>"


def slim_sweep_report(report):
    """The wire form of a :class:`HostSweepReport`.

    Keeps exactly what the fleet layers read from a sweep — verdicts,
    per-probe ledger entries, timestamps, the VMCS scan outcome — and
    drops the rich attachments (DetectionReport, probe targets) that
    reference simulated objects and only exist on the owner.
    """
    slim = HostSweepReport(report.host_name)
    slim.started_at = report.started_at
    slim.finished_at = report.finished_at
    slim.vmcs_scan = report.vmcs_scan
    for finding in report.findings:
        ghost = TenantFinding(finding.tenant_name)
        ghost.verdict = finding.verdict
        for name, verdict in finding.probe_verdicts.items():
            clone = Verdict(verdict.probe, verdict.verdict, verdict.details)
            clone.started_at = verdict.started_at
            clone.finished_at = verdict.finished_at
            ghost.probe_verdicts[name] = clone
        slim.findings.append(ghost)
    return slim


def _freeze_foreign_hosts(datacenter, plan, index):
    """Stop simulating hosts this shard does not own.

    The control plane keeps its full replicated view of every host;
    only the event *sources* — KSM scan daemons and tenant workloads —
    are stopped, so a non-owned host contributes no simulation work.
    Their already-scheduled wakeups fire once as no-ops.
    """
    owned = set(plan.groups[index])
    for host_name in sorted(datacenter.hosts):
        if host_name in owned:
            continue
        host = datacenter.hosts[host_name]
        if host.ksm is not None:
            host.ksm.stop()
        for tenant_name in sorted(host.tenants):
            tenant = host.tenants[tenant_name]
            if tenant.workload is not None:
                tenant.workload.stop()


def _worker_conns(pipes, index):
    """Keep this worker's connection per peer; close every other fd.

    Closing the far ends matters: a peer that dies then surfaces as
    EOF/BrokenPipe on the survivors instead of an indefinite hang.
    """
    conns = {}
    for (left, right), (left_conn, right_conn) in pipes.items():
        if index == left:
            conns[right] = left_conn
            right_conn.close()
        elif index == right:
            conns[left] = right_conn
            left_conn.close()
        else:
            left_conn.close()
            right_conn.close()
    return conns


def _run_replica(datacenter, plan, conns, index, control_factory, finish, name):
    """One shard's whole life: freeze, run, digest, barrier."""
    engine = datacenter.engine
    runtime = ShardRuntime(engine, index, conns)
    context = ShardContext(plan, runtime)
    _freeze_foreign_hosts(datacenter, plan, index)
    datacenter.shard = context
    engine.governor = runtime
    try:
        control = engine.process(control_factory(), name=name)
        # Seed the send cone: every cross-shard broadcast descends from
        # this process's wait graph (see ShardRuntime.taint).
        runtime.taint(control)
        engine.run(control)
        result = finish()
        digest = result.summary() if hasattr(result, "summary") else repr(result)
        fins = runtime.finish(
            digest,
            extra={
                "events_dispatched": engine.perf.events_dispatched,
                "heap_pushes": engine.perf.heap_pushes,
                "hosts": len(plan.groups[index]),
            },
        )
        if index == 0:
            diverged = sorted(
                shard for shard, other in fins.items() if other != digest
            )
            if diverged:
                raise ShardError(
                    f"replica divergence: shard(s) {diverged} produced a "
                    "different run summary than shard 0 — the control plane "
                    "consumed nondeterministic state somewhere"
                )
        return result, runtime.stats()
    except BaseException:
        runtime.announce_failure(traceback.format_exc())
        raise
    finally:
        engine.governor = None
        datacenter.shard = None


def run_control_sharded(
    datacenter, control_factory, finish, shards, name="fleet-branch"
):
    """Run one control phase sharded ``shards`` ways; returns
    ``(result, stats)`` from shard 0's replica.

    ``control_factory`` builds the control generator (called once per
    replica, after the fork); ``finish`` builds the result object from
    the post-run world (called once per replica — its deterministic
    ``summary()`` doubles as the cross-replica divergence digest).
    The caller handles ``shards == 1`` itself (this function always
    forks).
    """
    plan = ShardPlan.contiguous(datacenter.hosts, shards)
    if shards < 2:
        raise ShardError("run_control_sharded needs shards >= 2")
    if datacenter.engine.tracer.enabled:
        raise ShardError("tracing a sharded branch is not supported; run it serial")
    pipes = {}
    for left in range(shards):
        for right in range(left + 1, shards):
            pipes[(left, right)] = Pipe(duplex=True)
    children = []
    try:
        for index in range(1, shards):
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    conns = _worker_conns(pipes, index)
                    _run_replica(
                        datacenter, plan, conns, index, control_factory,
                        finish, name,
                    )
                    status = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os._exit(status)
            children.append(pid)
        conns = _worker_conns(pipes, 0)
        result, stats = _run_replica(
            datacenter, plan, conns, 0, control_factory, finish, name
        )
    except BaseException:
        # Closing our pipe ends EOFs any still-blocked worker, so the
        # reap below cannot hang; worker exit codes are moot once the
        # parent replica already has the real failure in flight.
        _teardown_mesh(pipes, children)
        raise
    failures = _teardown_mesh(pipes, children)
    if failures:
        raise ShardError(
            f"shard worker(s) exited abnormally: {failures}; see "
            "stderr for the worker traceback"
        )
    return result, stats


def _teardown_mesh(pipes, children):
    """Close every pipe end and reap workers; returns abnormal exits."""
    for pair in pipes.values():
        for conn in pair:
            try:
                conn.close()
            except OSError:
                pass
    failures = []
    for pid in children:
        try:
            _pid, status = os.waitpid(pid, 0)
        except ChildProcessError:
            continue
        if status != 0:
            failures.append((pid, status))
    return failures
