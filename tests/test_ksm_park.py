"""Parked ksmd against polling ksmd: the oracle for the idle park.

An idle :class:`KsmDaemon` parks on one pending event until the memory
epochs move, instead of waking every ``sleep_millisecs`` only to find
nothing to do.  :class:`PollingKsmDaemon` below is the plain timer
chain it replaced.  Every case runs twice, once per daemon, and must
agree on the virtual clock, every daemon's :class:`KsmStats`, the
engine's ``ksm_passes`` / ``ksm_pages_scanned`` and the start and end
of every ``ksm.pass`` span.  Only the engine's work counters (events
dispatched, processes resumed, ...) may differ — that drop is the
point of parking.
"""

import pytest

from repro.cloud import inventory
from repro.cloud.fleet import run_fleet, warm_fleet
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.hardware.machine import Machine
from repro.hypervisor.ksm import KsmDaemon
from tests.fleet_helpers import fleet_fingerprint

#: A fleet small enough to run four times per test, large enough to
#: migrate, attack and sweep.
SMALL_FLEET = dict(
    hosts=3,
    tenants=6,
    churn_operations=2,
    rebalance_moves=1,
    campaigns=1,
    sweeps=1,
    file_pages=12,
    wait_seconds=10.0,
)


class PollingKsmDaemon(KsmDaemon):
    """ksmd as a plain timer chain: it wakes every ``sleep_millisecs``,
    idle or not, and never parks."""

    def _run(self, resuming=False):
        if resuming:
            yield
            if not self.running:
                return
            self._wake()
        while self.running:
            yield self.engine.timeout(self.sleep_seconds)
            if not self.running:
                return
            self._wake()


def _ksm_outcome(engine, daemons):
    """What parking must not change, for ``daemons`` on ``engine``."""
    spans = {}
    for event in engine.tracer.events():
        phase, name, _cat, track, start_us, dur_us = event[:6]
        if phase == "X" and name == "ksm.pass":
            spans.setdefault(track, []).append((start_us, start_us + dur_us))
    return {
        "now": engine.now,
        "stats": [vars(daemon.stats) for daemon in daemons],
        "ksm_passes": engine.perf.ksm_passes,
        "ksm_pages_scanned": engine.perf.ksm_pages_scanned,
        "spans": spans,
    }


def _fleet_outcome(result):
    datacenter = result.datacenter
    hosts = [datacenter.hosts[name] for name in sorted(datacenter.hosts)]
    daemons = [host.ksm for host in hosts if host.ksm is not None]
    outcome = _ksm_outcome(datacenter.engine, daemons)
    outcome["fleet"] = fleet_fingerprint(result)
    return outcome, datacenter.engine.perf.events_dispatched


def _polling_then_parked(monkeypatch, run):
    """``run(daemon_cls)`` once per daemon; returns both results."""
    results = []
    for cls in (PollingKsmDaemon, KsmDaemon):
        with monkeypatch.context() as patch:
            patch.setattr(inventory, "KsmDaemon", cls)
            results.append(run(cls))
    return results


def _assert_fleet_agrees(monkeypatch, run):
    (polling, polling_events), (parked, parked_events) = _polling_then_parked(
        monkeypatch, lambda _cls: _fleet_outcome(run())
    )
    assert parked["spans"], "the fleet ran no traced KSM pass"
    assert parked == polling
    assert parked_events < polling_events


@pytest.mark.parametrize("seed", [7, 42])
def test_seeded_fleet_parked_equals_polling(monkeypatch, seed):
    _assert_fleet_agrees(
        monkeypatch, lambda: run_fleet(seed=seed, trace=True, **SMALL_FLEET)
    )


def test_chaos_plan_parked_equals_polling(monkeypatch):
    # Two stalls (one of them swallowing the wake that memory activity
    # unparked), a crash with a long outage and one whose recovery lands
    # before the stopped loop's next wake, so ksmd restarts while its
    # old loop is still pending.
    plan = (
        FaultPlan()
        .ksm_stall(120.0, "#0", duration=40.0)
        .host_crash(170.0, "#1", duration=60.0)
        .ksm_stall(200.0, "#0", duration=30.0)
        .host_crash(250.0, "#2", duration=0.005)
    )
    stops, stalled = [], []
    real_stop = KsmDaemon.stop
    real_stalled = FaultInjector.ksm_stalled

    def stop(daemon):
        stops.append((type(daemon), daemon._parked is not None))
        real_stop(daemon)

    def ksm_stalled(injector, daemon):
        swallowed = real_stalled(injector, daemon)
        if swallowed:
            stalled.append(type(daemon))
        return swallowed

    monkeypatch.setattr(KsmDaemon, "stop", stop)
    monkeypatch.setattr(FaultInjector, "ksm_stalled", ksm_stalled)
    _assert_fleet_agrees(
        monkeypatch,
        lambda: run_fleet(seed=7, trace=True, faults=plan, **SMALL_FLEET),
    )
    # Both crashes stopped a parked daemon, and a stall swallowed at
    # least one wake of the parked run.
    assert stops.count((KsmDaemon, True)) == 2
    assert KsmDaemon in stalled


def test_branch_forked_while_parked_equals_polling(monkeypatch):
    def run():
        fleet = warm_fleet(
            seed=42,
            trace=True,
            settle_seconds=30.0,
            **{
                key: SMALL_FLEET[key]
                for key in ("hosts", "tenants", "churn_operations",
                            "rebalance_moves")
            },
        )
        daemons = [
            host.ksm for host in fleet.datacenter.hosts.values()
            if host.ksm is not None
        ]
        if type(daemons[0]) is KsmDaemon:
            assert any(daemon._parked is not None for daemon in daemons)
        with fleet:
            return fleet.branch(
                campaigns=1, sweeps=1, file_pages=12, wait_seconds=10.0
            )

    _assert_fleet_agrees(monkeypatch, run)


def _machine(cls, **ksm_params):
    machine = Machine(memory_mb=256, seed=7)
    machine.engine.tracer.enable()
    ksm = cls(machine, **ksm_params)
    return machine, ksm


@pytest.mark.parametrize("gap", [0.0, 0.005, 0.5])
def test_stop_while_parked_then_start(monkeypatch, gap):
    """``stop()`` releases the park to the next boundary; ``start()``
    after ``gap`` seconds — before that boundary (two loops, as with
    polling), at the same instant, or long after — then matches."""

    def run(cls):
        machine, ksm = _machine(cls, pages_to_scan=40)
        engine, memory = machine.engine, machine.memory
        ksm.start()
        for index in range(60):
            memory.allocate(b"page-%d" % (index % 12), mergeable=True)
        engine.run(until=3.0)
        assert ksm._idle
        if cls is KsmDaemon:
            assert ksm._parked is not None
        # Memory stays still until after the restart, so only stop()
        # can release the stopped loop.
        engine.call_at(3.2071, ksm.stop)
        engine.call_at(3.2071 + gap, ksm.start)
        engine.call_at(4.0, memory.allocate, b"page-1", True)
        engine.call_at(4.5, memory.allocate, b"late", True)
        engine.call_at(4.8, memory.allocate, b"late", True)
        engine.run(until=8.0)
        # And once more from outside the event loop.
        ksm.stop()
        memory.allocate(b"after-stop", True)
        memory.allocate(b"after-stop", True)
        engine.run(until=9.0)
        ksm.start()
        engine.run(until=12.0)
        return _ksm_outcome(engine, [ksm])

    polling, parked = _polling_then_parked(monkeypatch, run)
    assert parked["stats"][0]["pages_merged_total"] > 0
    assert parked == polling


def test_write_at_exactly_a_wake_boundary(monkeypatch):
    """The tie rule: a change at exactly a wake boundary is seen by the
    wake at that boundary.

    The writer runs the daemon's own 20 ms timer chain and starts first,
    so at every boundary its event is queued ahead of the polling
    daemon's timer: polling scans at the write's instant, and the
    parked daemon must wake at that same instant (``when == now``).
    """

    def run(cls):
        machine, ksm = _machine(cls, pages_to_scan=100)
        engine, memory = machine.engine, machine.memory
        target = memory.allocate(b"before", mergeable=True)
        memory.allocate(b"after", mergeable=True)
        written_at = []

        def writer():
            for tick in range(1, 200):
                yield engine.timeout(ksm.sleep_seconds)
                if tick == 150:
                    assert ksm._idle
                    if cls is KsmDaemon:
                        assert ksm._parked is not None
                    memory.write(target, b"after")
                    written_at.append(engine.now)

        engine.process(writer())
        ksm.start()
        engine.run(until=2.99)
        assert ksm.stats.pages_merged_total == 0
        engine.run(until=5.0)
        # The pass that saw the write started at the write's instant.
        pass_starts = [
            start for start, _end in
            _ksm_outcome(engine, [ksm])["spans"][ksm._trace_track]
        ]
        assert written_at[0] * 1e6 in pass_starts
        return _ksm_outcome(engine, [ksm])

    polling, parked = _polling_then_parked(monkeypatch, run)
    assert parked["stats"][0]["pages_merged_total"] == 1
    assert parked == polling
