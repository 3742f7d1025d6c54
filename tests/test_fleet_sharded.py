"""Differential pins: sharded fleet runs replay byte-for-byte.

Every test here runs the same seeded experiment serial (``shards=1``)
and sharded, then diffs the richest fingerprint we have —
:func:`~tests.fleet_helpers.fleet_fingerprint` covers verdicts,
latencies, campaign timestamps, sweep summaries, injections, and the
final inventory.  The edge cases target the protocol's hairiest seams:

* a CloudSkulk install whose victim host belongs to a *non-reporting*
  shard — the nested-VM migration is in flight on the owner while every
  other replica waits at the install ghost's horizon;
* an uplink partition fired mid-sweep on a host another shard owns —
  fault interrupts land while cross-shard sweep publishes are open;
* a traced sharded run, refused before any worker forks;
* ``shards`` validation (positive int, shards <= hosts).

Protocol-level timing cases live in ``test_shard_protocol.py``.
"""

import os

import pytest

from repro.cloud.fleet import run_fleet
from repro.faults.plan import FaultPlan
from repro.sim.shard import ShardError, ShardPlan
from tests.fleet_helpers import FLEET_4X12, fleet_fingerprint

pytestmark = pytest.mark.shard


def test_sharded_fleet_matches_serial():
    serial = fleet_fingerprint(run_fleet(**FLEET_4X12))
    for shards in (2, 4):
        sharded = run_fleet(shards=shards, **FLEET_4X12)
        assert fleet_fingerprint(sharded) == serial, f"shards={shards}"
        assert sharded.shard_stats is not None
        assert sharded.shard_stats["messages_sent"] > 0


def test_shards_1_is_the_serial_path():
    result = run_fleet(shards=1, **FLEET_4X12)
    assert result.shard_stats is None
    assert fleet_fingerprint(result) == fleet_fingerprint(
        run_fleet(**FLEET_4X12)
    )


def test_cross_boundary_install_migration():
    # At this seed the campaign's victim lands on h02 — owned by shard 1
    # under a 2-way split of 4 hosts.  The reporting replica (shard 0)
    # therefore waits at the install ghost while the owner streams the
    # nested-VM migration, which is exactly the in-flight-at-the-
    # boundary case; the ghost count proves the wait actually crossed.
    serial = run_fleet(**FLEET_4X12)
    victim_host = serial.campaign.events[0].host_name
    plan = ShardPlan.contiguous(serial.datacenter.hosts, 2)
    assert plan.owner_of(victim_host) != 0, (
        "seed drifted: the victim must live on a non-reporting shard "
        "for this test to exercise the cross-boundary install"
    )
    sharded = run_fleet(shards=2, **FLEET_4X12)
    assert fleet_fingerprint(sharded) == fleet_fingerprint(serial)
    assert sharded.shard_stats["ghosts_injected"] >= 1


@pytest.mark.chaos
def test_uplink_partition_mid_sweep_matches_serial():
    # The partition severs a shard-1-owned host's uplink while the fleet
    # sweep is mid-flight: probe processes die on the owner and surface
    # as unreachable findings in every replica's sweep report.  This is
    # the riskiest differential — fault interrupts land while
    # cross-shard publishes are open — so the whole injection record is
    # part of the diff.
    plan = FaultPlan()
    plan.partition(at=430.0, target="h03", duration=40.0)
    plan.partition(at=80.0, target="h02", duration=30.0)
    params = dict(FLEET_4X12, faults=plan)
    serial = run_fleet(**params)
    sharded = run_fleet(shards=2, **params)
    assert fleet_fingerprint(sharded) == fleet_fingerprint(serial)
    assert serial.injector.injections, "plan never fired — retime the test"


@pytest.mark.chaos
def test_mixed_chaos_sharded_matches_serial():
    from repro.faults.chaos import standard_mix_plan

    plan = standard_mix_plan("mixed", 42, faults=3, horizon=180.0)
    params = dict(FLEET_4X12, faults=plan)
    serial = run_fleet(**params)
    sharded = run_fleet(shards=2, **params)
    assert fleet_fingerprint(sharded) == fleet_fingerprint(serial)


def test_warm_fork_branches_sharded_and_serial_agree():
    from repro.cloud import warm_fleet

    branch = dict(
        campaigns=1, sweeps=1, file_pages=12, wait_seconds=10.0
    )
    with warm_fleet(
        hosts=4, tenants=12, seed=42, churn_operations=6, rebalance_moves=1
    ) as fleet:
        serial = fleet.branch(**branch)
        sharded = fleet.branch(shards=2, **branch)
        assert fleet_fingerprint(sharded) == fleet_fingerprint(serial)


def test_traced_sharded_run_raises_before_forking(monkeypatch):
    # Each worker would hold only its own hosts' trace rows, so a traced
    # branch is refused before any worker (and so any child) exists.
    def no_fork():
        raise AssertionError("a traced sharded branch forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ShardError, match="tracing a sharded branch"):
        run_fleet(shards=2, trace=True, **FLEET_4X12)


def test_more_shards_than_hosts_raises():
    with pytest.raises(ShardError, match="exceeds the fleet's"):
        run_fleet(
            hosts=2,
            tenants=4,
            seed=42,
            churn_operations=0,
            rebalance_moves=0,
            campaigns=0,
            sweeps=1,
            shards=3,
        )


def test_cli_rejects_non_positive_shards():
    import argparse

    from repro.matrix.cli import positive_int

    for bad in ("0", "-2", "nope"):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_int(bad)
    assert positive_int("4") == 4
