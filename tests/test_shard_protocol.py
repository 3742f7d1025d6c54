"""Protocol-level tests for `repro.sim.shard`.

These run real :class:`ShardRuntime` meshes — every replica its own
:class:`Engine` plus duplex pipes — inside threads of one process, so
the conservative-sync edge cases are exercised without the cost (or
nondeterminism surface) of a whole fleet:

* a cross-shard completion with local events just before, at and
  after its timestamp (the migration-in-flight case) neither deadlocks
  nor reorders against the serial interleaving;
* the horizon promise guard, self/unknown-owner misuse, peer death and
  error transport all fail loudly.

Fleet-scale differential pins live in ``test_fleet_sharded.py``.
"""

import threading

from multiprocessing import Pipe

import pytest

from repro.errors import MigrationError
from repro.sim.engine import Engine
from repro.sim.shard import (
    ShardError,
    ShardPlan,
    ShardRuntime,
    describe_error,
    rebuild_error,
)

pytestmark = pytest.mark.shard

#: Wall-clock ceiling for every blocking wait in these meshes: protocol
#: bugs should fail in seconds, not the production 120s.
TEST_RECV_TIMEOUT = 20.0


def mesh_conns(count):
    """Fully-connected duplex pipes; returns per-shard conns dicts."""
    conns = [dict() for _ in range(count)]
    for left in range(count):
        for right in range(left + 1, count):
            left_conn, right_conn = Pipe(duplex=True)
            conns[left][right] = left_conn
            conns[right][left] = right_conn
    return conns


def run_mesh(replicas):
    """Run one callable per shard in its own thread; returns results.

    Each replica callable receives ``(engine, runtime)`` with the
    runtime already installed as ``engine.governor``.  Any replica
    exception fails the whole mesh (re-raised in the caller).
    """
    conns = mesh_conns(len(replicas))
    results = [None] * len(replicas)
    errors = [None] * len(replicas)

    def worker(index, replica):
        engine = Engine()
        runtime = ShardRuntime(engine, index, conns[index])
        runtime.recv_timeout = TEST_RECV_TIMEOUT
        engine.governor = runtime
        try:
            results[index] = replica(engine, runtime)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors[index] = exc
            runtime.announce_failure(repr(exc))

    threads = [
        threading.Thread(target=worker, args=(index, replica), daemon=True)
        for index, replica in enumerate(replicas)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=TEST_RECV_TIMEOUT + 10.0)
        assert not thread.is_alive(), "mesh deadlocked (thread still alive)"
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def owner_replica(log, complete_at, value="page-stream-done"):
    """Shard 0: publish one owned operation completing at ``complete_at``."""

    def replica(engine, runtime):
        def owned_op():
            yield engine.timeout(complete_at)
            log.append(("owner-done", engine.now))
            return value

        def control():
            result = yield runtime.publish(
                ("mig", "t1"), engine.process(owned_op())
            )
            log.append(("owner-control", engine.now, result))

        process = engine.process(control())
        runtime.taint(process)
        engine.run(process)
        return runtime.finish("owner")

    return replica


def waiter_replica(log, local_times):
    """Shard 1: tick local timers while awaiting the remote completion."""

    def replica(engine, runtime):
        def ticker(at):
            yield engine.timeout(at)
            log.append(("tick", engine.now))

        for at in local_times:
            engine.process(ticker(at))

        def control():
            value = yield runtime.remote(("mig", "t1"), 0)
            log.append(("ghost", engine.now, value))

        process = engine.process(control())
        runtime.taint(process)
        engine.run(until=None)
        assert process.processed
        return runtime.finish("waiter")

    return replica


def serial_reference(complete_at, local_times, value="page-stream-done"):
    """The serial interleaving the waiter shard must reproduce."""
    engine = Engine()
    log = []

    def ticker(at):
        yield engine.timeout(at)
        log.append(("tick", engine.now))

    for at in local_times:
        engine.process(ticker(at))

    def completion():
        yield engine.timeout(complete_at)
        return value

    def control():
        got = yield engine.process(completion())
        log.append(("ghost", engine.now, got))

    engine.process(control())
    engine.run(until=None)
    return log


class TestCrossShardCompletion:
    def test_zero_lookahead_degenerate_matches_serial(self):
        # The ceiling adds no slack to the owner's horizon, so the ghost
        # must land exactly at its timestamp with same-time local events
        # ordered as the serial heap would.
        complete_at = 3.0
        local_times = [2.5, complete_at, 3.5]
        owner_log, waiter_log = [], []
        run_mesh(
            [
                owner_replica(owner_log, complete_at),
                waiter_replica(waiter_log, local_times),
            ]
        )
        assert waiter_log == serial_reference(complete_at, local_times)
        assert ("owner-done", complete_at) in owner_log

    def test_error_completion_rebuilds_peer_exception(self):
        def owner(engine, runtime):
            def failing_op():
                yield engine.timeout(1.0)
                raise MigrationError("uplink severed mid-stream")

            def control():
                try:
                    yield runtime.publish(
                        ("mig", "t9"), engine.process(failing_op())
                    )
                except MigrationError:
                    pass

            process = engine.process(control())
            runtime.taint(process)
            engine.run(process)
            return runtime.finish("owner")

        caught = []

        def waiter(engine, runtime):
            def control():
                try:
                    yield runtime.remote(("mig", "t9"), 0)
                except MigrationError as exc:
                    caught.append((engine.now, str(exc)))

            process = engine.process(control())
            runtime.taint(process)
            engine.run(until=None)
            assert process.processed
            return runtime.finish("waiter")

        run_mesh([owner, waiter])
        assert caught == [(1.0, "uplink severed mid-stream")]

    def test_fin_barrier_collects_digests_and_stats(self):
        def replica_for(index):
            def replica(engine, runtime):
                fins = runtime.finish(
                    f"digest-{index}", extra={"events_dispatched": 10 + index}
                )
                return fins, runtime.stats()

            return replica

        results = run_mesh([replica_for(0), replica_for(1), replica_for(2)])
        for index, (fins, stats) in enumerate(results):
            assert fins == {0: "digest-0", 1: "digest-1", 2: "digest-2"}
            assert stats["per_shard"] == {
                0: {"events_dispatched": 10},
                1: {"events_dispatched": 11},
                2: {"events_dispatched": 12},
            }
            assert stats["shard"] == index


class TestFailureModes:
    def test_peer_death_before_fin_raises_shard_error(self):
        def waiter(engine, runtime):
            def control():
                yield runtime.remote(("op",), 1)

            process = engine.process(control())
            runtime.taint(process)
            engine.run(until=None)

        def dying(engine, runtime):
            for conn in runtime.conns.values():
                conn.close()

        with pytest.raises(ShardError, match="peer died|pipe"):
            run_mesh([waiter, dying])

    def test_completion_below_advertised_horizon_raises(self):
        engine = Engine()
        runtime = ShardRuntime(engine, 0, {})
        runtime._hz_sent = 10.0
        with pytest.raises(ShardError, match="violates the advertised"):
            runtime._broadcast_done(("op",), True, None)

    def test_remote_to_self_and_unknown_owner_raise(self):
        engine = Engine()
        runtime = ShardRuntime(engine, 0, {})
        with pytest.raises(ShardError, match="cannot wait on itself"):
            runtime.remote(("op",), 0)
        with pytest.raises(ShardError, match="no pipe to shard"):
            runtime.remote(("op",), 3)

    def test_error_transport_round_trip(self):
        rebuilt = rebuild_error(describe_error(MigrationError("boom")))
        assert isinstance(rebuilt, MigrationError)
        assert str(rebuilt) == "boom"
        odd = rebuild_error(("ValueError", "not a repro error"))
        assert isinstance(odd, ShardError)


class TestShardPlan:
    def test_contiguous_cuts_sorted_names(self):
        names = [f"h{i:02d}" for i in reversed(range(16))]
        plan = ShardPlan.contiguous(names, 4)
        assert plan.shards == 4
        assert plan.groups == tuple(
            tuple(f"h{i:02d}" for i in range(start, start + 4))
            for start in (0, 4, 8, 12)
        )

    @pytest.mark.parametrize(
        "hosts, shards, sizes",
        [(12, 2, [6, 6]), (5, 2, [2, 3]), (6, 3, [2, 2, 2]), (7, 7, [1] * 7)],
        ids=["12-hosts-2-shards", "5-hosts-2-shards", "6-hosts-3-shards",
             "one-host-per-shard"],
    )
    def test_contiguous_cut_is_balanced(self, hosts, shards, sizes):
        # 12 hosts sit in racks of 4: the cut ignores racks, so two
        # shards get six hosts each rather than one and two racks.
        plan = ShardPlan.contiguous([f"h{i:02d}" for i in range(hosts)], shards)
        assert [len(group) for group in plan.groups] == sizes

    def test_owner_of_unknown_host_raises(self):
        plan = ShardPlan.contiguous(["h0", "h1"], 2)
        assert plan.owner_of("h0") == 0
        assert plan.owner_of("h1") == 1
        with pytest.raises(ShardError, match="in no shard group"):
            plan.owner_of("h9")

    @pytest.mark.parametrize("shards", [0, -1, True, 1.5, "2"])
    def test_non_positive_int_shards_rejected(self, shards):
        with pytest.raises(ShardError, match="positive integer"):
            ShardPlan.contiguous(["h0"], shards)

    def test_more_shards_than_hosts_rejected(self):
        with pytest.raises(ShardError, match="exceeds the fleet's 2 host"):
            ShardPlan.contiguous(["h0", "h1"], 3)

    def test_duplicate_host_rejected(self):
        with pytest.raises(ShardError, match="two shard groups"):
            ShardPlan([("h0",), ("h0",)])
        with pytest.raises(ShardError, match="two shard groups"):
            ShardPlan.contiguous(["h0", "h1", "h0"], 2)
