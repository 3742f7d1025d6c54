"""Deterministic named RNG streams."""

from repro.sim.rng import RngRegistry


def test_same_seed_same_stream():
    a = RngRegistry(seed=7).stream("x")
    b = RngRegistry(seed=7).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_independent():
    registry = RngRegistry(seed=7)
    a = [registry.stream("a").random() for _ in range(5)]
    b = [registry.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random()
    b = RngRegistry(seed=2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    registry = RngRegistry()
    assert registry.stream("x") is registry.stream("x")


def test_adding_consumer_does_not_perturb_existing():
    r1 = RngRegistry(seed=3)
    first = [r1.stream("main").random() for _ in range(3)]
    r2 = RngRegistry(seed=3)
    r2.stream("newcomer").random()  # a consumer r1 never had
    second = [r2.stream("main").random() for _ in range(3)]
    assert first == second


def test_state_restore_round_trip():
    registry = RngRegistry(seed=9)
    registry.stream("a").random()  # "a" is mid-sequence at state time
    state = registry.state()
    expected_a = [registry.stream("a").random() for _ in range(5)]
    # "b" was unborn at state time: first materialized only now.
    expected_b = [registry.stream("b").random() for _ in range(5)]
    registry.restore(state)
    assert [registry.stream("a").random() for _ in range(5)] == expected_a
    # Derive-by-name preserved: restore dropped "b", so asking again
    # re-derives it from the root seed exactly as the first time.
    assert [registry.stream("b").random() for _ in range(5)] == expected_b


def test_state_restores_onto_fresh_registry():
    original = RngRegistry(seed=9)
    original.stream("x").random()
    state = original.state()
    clone = RngRegistry(seed=0).restore(state)
    assert clone.seed == 9
    assert clone.stream("x").random() == original.stream("x").random()
    # Streams neither registry has born yet still derive identically.
    assert clone.stream("y").random() == original.stream("y").random()


def test_gauss_jitter_floor():
    registry = RngRegistry(seed=11)
    samples = [registry.gauss_jitter("j", 1.0, 5.0) for _ in range(200)]
    assert min(samples) >= 0.1  # floored at 10% of the mean
    assert all(s > 0 for s in samples)


def test_gauss_jitter_centered():
    registry = RngRegistry(seed=11)
    samples = [registry.gauss_jitter("c", 100.0, 0.02) for _ in range(500)]
    mean = sum(samples) / len(samples)
    assert 99.0 < mean < 101.0


def test_page_bytes_deterministic_and_sized():
    a = RngRegistry(seed=5).page_bytes("page:1", length=48)
    b = RngRegistry(seed=5).page_bytes("page:1", length=48)
    c = RngRegistry(seed=5).page_bytes("page:2", length=48)
    assert a == b
    assert a != c
    assert len(a) == 48


def test_state_restore_round_trip_is_nestable():
    # A branch that restores a nested mark must come back to exactly
    # that mark, including streams born after it (dropped, re-derived).
    parent = RngRegistry(seed=21)
    parent.stream("flow").random()
    fork_point = parent.state()
    branch = RngRegistry(seed=0).restore(fork_point)
    inner_mark = branch.state()
    branch.stream("flow").random()
    branch.stream("branch-only").random()
    branch.restore(inner_mark)
    expected = [parent.stream("flow").random() for _ in range(4)]
    assert [branch.stream("flow").random() for _ in range(4)] == expected


def test_restore_inside_forked_branch_leaves_parent_stream_alone():
    # The fork-determinism property at the RNG layer: a forked engine
    # carries a deep-copied registry, so state()/restore() gymnastics
    # inside the branch never move the parent's live streams.
    from repro.hardware.machine import Machine
    from repro.sim.snapshot import capture

    machine = Machine(memory_mb=16, seed=33)
    parent_rng = machine.rng
    parent_rng.stream("campaign").random()
    mark = parent_rng.state()
    continuation = RngRegistry(seed=0).restore(mark)
    expected = [continuation.stream("campaign").random() for _ in range(4)]

    snapshot = capture(machine.engine, machine, label="rng-isolation")
    fork = snapshot.fork()
    fork_rng = fork.root.rng
    assert fork_rng is not parent_rng
    fork_rng.restore(mark)
    assert [fork_rng.stream("campaign").random() for _ in range(4)] == expected
    # Restore again inside the branch: replays again, still isolated.
    fork_rng.restore(mark)
    assert [fork_rng.stream("campaign").random() for _ in range(4)] == expected
    fork.dispose()
    snapshot.dispose()
    # The parent stream resumes from the mark as if the fork (and its
    # restores) never existed.
    assert [
        parent_rng.stream("campaign").random() for _ in range(4)
    ] == expected
