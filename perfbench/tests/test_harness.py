"""Tests for the benchmark harness itself (not for the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


CLOCK = FakeClock()


class Outer:
    def work(self, inner):
        CLOCK.spend(1.0)
        inner.middle()
        CLOCK.spend(5.0)
        return "outer"


class Inner:
    def middle(self):
        CLOCK.spend(2.0)
        self.leaf()
        CLOCK.spend(1.0)

    def leaf(self):
        CLOCK.spend(4.0)

    def steps(self):
        CLOCK.spend(2.0)
        received = yield "first"
        CLOCK.spend(3.0)
        self.leaf()
        try:
            yield received
        except KeyError:
            CLOCK.spend(0.5)
        return "done"


MODULE = __name__
SYNTHETIC = (
    ("outer", MODULE, "Outer", "work", "call"),
    ("inner", MODULE, "Inner", "middle", "call"),
    ("leaf", MODULE, "Inner", "leaf", "call"),
    ("gen", MODULE, "Inner", "steps", "gen"),
)


@pytest.fixture
def timer():
    CLOCK.now = 0.0
    timer = layers.LayerTimer(SYNTHETIC, clock=CLOCK)
    timer.phase = "timed"
    with timer:
        yield timer


def test_self_time_of_a_nested_call_tree(timer):
    assert Outer().work(Inner()) == "outer"
    entries = timer.entries("timed")
    assert entries["Outer.work"]["total_s"] == 13.0
    assert entries["Outer.work"]["self_s"] == 6.0
    assert entries["Inner.middle"]["self_s"] == 3.0
    assert entries["Inner.leaf"]["self_s"] == 4.0
    assert sum(row["self_s"] for row in entries.values()) == 13.0
    assert [entries[name]["calls"] for name in ("Outer.work", "Inner.middle", "Inner.leaf")] == [1, 1, 1]
    assert timer.entries("setup")["Outer.work"]["calls"] == 0


def test_generator_is_timed_per_resumption(timer):
    steps = Inner().steps()
    assert next(steps) == "first"
    CLOCK.spend(100.0)  # suspended in the event queue: nobody's time
    assert steps.send("second") == "second"
    CLOCK.spend(100.0)
    with pytest.raises(StopIteration) as stop:
        steps.throw(KeyError("delivered into the generator"))
    assert stop.value.value == "done"
    entries = timer.entries("timed")
    assert entries["Inner.steps"]["self_s"] == 2.0 + 3.0 + 0.5
    assert entries["Inner.steps"]["total_s"] == 2.0 + 3.0 + 4.0 + 0.5
    assert entries["Inner.steps"]["calls"] == 1
    assert entries["Inner.leaf"]["self_s"] == 4.0


def test_closing_a_suspended_generator_closes_the_inner_one(timer):
    steps = Inner().steps()
    next(steps)
    steps.close()
    assert timer.entries("timed")["Inner.steps"]["self_s"] == 2.0


def _current(entry_points):
    import importlib

    found = []
    for _layer, module, owner, attribute, _kind in entry_points:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        found.append(vars(target)[attribute])
    return found


def test_wrappers_fully_restored_after_a_traced_run():
    from repro.sim.engine import Engine

    before = _current(layers.ENTRY_POINTS)
    timer = layers.LayerTimer()
    with timer:
        assert all(
            getattr(now, "__wrapped__", None) is then
            for now, then in zip(_current(layers.ENTRY_POINTS), before)
        )
        timer.phase = "timed"
        engine = Engine()

        def ticks():
            for _ in range(3):
                yield engine.timeout(1.0)

        engine.run(engine.process(ticks()))
    assert all(now is then for now, then in zip(_current(layers.ENTRY_POINTS), before))
    assert timer.entries("timed")["Engine.step"]["calls"] == engine.perf.events_dispatched
    # Uninstalling twice is harmless.
    timer.uninstall()
    assert all(now is then for now, then in zip(_current(layers.ENTRY_POINTS), before))


def test_failed_install_restores_what_it_already_wrapped():
    broken = SYNTHETIC + (("missing", MODULE, "Inner", "no_such_method", "call"),)
    before = _current(SYNTHETIC)
    with pytest.raises(AttributeError):
        layers.LayerTimer(broken).install()
    assert _current(SYNTHETIC) == before


def _pinned_reps(workload):
    pins = run.load_pins()
    units = [
        {"unit": name, "fingerprint": copy.deepcopy(fingerprint), "problem": None}
        for name, fingerprint in pins[workload].items()
    ]
    return pins, [{"units": units}, {"units": copy.deepcopy(units)}]


def test_recorded_outputs_match_the_pins():
    pins, reps = _pinned_reps("detect_fig56")
    attempted, failures = run.score("detect_fig56", run.PINNED_SEED, reps, pins)
    assert (attempted, failures) == (4, [])


def test_a_wrong_pin_makes_ops_failed_nonzero():
    pins, reps = _pinned_reps("detect_fig56")
    pins["detect_fig56"]["nested"]["median_t2"] += 1e-9
    attempted, failures = run.score("detect_fig56", run.PINNED_SEED, reps, pins)
    assert [name for _rep, name, _why in failures] == ["nested", "nested"]
    assert len(failures) / attempted == 0.5
    # Off the pinned seed only the shape checks and rep agreement apply.
    assert run.score("detect_fig56", run.PINNED_SEED + 1, reps, pins)[1] == []


def test_reps_that_disagree_fail():
    pins, reps = _pinned_reps("fleet_fanout_4x12")
    sharded = next(unit for unit in reps[1]["units"] if unit["unit"] == "sharded")
    sharded["fingerprint"]["recall"] = 0.5
    attempted, failures = run.score("fleet_fanout_4x12", 7, reps, pins)
    assert attempted == 12
    assert failures == [(1, "sharded", "fingerprint differs between reps")]


def test_shape_problems_fail_on_any_seed():
    pins, reps = _pinned_reps("fleet_fanout_4x12")
    reps[0]["units"][0]["problem"] = "recall 0.0 on the attack branch"
    _attempted, failures = run.score("fleet_fanout_4x12", 7, reps, pins)
    assert failures == [(0, "catalog", "recall 0.0 on the attack branch")]


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {
            metric["name"]: metric["unit"] for metric in json.load(handle)["per_layer"]
        }
    trace = {
        phase: {
            "entries": {
                layers.entry_name(owner, attribute): {
                    "layer": layer, "calls": 0, "self_s": 0.0, "total_s": 0.0, "returned": 0
                }
                for layer, _module, owner, attribute, _kind in layers.ENTRY_POINTS
            },
            "blocked_s": 0.0,
        }
        for phase in layers.PHASES
    }
    perf = dict.fromkeys(
        ["events_dispatched", "processes_resumed", "ksm_pages_scanned", "page_store_hits",
         "migration_pages", "migration_chunks", "dirty_words_scanned",
         "migration_pages_deduped", "fork_pages_shared", "fork_cow_breaks",
         "cloud_placements", "cloud_migrations", "faults_injected", "faults_recovered"],
        0,
    )
    derived = layers.per_layer_metrics(trace, perf, None, 1.0, 1.0, 0.0)
    assert {name: unit for name, (_value, unit) in derived.items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect_fig56",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
