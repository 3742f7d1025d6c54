"""The observability layer: tracer, metrics, exporters, CLI wiring."""

import json
import re

import pytest

from repro import obs, scenarios
from repro.cli import main
from repro.core.detection.dedup_detector import DedupDetector
from repro.obs import trace as obs_trace
from repro.obs.export import chrome_trace, validate_trace
from repro.obs.metrics import Histogram, MetricRegistry
from repro.sim.engine import Engine


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Process-global obs config must never leak between tests."""
    obs.reset()
    yield
    obs.reset()


def run_detection(seed=11, nested=True, enable=True, pages=8):
    host, cloud, _ksm, _loc = scenarios.detection_setup(
        nested=nested, seed=seed
    )
    if enable:
        host.engine.tracer.enable()
    detector = DedupDetector(host, cloud, file_pages=pages)
    host.engine.run(host.engine.process(detector.run()))
    return host


# -- metrics ----------------------------------------------------------------


def test_counter_gauge_labels():
    registry = MetricRegistry()
    registry.counter("hits", vm="a").inc()
    registry.counter("hits", vm="a").inc(2)
    registry.counter("hits", vm="b").inc()
    registry.gauge("depth").set(3)
    dump = registry.as_dict()
    assert dump["hits{vm=a}"] == {"kind": "counter", "value": 3}
    assert dump["hits{vm=b}"]["value"] == 1
    assert dump["depth"] == {"kind": "gauge", "value": 3}


def test_histogram_log2_buckets():
    hist = Histogram()
    hist.record(0.0)  # dedicated zero bucket
    hist.record(0.3)  # (0.25, 0.5]
    hist.record(1.0)  # (0.5, 1]
    hist.record(380.0)  # (256, 512]
    assert hist.count == 4
    assert hist.total == pytest.approx(381.3)
    value = hist.as_value()
    assert value["buckets"]["le_0"] == 1
    assert value["buckets"]["le_0.5"] == 1
    assert value["buckets"]["le_1"] == 1
    assert value["buckets"]["le_512"] == 1
    # The quantile falls in the right bucket across 3 orders of magnitude.
    assert hist.quantile(0.99) == 512.0


def test_histogram_distinguishes_fault_classes():
    """The Fig 5/6 signal: ~0.25us private writes vs ~380us CoW breaks
    land in well-separated buckets."""
    hist = Histogram()
    hist.record_many([0.25] * 50)
    hist.record_many([380.0] * 50)
    assert hist.quantile(0.25) <= 0.25
    assert hist.quantile(0.75) == 512.0


def test_histogram_quantile_edges():
    hist = Histogram()
    # Empty histograms have no quantiles — None, never a guess.  The
    # emptiness check wins even over an out-of-range q.
    assert hist.quantile(0.5) is None
    assert hist.quantile(7.0) is None
    hist.record(3.0)  # single sample, lands in (2, 4]
    # Upper-bound biased: every quantile of a one-sample histogram is
    # that sample's bucket bound, including both extremes.
    assert hist.quantile(0.0) == 4.0
    assert hist.quantile(0.5) == 4.0
    assert hist.quantile(1.0) == 4.0
    with pytest.raises(ValueError):
        hist.quantile(-0.1)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_registry_values_by_name():
    registry = MetricRegistry()
    registry.counter("probe_s", tenant="t001").inc(2.5)
    registry.counter("probe_s", tenant="t000").inc(1.0)
    registry.counter("other").inc()
    values = registry.values("probe_s")
    assert values == [
        ((("tenant", "t000"),), 1.0),
        ((("tenant", "t001"),), 2.5),
    ]
    assert registry.values("absent") == []


def test_registry_deterministic_order():
    registry = MetricRegistry()
    registry.counter("z").inc()
    registry.counter("a", vm="x").inc()
    registry.gauge("m").set(1)
    assert [name for name, _ in registry] == sorted(
        name for name, _ in registry
    )
    assert "a{vm=x}" in registry.as_dict()


# -- tracer core ------------------------------------------------------------


def test_disabled_tracer_records_nothing():
    host = run_detection(enable=False)
    tracer = host.engine.tracer
    assert not tracer.enabled
    assert tracer.events() == []
    assert len(tracer.metrics) == 0


def test_enabled_tracer_captures_span_families():
    host = run_detection(enable=True)
    names = {event[1] for event in host.engine.tracer.events()}
    assert "ksm.pass" in names
    assert "vm_exit" in names
    assert {"detect.t0", "detect.t1", "detect.t2", "detect.run"} <= names
    metrics = host.engine.tracer.metrics.as_dict()
    assert metrics["detect.verdicts{verdict=nested}"]["value"] == 1
    assert metrics["detect.write_fault_us{phase=t1}"]["value"]["count"] == 8


def test_trace_determinism_same_seed_byte_identical():
    dumps = []
    for _ in range(2):
        host = run_detection(seed=23)
        trace = host.engine.tracer.to_chrome()
        dumps.append(json.dumps(trace, sort_keys=True))
        obs.reset()
    assert dumps[0] == dumps[1]


def test_wall_clock_excluded_by_default():
    host = run_detection()
    trace = host.engine.tracer.to_chrome()
    assert not any(
        "wall_ns" in event.get("args", {})
        for event in trace["traceEvents"]
    )
    walled = host.engine.tracer.to_chrome(include_wall=True)
    assert any(
        "wall_ns" in event.get("args", {})
        for event in walled["traceEvents"]
        if event["ph"] != "M"
    )


def test_ring_buffer_caps_and_counts_drops():
    engine = Engine()
    tracer = engine.tracer.enable(ring_capacity=10)
    for index in range(25):
        tracer.instant(f"e{index}", "test")
    events = tracer.events()
    assert len(events) == 10
    assert tracer.dropped_events == 15
    # Oldest dropped, newest kept.
    assert events[-1][1] == "e24"
    trace = chrome_trace([tracer])
    assert trace["otherData"]["dropped_events"] == 15


def test_ring_buffer_drops_exposed_as_gauge():
    engine = Engine()
    tracer = engine.tracer.enable(ring_capacity=4)
    for index in range(9):
        tracer.instant(f"e{index}", "test")
    tracer.flush()
    dump = tracer.metrics.as_dict()
    assert dump["trace.drops"] == {"kind": "gauge", "value": 5}
    # No drops → gauge reads zero rather than being absent, so a diff
    # of two metric dumps always has the key to compare.
    other = Engine().tracer.enable()
    other.instant("only", "test")
    other.flush()
    assert other.metrics.as_dict()["trace.drops"]["value"] == 0


def test_vm_exit_aggregation_flushes_deterministically(monkeypatch):
    monkeypatch.setattr(obs_trace, "EXIT_SAMPLE_INTERVAL", 4)
    engine = Engine()
    tracer = engine.tracer.enable()

    class Reason:
        def __init__(self, value):
            self.value = value

    timer = Reason("timer")
    for _ in range(10):
        tracer.vm_exit("vm0", timer, 2, 1)
    events = tracer.events()  # flushes the remainder
    exits = [e for e in events if e[1] == "vm_exit"]
    assert len(exits) == 3  # 4 + 4 + flush(2)
    assert sum(e[7]["count"] for e in exits) == 20
    assert (
        tracer.metrics.as_dict()["vm_exits{reason=timer,vm=vm0}"]["value"] == 20
    )


# -- export / validation ----------------------------------------------------


def test_chrome_trace_structure():
    engine = Engine()
    tracer = engine.tracer.enable()
    tracer.instant("marker", "test", track="a")
    tracer.complete("span", "test", 0.0, track="b", args={"k": 1})
    tracer.counter_sample("series", {"v": 2})
    trace = chrome_trace([tracer])
    by_phase = {}
    for event in trace["traceEvents"]:
        by_phase.setdefault(event["ph"], []).append(event)
    # One process_name + three thread_name metadata events.
    assert len(by_phase["M"]) == 4
    assert by_phase["i"][0]["s"] == "t"
    assert by_phase["X"][0]["args"] == {"k": 1}
    assert by_phase["C"][0]["args"] == {"v": 2}
    assert validate_trace(trace) == []


def test_chrome_trace_counter_tracks_with_labels():
    """Counter samples become ph=C events on their own named track, so
    Perfetto renders them as stacked area charts next to the spans."""
    engine = Engine()
    tracer = engine.tracer.enable()
    tracer.complete("work", "test", 0.0, track="spans")
    tracer.counter_sample(
        "queue", {"pending": 3, "depth": 2}, track="counters"
    )
    tracer.counter_sample("queue", {"pending": 1, "depth": 5}, track="counters")
    trace = chrome_trace([tracer])
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    assert [e["args"] for e in counters] == [
        {"pending": 3, "depth": 2},
        {"pending": 1, "depth": 5},
    ]
    # The counter track gets its own tid + thread_name metadata, distinct
    # from the span track.
    track_names = {
        e["args"]["name"]: e["tid"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert "counters" in track_names
    assert "spans" in track_names
    assert {e["tid"] for e in counters} == {track_names["counters"]}
    assert validate_trace(trace) == []


def test_validate_trace_catches_problems():
    assert validate_trace([]) != []
    bad = {
        "traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1},
            {"ph": "X", "name": "y", "pid": 1, "ts": -1, "dur": "no"},
            {"ph": "i", "pid": 1, "ts": 0},
        ]
    }
    problems = validate_trace(bad, require_names=["absent"])
    assert any("bad phase" in p for p in problems)
    assert any("bad ts" in p for p in problems)
    assert any("missing name" in p for p in problems)
    assert any("'absent'" in p for p in problems)


def test_validate_cli_prints_first_offending_event(tmp_path, capsys):
    from repro.obs import validate as validate_cli

    good = {
        "traceEvents": [
            {"ph": "i", "name": "ok", "pid": 1, "ts": 0.0, "s": "t"}
        ]
    }
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    assert validate_cli.main([str(path)]) == 0

    bad = dict(good)
    bad["traceEvents"] = good["traceEvents"] + [
        {"ph": "X", "name": "broken", "pid": 1, "ts": -5.0, "dur": 1.0}
    ]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert validate_cli.main([str(bad_path)]) == 1
    err = capsys.readouterr().err
    # The failure is actionable without opening the file: it names the
    # index and dumps the offending event itself.
    assert "first offending event traceEvents[1]" in err
    assert '"broken"' in err


def test_merged_export_assigns_pids():
    engines = [Engine(), Engine()]
    for index, engine in enumerate(engines):
        engine.tracer.label = f"host-{index}"
        engine.tracer.enable()
        engine.tracer.instant("tick", "test")
    trace = chrome_trace()  # registered order
    pids = {e["pid"] for e in trace["traceEvents"]}
    assert pids == {1, 2}
    names = [
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["name"] == "process_name"
    ]
    assert names == ["host-0", "host-1"]


# -- config reach-through ---------------------------------------------------


def test_configure_enables_new_engines():
    obs.configure(enabled=True, ring_capacity=100)
    engine = Engine()
    assert engine.tracer.enabled
    assert engine.tracer.ring_capacity == 100
    assert engine.tracer in obs.tracers()
    obs.reset()
    assert obs.tracers() == []
    assert not Engine().tracer.enabled


# -- perf counters ----------------------------------------------------------


def test_perf_snapshot_delta():
    engine = Engine()
    before = engine.perf.snapshot()
    engine.perf.events_dispatched += 5
    engine.perf.ksm_pages_scanned += 7
    delta = engine.perf.delta(before)
    assert delta["events_dispatched"] == 5
    assert delta["ksm_pages_scanned"] == 7
    assert delta["migration_pages"] == 0


# -- CLI wiring -------------------------------------------------------------


def _bundle(tmp_path, *argv):
    """Run ``repro --seed 11 --obs-out DIR <argv>``; returns DIR."""
    bundle = tmp_path / "obs"
    assert main(["--seed", "11", "--obs-out", str(bundle), *argv]) == 0
    return bundle


def test_cli_obs_out_writes_valid_trace(tmp_path, capsys):
    bundle = _bundle(tmp_path, "detect", "--pages", "8")
    captured = capsys.readouterr()
    assert "[obs] wrote" in captured.err
    assert "[obs]" not in captured.out
    assert sorted(p.name for p in bundle.iterdir()) == [
        "manifest.json",
        "metrics.json",
        "trace.json",
    ]
    trace = json.loads((bundle / "trace.json").read_text())
    problems = validate_trace(
        trace,
        require_names=["vm_exit", "ksm.pass", "migration.", "detect."],
    )
    assert problems == []
    # detect builds two engines: the clean and the compromised host.
    assert {e["pid"] for e in trace["traceEvents"]} == {1, 2}
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["argv"][-3:] == ["detect", "--pages", "8"]
    assert manifest["seed"] == 11
    rev = manifest["git_rev"]
    assert rev is None or re.fullmatch(r"[0-9a-f]{40}", rev)


def test_cli_obs_out_writes_metrics(tmp_path):
    bundle = _bundle(tmp_path, "detect", "--pages", "8")
    dump = json.loads((bundle / "metrics.json").read_text())
    for engine in dump.values():
        assert "detect.write_fault_us{phase=t1}" in engine["metrics"]
        assert "trace.drops" in engine["metrics"]
        # Perf counters appear once, under "perf", not mirrored as gauges.
        assert not any(name.startswith("perf.") for name in engine["metrics"])


def test_cli_perf_json(tmp_path):
    bundle = _bundle(tmp_path, "detect", "--pages", "8")
    dump = json.loads((bundle / "metrics.json").read_text())
    # One record per engine, in creation order: clean host, then nested.
    assert list(dump) == ["engine-0", "engine-1"]
    assert all(e["perf"]["events_dispatched"] > 0 for e in dump.values())


def test_cli_resets_obs_state(tmp_path):
    _bundle(tmp_path, "detect", "--pages", "8")
    assert obs.tracers() == []
    assert not obs.active_config().enabled


# -- fleet ------------------------------------------------------------------


def test_run_fleet_trace(tmp_path):
    from repro.cloud import run_fleet

    result = run_fleet(
        hosts=2,
        tenants=4,
        seed=42,
        churn_operations=0,
        rebalance_moves=0,
        campaigns=1,
        sweeps=1,
        file_pages=8,
        wait_seconds=10.0,
    )
    assert result.tracer.events() == []  # trace defaults off

    obs.reset()
    result = run_fleet(
        hosts=2,
        tenants=4,
        seed=42,
        churn_operations=0,
        rebalance_moves=0,
        campaigns=1,
        sweeps=1,
        file_pages=8,
        wait_seconds=10.0,
        trace=True,
    )
    names = {event[1] for event in result.tracer.events()}
    assert "fleet.place" in names
    assert "fleet.sweep" in names
    assert "detect.probe" in names
    path = tmp_path / "fleet.json"
    trace = result.write_trace(path)
    assert validate_trace(trace) == []
    assert path.exists()
