"""Trace analytics, run diffing, the bench ledger, and the obs CLI."""

import json
import math

import pytest

from repro import obs
from repro.cli import main
from repro.obs.analysis import (
    TraceAnalysis,
    analyze_trace,
    write_collapsed_stacks,
)
from repro.obs.history import (
    append_bench_history,
    bench_history_record,
    diff_history,
    diff_runs,
    flatten,
    format_diff,
    load_bench_history,
    write_diff_report,
)


@pytest.fixture(autouse=True)
def _obs_isolation():
    obs.reset()
    yield
    obs.reset()


# -- synthetic span trees ----------------------------------------------------


def _span(name, ts, dur, pid=1, tid=1, cat="test", args=None):
    event = {
        "ph": "X",
        "name": name,
        "cat": cat,
        "pid": pid,
        "tid": tid,
        "ts": ts,
        "dur": dur,
    }
    if args is not None:
        event["args"] = args
    return event


def _meta(pid, process=None, tid=None, track=None):
    if process is not None:
        return {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process},
        }
    return {
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "name": "thread_name",
        "args": {"name": track},
    }


def synthetic_trace():
    """outer(0..100) { mid(10..60) { leaf(20..40) }, tail(70..95) },
    in recording order (innermost spans complete first)."""
    return {
        "traceEvents": [
            _meta(1, process="engine-a"),
            _meta(1, tid=1, track="work"),
            _span("leaf", 20.0, 20.0),
            _span("mid", 10.0, 50.0),
            _span("tail", 70.0, 25.0),
            _span("outer", 0.0, 100.0),
            {"ph": "i", "name": "mark", "pid": 1, "tid": 1, "ts": 5.0, "s": "t"},
            {"ph": "C", "name": "q", "pid": 1, "tid": 2, "ts": 5.0, "args": {"v": 1}},
        ],
        "otherData": {"dropped_events": 3},
    }


def test_span_tree_nesting_and_self_time():
    analysis = TraceAnalysis(synthetic_trace())
    assert analysis.span_count == 4
    assert analysis.instant_counts == {"mark": 1}
    assert analysis.counter_samples == 1
    assert analysis.dropped_events == 3
    assert analysis.window_us == (0.0, 100.0)
    roots = analysis.tracks[("engine-a", "work")]
    assert [root.name for root in roots] == ["outer"]
    outer = roots[0]
    assert [child.name for child in outer.children] == ["mid", "tail"]
    mid = outer.children[0]
    assert [child.name for child in mid.children] == ["leaf"]
    assert [span.depth for span in outer.walk()] == [0, 1, 2, 1]
    # Self time = duration minus children, the profiler split.
    assert outer.self_us == pytest.approx(25.0)
    assert mid.self_us == pytest.approx(30.0)
    assert mid.children[0].self_us == pytest.approx(20.0)
    assert outer.end_us == 100.0


def test_rejects_non_trace_input():
    with pytest.raises(ValueError, match="traceEvents"):
        TraceAnalysis([1, 2, 3])
    with pytest.raises(ValueError, match="traceEvents"):
        TraceAnalysis({"entries": []})


def test_exact_twin_spans_nest_by_completion_order():
    """Two spans with identical (start, dur): recording is completion
    order, so the later-recorded one finished later — it is the parent."""
    trace = {
        "traceEvents": [
            _span("inner_done_first", 0.0, 10.0),
            _span("outer_done_last", 0.0, 10.0),
        ]
    }
    analysis = TraceAnalysis(trace)
    roots = next(iter(analysis.tracks.values()))
    assert [root.name for root in roots] == ["outer_done_last"]
    assert [c.name for c in roots[0].children] == ["inner_done_first"]
    # The outer twin is fully covered by its child: zero self time.
    assert roots[0].self_us == 0.0


def test_attribution_tracks_names_categories():
    att = TraceAnalysis(synthetic_trace()).attribution()
    track = att["by_track"]["engine-a/work"]
    assert track["spans"] == 4
    # Roots only — nested work is not double-counted.
    assert track["total_us"] == pytest.approx(100.0)
    # Children tile with gaps: self times sum back to the root total.
    assert track["self_us"] == pytest.approx(100.0)
    assert att["by_name"]["mid"] == {
        "count": 1,
        "total_us": pytest.approx(50.0),
        "self_us": pytest.approx(30.0),
    }
    assert att["by_category"]["test"]["count"] == 4
    assert att["by_category"]["test"]["self_us"] == pytest.approx(100.0)


def test_critical_path_descends_longest_child():
    analysis = TraceAnalysis(synthetic_trace())
    path = analysis.critical_path()
    assert path["track"] == "engine-a/work"
    assert path["total_us"] == pytest.approx(100.0)
    # mid (50us) beats tail (25us) at depth 1.
    assert [seg["name"] for seg in path["segments"]] == [
        "outer",
        "mid",
        "leaf",
    ]
    assert [seg["depth"] for seg in path["segments"]] == [0, 1, 2]
    # Track filtering: substring match, or None when nothing matches.
    assert analysis.critical_path(track="work")["track"] == "engine-a/work"
    assert analysis.critical_path(track="nonexistent") is None
    assert TraceAnalysis({"traceEvents": []}).critical_path() is None


def test_collapsed_stacks_self_time_in_virtual_ns():
    lines = TraceAnalysis(synthetic_trace()).collapsed_stacks()
    assert lines == [
        "engine-a;work;outer 25000",
        "engine-a;work;outer;mid 30000",
        "engine-a;work;outer;mid;leaf 20000",
        "engine-a;work;outer;tail 25000",
    ]


def test_write_collapsed_stacks_roundtrip(tmp_path):
    path = tmp_path / "flame.folded"
    count = write_collapsed_stacks(path, TraceAnalysis(synthetic_trace()))
    assert count == 4
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        stack, _, value = line.rpartition(" ")
        assert stack
        assert int(value) > 0  # integer virtual nanoseconds


# -- probe-overhead attribution ---------------------------------------------


def test_probe_overhead_buckets_by_tenant():
    trace = {
        "traceEvents": [
            _meta(1, process="host-0"),
            _meta(1, tid=1, track="detect"),
            _span("detect.run", 0.0, 5.0),
            _span("detect.probe", 0.0, 5.0, args={"tenant": "t000"}),
            _span("detect.run", 10.0, 7.0),
            _span("detect.probe", 10.0, 7.0, args={"tenant": "t001"}),
        ]
    }
    overhead = TraceAnalysis(trace).probe_overhead()
    assert overhead["source"] == "detect.probe"
    assert overhead["window_us"] == pytest.approx(17.0)
    assert overhead["tenants"]["t000"] == {
        "probes": 1,
        "probe_us": pytest.approx(5.0),
        "overhead_pct": pytest.approx(100.0 * 5.0 / 17.0),
    }
    assert overhead["tenants"]["t001"]["probe_us"] == pytest.approx(7.0)
    # Conservation: per-tenant buckets sum to the detector total.
    assert overhead["total_probe_us"] == overhead["detector_total_us"]
    assert overhead["total_probe_us"] == pytest.approx(12.0)
    assert overhead["overhead_pct"] == pytest.approx(100.0 * 12.0 / 17.0)


def test_probe_overhead_falls_back_to_detector_spans():
    trace = {
        "traceEvents": [
            _meta(2, process="clean guest"),
            _meta(2, tid=1, track="detect"),
            _span("detect.run", 0.0, 40.0, pid=2),
        ]
    }
    overhead = TraceAnalysis(trace).probe_overhead()
    assert overhead["source"] == "detect.run"
    assert list(overhead["tenants"]) == ["clean guest/detect"]
    assert overhead["total_probe_us"] == pytest.approx(40.0)
    assert overhead["detector_total_us"] == pytest.approx(40.0)


def test_probe_overhead_conserves_detector_time_in_fleet():
    """The ISSUE acceptance bar: per-tenant probe attribution sums to
    the scenario's total detector virtual time — *exactly*, because the
    probe span is bit-identical to the detect.run it wraps and fsum of
    the same multiset is correctly rounded regardless of grouping."""
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
        trace=True,
    )
    analysis = TraceAnalysis.from_tracers([result.tracer])
    overhead = analysis.probe_overhead()
    assert overhead["source"] == "detect.probe"
    assert len(overhead["tenants"]) == 4
    # Exact float equality, not approx: this is the conservation check.
    assert overhead["total_probe_us"] == overhead["detector_total_us"]
    assert overhead["total_probe_us"] > 0
    per_tenant = math.fsum(
        entry["probe_us"] for entry in overhead["tenants"].values()
    )
    assert per_tenant == overhead["total_probe_us"]
    # Cross-check against the verdict-derived view the matrix runner
    # uses: the same number, in seconds.
    metrics = result.probe_metrics()
    assert set(metrics["probe_seconds"]) == set(overhead["tenants"])
    assert metrics["probe_seconds_total"] * 1e6 == pytest.approx(
        overhead["total_probe_us"], rel=1e-9
    )


def _counter_probe_metrics(result, since_seconds=0.0):
    """The per-tenant probe time as the monitoring service counts it
    while tracing: the ``detect.probe_seconds`` counters."""
    window = result.datacenter.engine.now - since_seconds
    probe_seconds = {}
    for label_key, value in result.tracer.metrics.values("detect.probe_seconds"):
        tenant = dict(label_key)["tenant"]
        probe_seconds[tenant] = probe_seconds.get(tenant, 0.0) + value
    total = math.fsum(probe_seconds.values())
    return {
        "window_virtual_seconds": window,
        "probe_seconds": probe_seconds,
        "probe_seconds_total": total,
        "probe_overhead_pct": 100.0 * total / window,
    }


@pytest.mark.parametrize("probes", [None, "ksm_timing+vmi_invariance+dedup_spy"])
def test_probe_metrics_need_no_trace(probes):
    """Probe time comes from the sweep verdicts, so an untraced run
    reports exactly what the traced counters record."""
    from repro.cloud import run_fleet, warm_fleet

    params = dict(
        hosts=2, tenants=4, seed=7, churn_operations=0, rebalance_moves=0,
    )
    branch = dict(
        campaigns=1, sweeps=2, file_pages=8, wait_seconds=10.0, probes=probes
    )
    untraced = run_fleet(**params, **branch).probe_metrics()
    traced = run_fleet(trace=True, **params, **branch)
    assert untraced == traced.probe_metrics() == _counter_probe_metrics(traced)
    assert len(untraced["probe_seconds"]) == 4
    assert untraced["probe_overhead_pct"] > 0
    # A forked branch scopes the window to the branch.
    with warm_fleet(trace=True, **params) as fleet:
        forked = fleet.branch(**branch)
        since = forked.branched_at
        assert since > 0
        assert forked.probe_metrics(since) == _counter_probe_metrics(forked, since)


# -- run diffing -------------------------------------------------------------


def test_flatten_nested_documents():
    assert flatten({"a": {"b": 1}, "c": [2, {"d": "x"}], "e": None}) == {
        "a.b": 1,
        "c[0]": 2,
        "c[1].d": "x",
        "e": "null",
    }
    assert flatten(7) == {"": 7}


def test_diff_runs_clean_on_identical_documents():
    doc = {"x": 1.5, "nested": {"y": [1, 2]}, "s": "ok"}
    report = diff_runs(doc, json.loads(json.dumps(doc)))
    assert report["clean"]
    assert report["compared"] == 4
    assert report["regressions"] == []
    assert "clean: no regressions" in format_diff(report)


def test_diff_runs_thresholds_and_kinds():
    old = {"wall": 10.0, "zero": 0.0, "mode": "fast", "gone": 1}
    new = {"wall": 10.5, "zero": 0.2, "mode": "slow", "fresh": 2}
    # 5% drift passes a 10% threshold; the zero-baseline jump (infinite
    # relative drift, rel_pct=None) and the string flip never do.
    report = diff_runs(old, new, threshold_pct=10.0)
    assert not report["clean"]
    keys = {entry["key"]: entry for entry in report["regressions"]}
    assert "wall" not in keys
    assert keys["zero"]["rel_pct"] is None
    assert keys["mode"]["old"] == "fast"
    assert report["added"] == ["fresh"]
    assert report["removed"] == ["gone"]
    # Threshold 0 demands byte-identical numbers.
    strict = diff_runs(old, {**old, "wall": 10.0000001})
    assert [e["key"] for e in strict["regressions"]] == ["wall"]
    assert strict["regressions"][0]["rel_pct"] == pytest.approx(1e-6)


def test_write_diff_report(tmp_path):
    path = tmp_path / "diff.json"
    report = diff_runs({"a": 1}, {"a": 2})
    write_diff_report(path, report)
    assert json.loads(path.read_text())["regressions"][0]["key"] == "a"


def test_same_seed_summaries_are_byte_identical():
    """Two same-seed detection runs → byte-identical analysis summaries
    → a clean zero-threshold diff: the determinism bar `obs diff` holds
    CI to."""
    from repro import scenarios
    from repro.core.detection.dedup_detector import DedupDetector

    dumps = []
    summaries = []
    for _ in range(2):
        host, cloud, _ksm, _loc = scenarios.detection_setup(
            nested=True, seed=23
        )
        host.engine.tracer.enable()
        detector = DedupDetector(host, cloud, file_pages=8)
        host.engine.run(host.engine.process(detector.run()))
        summary = TraceAnalysis.from_tracers(
            [host.engine.tracer]
        ).summary()
        summaries.append(summary)
        dumps.append(json.dumps(summary, sort_keys=True))
        obs.reset()
    assert dumps[0] == dumps[1]
    report = diff_runs(summaries[0], summaries[1])
    assert report["clean"]
    assert report["compared"] > 50


# -- the bench-history ledger ------------------------------------------------


def _fake_report(wall):
    return {
        "fleet_sweep": {
            "wall_seconds": wall,
            "fingerprint_matches_baseline": True,
            "within_budget": True,
            "fingerprint": {"bulky": list(range(50))},
            "metrics": {"noise": 1},
        }
    }


def test_bench_history_record_condenses():
    record = bench_history_record(
        _fake_report(1.0), quick=True, timestamp="2026-08-08T00:00:00Z"
    )
    assert record["quick"] is True
    assert record["timestamp"] == "2026-08-08T00:00:00Z"
    entry = record["scenarios"]["fleet_sweep"]
    assert entry == {
        "wall_seconds": 1.0,
        "fingerprint_matches_baseline": True,
        "within_budget": True,
    }


def test_history_ledger_append_load_diff(tmp_path):
    ledger = tmp_path / "BENCH_history.jsonl"
    assert load_bench_history(ledger) == []
    assert diff_history(ledger) is None
    append_bench_history(
        ledger,
        bench_history_record(
            _fake_report(1.0), timestamp="2026-08-08T00:00:00Z"
        ),
    )
    assert diff_history(ledger) is None  # one record: nothing to diff
    append_bench_history(
        ledger,
        bench_history_record(
            _fake_report(1.3), timestamp="2026-08-08T01:00:00Z"
        ),
    )
    records = load_bench_history(ledger)
    assert len(records) == 2
    # +30% wall regresses at the default loose threshold...
    report = diff_history(ledger)
    assert not report["clean"]
    assert report["regressions"][0]["key"] == "fleet_sweep.wall_seconds"
    assert report["old"] == "2026-08-08T00:00:00Z"
    # ...and passes a looser one.
    assert diff_history(ledger, threshold_pct=50.0)["clean"]


# -- CLI ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_artifacts(tmp_path_factory):
    """One traced detection run's bundle, shared by the CLI tests
    (read-only)."""
    bundle = tmp_path_factory.mktemp("obs_cli") / "bundle"
    status = main(
        ["--seed", "17", "--obs-out", str(bundle), "detect", "--pages", "8"]
    )
    assert status == 0
    return bundle / "trace.json", bundle / "metrics.json"


def test_cli_obs_report_text_and_json(traced_artifacts, tmp_path, capsys):
    trace, metrics = traced_artifacts
    summary_path = tmp_path / "summary.json"
    status = main(["obs", "report", str(trace), "--json", str(summary_path)])
    assert status == 0
    out = capsys.readouterr().out
    assert "top span names by self time" in out
    assert "probe overhead" in out
    summary = json.loads(summary_path.read_text())
    assert summary["events"]["spans"] > 0
    assert "attribution" in summary
    # The bundle's metrics.json rides along in the summary, so one file
    # diffs both surfaces.
    assert summary["metrics"] == json.loads(metrics.read_text())
    # detect has no per-tenant probes: the fallback attribution kicks in.
    assert summary["probe_overhead"]["source"] == "detect.run"


def test_cli_obs_diff_exit_codes(traced_artifacts, tmp_path, capsys):
    trace, _metrics = traced_artifacts
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["obs", "report", str(trace), "--json", str(a)]) == 0
    summary = json.loads(a.read_text())
    b.write_text(json.dumps(summary))
    capsys.readouterr()
    # Identical summaries: clean, exit 0.
    assert main(["obs", "diff", str(a), str(b)]) == 0
    assert "clean: no regressions" in capsys.readouterr().out
    # Perturb one number: dirty, exit 1, report written.
    summary["events"]["spans"] += 1
    b.write_text(json.dumps(summary))
    report_path = tmp_path / "report.json"
    status = main(
        ["obs", "diff", str(a), str(b), "--report-out", str(report_path)]
    )
    assert status == 1
    assert "REGRESSION events.spans" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["clean"] is False
    # Usage error: no files and no --history.
    assert main(["obs", "diff"]) == 2


def test_cli_obs_diff_accepts_raw_traces(traced_artifacts, capsys):
    """Diffing two trace files directly summarizes each on the fly."""
    trace, _metrics = traced_artifacts
    assert main(["obs", "diff", str(trace), str(trace)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_obs_diff_history(tmp_path, capsys):
    ledger = tmp_path / "history.jsonl"
    assert main(["obs", "diff", "--history", str(ledger)]) == 2
    for wall, stamp in ((1.0, "t0"), (1.4, "t1")):
        append_bench_history(
            ledger, bench_history_record(_fake_report(wall), timestamp=stamp)
        )
    capsys.readouterr()
    assert (
        main(["obs", "diff", "--history", str(ledger), "--threshold", "10"])
        == 1
    )
    assert "REGRESSION" in capsys.readouterr().out
    assert (
        main(["obs", "diff", "--history", str(ledger), "--threshold", "100"])
        == 0
    )


def test_cli_obs_flame(traced_artifacts, tmp_path, capsys):
    trace, _metrics = traced_artifacts
    folded = tmp_path / "out.folded"
    assert main(["obs", "flame", str(trace), "-o", str(folded)]) == 0
    lines = folded.read_text().splitlines()
    assert lines == sorted(lines)
    assert any("detect.run" in line for line in lines)
    for line in lines:
        assert int(line.rpartition(" ")[2]) > 0
    capsys.readouterr()
    # Without -o the stacks go to stdout.
    assert main(["obs", "flame", str(trace)]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_cli_obs_critical_path(traced_artifacts, tmp_path, capsys):
    trace, _metrics = traced_artifacts
    assert main(["obs", "critical-path", str(trace)]) == 0
    assert "critical path [" in capsys.readouterr().out
    assert main(["obs", "critical-path", str(trace), "--json"]) == 0
    path = json.loads(capsys.readouterr().out)
    assert path["segments"][0]["depth"] == 0
    # A trace with no spans has no critical path: exit 1.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"traceEvents": []}))
    assert main(["obs", "critical-path", str(empty)]) == 1


def test_analyze_trace_reads_files(traced_artifacts):
    trace, _metrics = traced_artifacts
    analysis = analyze_trace(trace)
    assert analysis.span_count > 0
    assert analysis.format(top=3)


# -- matrix per-variant metrics -----------------------------------------------


CAPTURE_SPEC = """\
name = capture
seed = 11
hosts = 3
tenants = 6
churn_operations = 2
rebalance_moves = 1
campaigns = 1
sweeps = 1
wait_seconds = 6.0

[axis probe]
shallow: file_pages = 8
deep:    file_pages = 16
"""


def test_matrix_metrics_ride_outside_canonical_json():
    from repro.matrix import MatrixRunner, MatrixSpec

    spec = MatrixSpec.loads(CAPTURE_SPEC)
    report = MatrixRunner(spec).run()
    metrics = report.variant_metrics()
    assert set(metrics) == {"probe=shallow", "probe=deep"}
    for entry in metrics.values():
        assert entry["window_virtual_seconds"] > 0
        assert entry["probe_seconds"]  # per-tenant buckets present
        assert entry["probe_seconds_total"] == pytest.approx(
            math.fsum(entry["probe_seconds"].values())
        )
        assert entry["probe_overhead_pct"] > 0
    # Canonical JSON (the pinned surface) excludes the metrics, like
    # wall clocks; the timing form keeps them.
    assert '"metrics"' not in report.to_json()
    assert '"metrics"' in report.to_json(include_timing=True)
    # The budget gate: everything violates 0%, nothing violates 1000%.
    violations = report.probe_budget_violations(0.0)
    assert [v for v, _pct in violations] == sorted(
        metrics, key=lambda v: (-metrics[v]["probe_overhead_pct"], v)
    )
    assert report.probe_budget_violations(1000.0) == []
