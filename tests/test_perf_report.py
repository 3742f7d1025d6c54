"""The bench harness itself (benchmarks/perf_report.py), without simulation.

Legs are stubs and the clean-room ``measure`` is replaced by canned leg
records, so these tests exercise only the table, the runner's repeat
policy, the gate evaluator and the exit status.
"""

import importlib.util
import os
import types

import pytest

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "perf_report.py",
)

FINGERPRINT = {"verdict": "nested", "virtual_now": 12.5}


@pytest.fixture(scope="module")
def perf_report():
    spec = importlib.util.spec_from_file_location("perf_report", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _leg(wall, fingerprint=FINGERPRINT, **extras):
    return {"wall": wall, "fingerprint": fingerprint, "perf_counters": {}, "extras": extras}


def _stub_entry(perf_report):
    """One gate of each kind, all passing on :func:`_good_legs`."""
    Gate = perf_report.Gate
    return perf_report.Entry(
        "stub_entry",
        {"fast": None, "slow": None},
        primary="fast",
        same=(("fast", "slow", "fingerprint"),),
        gates=(
            Gate("wall_speedup", "slow", "fast", ">=", 2.0),
            Gate("message_budget", "fast.messages", None, "<=", 20),
            Gate("event_speedup", "slow.events", "fast.events", ">=", 2.0),
        ),
    )


def _good_legs():
    return {"fast": _leg(1.0, messages=10, events=100), "slow": _leg(3.0, events=300)}


def _run_main(perf_report, monkeypatch, tmp_path, legs, baseline_fingerprint=FINGERPRINT):
    entry = _stub_entry(perf_report)
    monkeypatch.setattr(perf_report, "ENTRIES", {entry.name: entry})
    monkeypatch.setattr(perf_report, "measure", lambda _entry: legs)
    monkeypatch.setattr(
        perf_report,
        "load_baseline",
        lambda: {entry.name: {"fingerprint": baseline_fingerprint}},
    )
    return perf_report.main(["-o", str(tmp_path / "report.json"), "--no-history"])


def test_all_gates_passing_exits_zero(perf_report, monkeypatch, tmp_path, capsys):
    assert _run_main(perf_report, monkeypatch, tmp_path, _good_legs()) == 0
    out = capsys.readouterr().out
    assert "FAILED" not in out
    assert "fingerprint match" in out


@pytest.mark.parametrize(
    "gate, leg, change",
    [
        ("wall_speedup", "slow", {"wall": 1.5}),
        ("message_budget", "fast", {"extras": {"messages": 50, "events": 100}}),
        ("event_speedup", "fast", {"extras": {"messages": 10, "events": 200}}),
    ],
)
def test_missed_gate_of_each_kind_fails_the_run(
    perf_report, monkeypatch, tmp_path, capsys, gate, leg, change
):
    legs = _good_legs()
    legs[leg].update(change)
    assert _run_main(perf_report, monkeypatch, tmp_path, legs) == 1
    assert f"FAILED stub_entry: gate {gate}" in capsys.readouterr().out


def test_baseline_fingerprint_mismatch_fails_the_run(perf_report, monkeypatch, tmp_path, capsys):
    status = _run_main(
        perf_report, monkeypatch, tmp_path, _good_legs(), baseline_fingerprint={"verdict": "clean"}
    )
    assert status == 1
    assert "FAILED stub_entry: fingerprint mismatch" in capsys.readouterr().out


def test_legs_that_differ_fail_the_run(perf_report, monkeypatch, tmp_path, capsys):
    legs = _good_legs()
    legs["slow"]["fingerprint"] = {"verdict": "clean", "virtual_now": 12.5}
    assert _run_main(perf_report, monkeypatch, tmp_path, legs) == 1
    assert "FAILED stub_entry: fingerprint mismatch" in capsys.readouterr().out


def test_gate_on_an_unreported_extra_names_the_entry(perf_report):
    legs = _good_legs()
    del legs["fast"]["extras"]["messages"]
    baseline = {"stub_entry": {"fingerprint": FINGERPRINT}}
    with pytest.raises(KeyError, match="stub_entry"):
        perf_report.evaluate(_stub_entry(perf_report), legs, baseline)


def test_run_entry_interleaves_repeats_and_keeps_the_minimum(perf_report, monkeypatch):
    calls = []
    # Start/stop stamps for a, b, a, b: walls 5, 1, 2, 4.
    clock = iter([0, 5, 10, 11, 20, 22, 30, 34])
    monkeypatch.setattr(perf_report, "time", types.SimpleNamespace(perf_counter=clock.__next__))

    def leg(name):
        def run(_ctx):
            calls.append(name)
            return FINGERPRINT, {}, {}

        return run

    entry = perf_report.Entry("stub_entry", {"a": leg("a"), "b": leg("b")}, primary="a")
    legs = perf_report.run_entry(entry)
    assert calls == ["a", "b", "a", "b"]
    assert {name: leg["wall"] for name, leg in legs.items()} == {"a": 2, "b": 1}


def test_repeat_fingerprints_that_differ_raise(perf_report):
    runs = iter(range(10))

    def flaky(_ctx):
        return {"virtual_now": next(runs)}, {}, {}

    with pytest.raises(AssertionError, match="differs between repeats"):
        perf_report.run_entry(perf_report.Entry("flaky_entry", {"run": flaky}))


def test_every_entry_is_pinned_and_its_gates_name_its_legs(perf_report):
    baseline = perf_report.load_baseline()
    assert len(perf_report.ENTRIES) == 11
    for name, entry in perf_report.ENTRIES.items():
        assert entry.name == name
        assert (entry.baseline or name) in baseline, name
        assert entry.primary in entry.legs, name
        for left, right, field in entry.same:
            assert {left, right} <= set(entry.legs), name
            assert field in ("fingerprint", "perf_counters"), name
        for gate in entry.gates:
            assert gate.op in perf_report._OPS, (name, gate.name)
            for ref in (gate.num, gate.den):
                if ref is not None:
                    assert ref.partition(".")[0] in entry.legs, (name, gate.name)


def test_ledger_condenses_the_entry_shape(perf_report):
    baseline = {"stub_entry": {"fingerprint": FINGERPRINT}}
    entry = perf_report.evaluate(_stub_entry(perf_report), _good_legs(), baseline)
    # Walls are compared leg to leg within the run, never to a pinned wall.
    assert not {"baseline_wall_seconds", "improvement_pct"} & set(entry)
    record = perf_report.bench_history_record({"stub_entry": entry}, timestamp="t")
    assert record["scenarios"]["stub_entry"] == {
        "wall_seconds": 1.0,
        "within_budget": True,
        "fingerprint_matches_baseline": True,
        "leg_wall_seconds": {"fast": 1.0, "slow": 3.0},
    }
