"""The always-on engine perf counters."""

from repro.sim.engine import Engine
from repro.sim.perf import PerfCounters


def test_counters_start_at_zero():
    perf = PerfCounters()
    assert all(value == 0 for value in perf.as_dict().values())


def test_engine_counts_basic_work():
    engine = Engine()

    def worker(e):
        yield e.timeout(1.0)
        yield e.timeout(1.0)
        return "done"

    assert engine.run(engine.process(worker(engine))) == "done"
    perf = engine.perf
    assert perf.events_dispatched > 0
    assert perf.heap_pushes >= perf.events_dispatched
    assert perf.processes_resumed >= 3  # init + two timeouts


def test_reset_and_as_dict():
    engine = Engine()
    engine.timeout(0.5)
    engine.run()
    perf = engine.perf
    assert perf.timer_fast_path == 1
    assert dict(perf.as_dict()) == {
        key: getattr(perf, key) for key in perf.as_dict()
    }
    perf.reset()
    assert all(value == 0 for value in perf.as_dict().values())
