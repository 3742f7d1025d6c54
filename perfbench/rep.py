"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/rep.py WORKLOAD SEED TRACE`` from the root
of a checkout (``TRACE`` is 0 or 1).  ``run.py`` starts one of these
per repetition so that no repetition inherits another's heap, and so
that ``setup_s`` includes the interpreter's imports.

Prints one JSON object on its last stdout line: host wall and CPU time
of the set-up and timed sections, peak RSS, the units the workload
checked, its perf-counter increments and, when traced, the layer
timer's per-entry totals.
"""

import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _cpu_seconds():
    """User+sys CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Sections:
    """Accumulates host wall and CPU time per section kind.

    A workload alternates ``setup`` and ``timed`` sections; each kind's
    totals add up across its sections.  With a layer timer attached,
    entering a section also routes the timer's spans to that phase.
    """

    def __init__(self):
        #: A LayerTimer to switch phases on, or None.
        self.timer = None
        self.wall = {"setup": 0.0, "timed": 0.0}
        self.cpu = {"setup": 0.0, "timed": 0.0}
        #: ``[wall, cpu]`` of each timed section, in order.
        self.timed = []

    @contextlib.contextmanager
    def __call__(self, kind):
        if self.timer is not None:
            self.timer.phase = kind
        cpu = _cpu_seconds()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu
            self.wall[kind] += wall
            self.cpu[kind] += cpu
            if kind == "timed":
                self.timed.append([wall, cpu])


def run_rep(workload, seed, trace):
    sections = Sections()
    with sections("setup"):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        sys.path.insert(0, HERE)
        import layers
        from workloads import WORKLOADS

    timer = layers.LayerTimer() if trace else None
    sections.timer = timer
    if timer is not None:
        timer.install()
    try:
        outcome = WORKLOADS[workload](seed, sections)
    finally:
        if timer is not None:
            timer.uninstall()
    peak_kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return {
        "wall_s": sections.wall["timed"],
        "setup_s": sections.wall["setup"],
        "cpu_s": sections.cpu["timed"],
        "peak_rss_mb": peak_kib / 1024.0,
        "timed_sections": sections.timed,
        "units": [unit.as_dict() for unit in outcome.units],
        "perf": outcome.perf,
        "shard_stats": outcome.shard_stats,
        "trace": timer.read_out() if timer is not None else None,
    }


def main(argv):
    workload, seed, trace = argv
    result = run_rep(workload, int(seed), trace == "1")
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
