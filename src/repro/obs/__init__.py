"""repro.obs — virtual-time tracing, metrics, and timeline export.

The observability layer the perf and detection work measures itself
against:

* :class:`~repro.obs.trace.Tracer` — span/instant/counter recording on
  the virtual timeline (one per engine, ``engine.tracer``), guarded so
  a disabled tracer costs one attribute check at every seam;
* :class:`~repro.obs.metrics.MetricRegistry` — labelled counters,
  gauges, and log2-bucketed histograms (``tracer.metrics``);
* :mod:`~repro.obs.export` — Chrome/Perfetto trace JSON, deterministic
  metrics dumps, the run bundle, and the trace-schema validator;
* :mod:`~repro.obs.config` — process-wide defaults so CLI flags reach
  engines built deep inside scenario helpers;
* :mod:`~repro.obs.analysis` — offline span-tree reconstruction,
  critical-path and self-time attribution, per-tenant probe-overhead
  accounting, and collapsed-stack flamegraph export;
* :mod:`~repro.obs.history` — run-comparison regression engine and the
  append-only ``BENCH_history.jsonl`` ledger.

Quickstart::

    from repro import obs
    obs.configure(enabled=True)          # every new engine traces
    ... run a scenario ...
    obs.write_chrome_trace("trace.json") # open in ui.perfetto.dev
    obs.reset()
"""

from repro.obs.analysis import (
    TraceAnalysis,
    analyze_trace,
    write_collapsed_stacks,
)
from repro.obs.config import active_config, configure, register, reset, tracers
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
from repro.obs.export import (
    chrome_trace,
    metrics_json,
    validate_trace,
    write_bundle,
    write_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "TraceAnalysis",
    "Tracer",
    "active_config",
    "analyze_trace",
    "append_bench_history",
    "bench_history_record",
    "chrome_trace",
    "configure",
    "diff_history",
    "diff_runs",
    "flatten",
    "format_diff",
    "load_bench_history",
    "metrics_json",
    "register",
    "reset",
    "tracers",
    "validate_trace",
    "write_bundle",
    "write_chrome_trace",
    "write_collapsed_stacks",
    "write_diff_report",
]
