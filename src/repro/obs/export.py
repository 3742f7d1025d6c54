"""Exporters: Chrome/Perfetto trace JSON, metrics dumps, run bundles.

The trace export follows the Chrome trace-event format (the JSON array
flavour wrapped in an object), which Perfetto's UI
(https://ui.perfetto.dev) opens directly.  Each tracer becomes one
*process* row (``pid``), each track within it one *thread* row
(``tid``), with ``process_name``/``thread_name`` metadata events naming
them.  Timestamps are virtual-time microseconds; wall-clock stamps are
attached under ``args.wall_ns`` only when ``include_wall=True`` so the
default export is byte-identical across same-seed runs.

:func:`write_bundle` writes everything one run observed into one
directory (``repro --obs-out DIR``).

:func:`validate_trace` is the schema gate CI runs against the smoke
trace — it checks structural invariants (phase codes, required fields,
non-negative times), not semantics.
"""

import json
import os
import platform
import subprocess

import repro
from repro import __version__
from repro.obs import config as obs_config

#: Phase codes the exporter emits / the validator accepts.
PHASES = frozenset({"X", "i", "C", "M"})


def _track_ids(events):
    """Track name -> tid, in order of first appearance (deterministic)."""
    ids = {}
    for event in events:
        track = event[3]
        if track not in ids:
            ids[track] = len(ids) + 1
    return ids


def chrome_trace(tracers=None, include_wall=False):
    """Merge ``tracers`` (default: all registered) into one trace object."""
    if tracers is None:
        tracers = obs_config.tracers()
    trace_events = []
    dropped = 0
    for index, tracer in enumerate(tracers):
        pid = index + 1
        label = tracer.label or f"engine-{index}"
        events = tracer.events()
        dropped += tracer.dropped_events
        trace_events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": label},
            }
        )
        tracks = _track_ids(events)
        for track, tid in tracks.items():
            trace_events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        for ph, name, cat, track, ts_us, dur_us, wall_ns, args in events:
            entry = {
                "ph": ph,
                "pid": pid,
                "tid": tracks[track],
                "ts": ts_us,
                "name": name,
            }
            if cat is not None:
                entry["cat"] = cat
            if ph == "X":
                entry["dur"] = dur_us
            elif ph == "i":
                entry["s"] = "t"
            if ph == "C":
                entry["args"] = dict(args)
            else:
                entry["args"] = dict(args) if args else {}
            if include_wall:
                entry["args"]["wall_ns"] = wall_ns
            trace_events.append(entry)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual-us",
            "dropped_events": dropped,
            "producer": "repro.obs",
        },
    }


def write_chrome_trace(path, tracers=None, include_wall=False):
    """Write the merged trace to ``path``; returns the trace object."""
    trace = chrome_trace(tracers, include_wall=include_wall)
    with open(path, "w") as handle:
        json.dump(trace, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return trace


def metrics_json(tracers=None):
    """Deterministic ``{engine_label: {"metrics", "perf"}}`` dump.

    Each engine's tracepoint metrics and its perf counters, side by
    side, once each.
    """
    if tracers is None:
        tracers = obs_config.tracers()
    dump = {}
    for index, tracer in enumerate(tracers):
        label = tracer.label or f"engine-{index}"
        tracer.flush()
        dump[label] = {
            "metrics": tracer.metrics.as_dict(),
            "perf": tracer.engine.perf.as_dict(),
        }
    return dump


def _write_json(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def git_rev():
    """``HEAD`` of the git checkout :mod:`repro` is imported from, or
    None outside a checkout or without a ``git`` binary."""
    command = ["git", "-C", os.path.dirname(repro.__file__), "rev-parse", "HEAD"]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def write_bundle(directory, argv, seed, variants=None):
    """Write the registered tracers' observations into ``directory``.

    * ``trace.json`` — the merged Chrome trace (:func:`write_chrome_trace`);
    * ``metrics.json`` — :func:`metrics_json`;
    * ``manifest.json`` — what ran where: argv, seed, Python version,
      CPU count, repro version, git rev (:func:`git_rev`);
    * ``variants.json`` — per-variant metrics, when ``variants`` is
      given (``repro matrix run``).

    Returns the trace object.
    """
    os.makedirs(directory, exist_ok=True)
    trace = write_chrome_trace(os.path.join(directory, "trace.json"))
    _write_json(os.path.join(directory, "metrics.json"), metrics_json())
    _write_json(
        os.path.join(directory, "manifest.json"),
        {
            "argv": list(argv),
            "seed": seed,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "repro_version": __version__,
            "git_rev": git_rev(),
        },
    )
    if variants is not None:
        _write_json(os.path.join(directory, "variants.json"), variants)
    return trace


def validate_trace(trace, require_names=()):
    """Structural validation; returns a list of problems (empty = ok).

    ``require_names``: substrings at least one event name each must
    contain — the CI smoke check passes the tracepoint families it
    expects (``vm_exit``, ``ksm.pass``, ``migration``, ``detect``).
    """
    problems = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["top level must be an object with a traceEvents array"]
    events = trace["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    names = set()
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing name")
            continue
        names.add(name)
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: missing pid")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant scope must be t/p/g")
        if ph == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: counter event needs args")
    for required in require_names:
        if not any(required in name for name in names):
            problems.append(f"no event name contains {required!r}")
    return problems
