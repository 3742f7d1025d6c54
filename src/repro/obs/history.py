"""Run comparison and the append-only bench-history ledger.

Two halves:

* :func:`diff_runs` — the regression engine.  It flattens two JSON
  documents (trace summaries from :mod:`repro.obs.analysis`, metric
  dumps from :func:`repro.obs.export.metrics_json`, or bench reports)
  into dotted scalar keys and compares them under a configurable
  relative threshold.  The output is a machine-readable regression
  report: every numeric drift beyond the threshold, every value whose
  type or text changed, and every key that appeared or vanished.  Two
  same-seed runs summarize byte-identically, so a clean diff is the
  determinism bar and any finding is a real behavior change.
* :func:`append_bench_history` / :func:`load_bench_history` — one JSON
  line per bench run in ``BENCH_history.jsonl``.  ``BENCH_core.json``
  is overwritten per run; the ledger is append-only, so the perf
  trajectory (wall clocks, budget verdicts, fingerprint matches)
  survives across runs and machines and ``repro obs diff --history``
  can compare the last two entries without re-running anything.
"""

import json
import math
import os


def flatten(value, prefix=""):
    """Flatten nested dicts/lists into ``{dotted_key: scalar}``.

    Numbers stay numbers (bools count as numbers), strings stay
    strings, ``None`` becomes the string ``"null"`` so presence is
    still diffable.  List elements key by index.
    """
    out = {}
    if isinstance(value, dict):
        for key in sorted(value):
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value[key], child_prefix))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            child_prefix = f"{prefix}[{index}]" if prefix else f"[{index}]"
            out.update(flatten(item, child_prefix))
    elif value is None:
        out[prefix] = "null"
    else:
        out[prefix] = value
    return out


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_runs(old, new, threshold_pct=0.0, old_label="old", new_label="new"):
    """Compare two JSON documents; returns the regression report dict.

    ``threshold_pct`` is the relative drift (percent) a numeric value
    may move before it is reported — 0.0 demands byte-identical
    numbers, the right bar for same-seed virtual-time summaries.
    Non-numeric values regress on any inequality; keys present on one
    side only are reported as added/removed.  ``clean`` is True when
    nothing regressed.
    """
    flat_old = flatten(old)
    flat_new = flatten(new)
    regressions = []
    added = sorted(set(flat_new) - set(flat_old))
    removed = sorted(set(flat_old) - set(flat_new))
    compared = 0
    for key in sorted(set(flat_old) & set(flat_new)):
        old_value = flat_old[key]
        new_value = flat_new[key]
        compared += 1
        if _is_number(old_value) and _is_number(new_value):
            if old_value == new_value:
                continue
            delta = new_value - old_value
            if old_value != 0:
                rel_pct = 100.0 * delta / abs(old_value)
            else:
                rel_pct = math.inf if delta > 0 else -math.inf
            if abs(rel_pct) <= threshold_pct:
                continue
            regressions.append(
                {
                    "key": key,
                    "old": old_value,
                    "new": new_value,
                    "delta": delta,
                    "rel_pct": (
                        rel_pct if math.isfinite(rel_pct) else None
                    ),
                }
            )
        elif old_value != new_value:
            regressions.append(
                {
                    "key": key,
                    "old": old_value,
                    "new": new_value,
                    "delta": None,
                    "rel_pct": None,
                }
            )
    return {
        "old": old_label,
        "new": new_label,
        "threshold_pct": threshold_pct,
        "compared": compared,
        "regressions": regressions,
        "added": added,
        "removed": removed,
        "clean": not (regressions or added or removed),
    }


def format_diff(report, top=25):
    """Human-readable rendering of a :func:`diff_runs` report."""
    lines = [
        f"diff {report['old']} -> {report['new']}: "
        f"{report['compared']} keys compared, "
        f"threshold {report['threshold_pct']:g}%"
    ]
    for entry in report["regressions"][:top]:
        if entry["rel_pct"] is not None:
            lines.append(
                f"  REGRESSION {entry['key']}: {entry['old']:g} -> "
                f"{entry['new']:g} ({entry['rel_pct']:+.2f}%)"
            )
        else:
            lines.append(
                f"  REGRESSION {entry['key']}: {entry['old']!r} -> "
                f"{entry['new']!r}"
            )
    hidden = len(report["regressions"]) - top
    if hidden > 0:
        lines.append(f"  ... {hidden} more regressions")
    for key in report["added"][:top]:
        lines.append(f"  ADDED   {key}")
    for key in report["removed"][:top]:
        lines.append(f"  REMOVED {key}")
    lines.append(
        "clean: no regressions"
        if report["clean"]
        else f"DIRTY: {len(report['regressions'])} regressions, "
        f"{len(report['added'])} added, {len(report['removed'])} removed"
    )
    return "\n".join(lines)


def write_diff_report(path, report):
    """Write the machine-readable regression report to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


# -- the bench-history ledger ----------------------------------------------


def bench_history_record(report, quick=False, timestamp=None):
    """Condense one perf-report dict into a ledger line.

    Every bench entry has one shape, so every entry condenses the same
    way: its wall clock, the gate and fingerprint verdicts,
    and — for entries that compare legs — each leg's wall clock under
    ``leg_wall_seconds``.  The bulky fingerprints and metric dumps stay
    in ``BENCH_core.json``; the ledger is a trajectory, not an archive.
    """
    if timestamp is None:
        import time

        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    scenarios = {}
    for name, entry in sorted(report.items()):
        condensed = {
            key: entry[key]
            for key in (
                "wall_seconds",
                "within_budget",
                "fingerprint_matches_baseline",
            )
            if key in entry
        }
        legs = entry.get("legs", {})
        if len(legs) > 1:
            condensed["leg_wall_seconds"] = {
                leg: data["wall_seconds"] for leg, data in sorted(legs.items())
            }
        scenarios[name] = condensed
    return {
        "timestamp": timestamp,
        "quick": quick,
        "scenarios": scenarios,
    }


def append_bench_history(path, record):
    """Append one JSON line to the ledger (created on first use)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_bench_history(path):
    """All ledger records, oldest first; missing file is an empty list."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def diff_history(path, threshold_pct=10.0):
    """Diff the ledger's last two entries (wall clocks are noisy, so
    the default threshold is loose).  Returns None with fewer than two
    records."""
    records = load_bench_history(path)
    if len(records) < 2:
        return None
    old, new = records[-2], records[-1]
    return diff_runs(
        old["scenarios"],
        new["scenarios"],
        threshold_pct=threshold_pct,
        old_label=old.get("timestamp", "previous"),
        new_label=new.get("timestamp", "latest"),
    )
