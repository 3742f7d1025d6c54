"""``repro obs`` subcommands: report, diff, flame, critical-path.

All four operate *offline* on artifacts an earlier run wrote — the
``trace.json`` and ``metrics.json`` of a run bundle (``repro --obs-out
DIR``), a saved summary (``obs report --json``), or the bench-history
ledger — so analysis never re-runs a scenario and adds zero engine-side
overhead.  Wired into the main parser by :func:`add_obs_commands`;
heavy imports stay inside the handlers.
"""

import json
import os
import sys


def _load_document(path):
    """A diffable JSON document: traces are summarized, the rest pass
    through (metric dumps, saved summaries, bench reports)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, dict) and "traceEvents" in document:
        from repro.obs.analysis import TraceAnalysis

        return TraceAnalysis(document).summary()
    return document


def cmd_obs_report(args):
    from repro.obs.analysis import analyze_trace

    analysis = analyze_trace(args.trace)
    print(analysis.format(top=args.top))
    if args.json:
        document = analysis.summary()
        # A bundle's metrics.json sits next to its trace.json; embedding
        # it lets one summary file diff both surfaces.
        metrics = os.path.join(os.path.dirname(args.trace), "metrics.json")
        if os.path.exists(metrics):
            with open(metrics, "r", encoding="utf-8") as handle:
                document["metrics"] = json.load(handle)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[obs] wrote summary to {args.json}", file=sys.stderr)
    return 0


def cmd_obs_diff(args):
    from repro.obs.history import (
        diff_history,
        diff_runs,
        format_diff,
        write_diff_report,
    )

    if args.history:
        report = diff_history(args.history, threshold_pct=args.threshold)
        if report is None:
            print(
                f"[obs] {args.history}: fewer than two ledger entries, "
                "nothing to diff",
                file=sys.stderr,
            )
            return 2
    else:
        if not (args.old and args.new):
            print(
                "[obs] diff needs two files (or --history LEDGER)",
                file=sys.stderr,
            )
            return 2
        report = diff_runs(
            _load_document(args.old),
            _load_document(args.new),
            threshold_pct=args.threshold,
            old_label=args.old,
            new_label=args.new,
        )
    print(format_diff(report))
    if args.report_out:
        write_diff_report(args.report_out, report)
        print(
            f"[obs] wrote regression report to {args.report_out}",
            file=sys.stderr,
        )
    return 0 if report["clean"] else 1


def cmd_obs_flame(args):
    from repro.obs.analysis import analyze_trace, write_collapsed_stacks

    analysis = analyze_trace(args.trace)
    if args.output:
        count = write_collapsed_stacks(args.output, analysis)
        print(f"[obs] wrote {count} stacks to {args.output}")
    else:
        for line in analysis.collapsed_stacks():
            print(line)
    return 0


def cmd_obs_critical_path(args):
    from repro.obs.analysis import analyze_trace

    analysis = analyze_trace(args.trace)
    path = analysis.critical_path(track=args.track)
    if path is None:
        where = f" matching {args.track!r}" if args.track else ""
        print(f"[obs] no spans{where} in {args.trace}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(path, indent=2, sort_keys=True))
        return 0
    print(
        f"critical path [{path['track']}] {path['total_us'] / 1e6:.3f}s "
        "virtual:"
    )
    for segment in path["segments"]:
        indent = "  " * (segment["depth"] + 1)
        print(
            f"{indent}{segment['name']} "
            f"start={segment['start_us'] / 1e6:.3f}s "
            f"dur={segment['dur_us'] / 1e6:.3f}s "
            f"self={segment['self_us'] / 1e6:.3f}s"
        )
    return 0


def add_obs_commands(subparsers):
    """Register the ``obs`` subcommand tree on the main parser."""
    obs = subparsers.add_parser(
        "obs",
        help="trace analytics: report, diff, flame, critical-path",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    report = obs_sub.add_parser(
        "report",
        help="span-tree summary of a trace: attribution, critical path, "
        "probe overhead",
    )
    report.add_argument(
        "trace", help="Chrome trace JSON (trace.json of an --obs-out bundle)"
    )
    report.add_argument(
        "--json",
        metavar="PATH",
        help="write the deterministic summary JSON (the `obs diff` input), "
        "with the metrics.json next to the trace embedded",
    )
    report.add_argument(
        "--top",
        type=int,
        default=12,
        metavar="N",
        help="span names to show in the self-time table",
    )
    report.set_defaults(func=cmd_obs_report)

    diff = obs_sub.add_parser(
        "diff",
        help="regression-diff two traces/summaries/metric dumps "
        "(exit 1 on drift)",
    )
    diff.add_argument(
        "old", nargs="?", default=None, help="baseline trace/summary JSON"
    )
    diff.add_argument(
        "new", nargs="?", default=None, help="candidate trace/summary JSON"
    )
    diff.add_argument(
        "--threshold",
        type=float,
        default=0.0,
        metavar="PCT",
        help="relative drift (percent) numeric values may move before "
        "they regress (default 0: byte-identical)",
    )
    diff.add_argument(
        "--history",
        metavar="LEDGER",
        help="diff the last two entries of a BENCH_history.jsonl ledger "
        "instead of two files",
    )
    diff.add_argument(
        "--report-out",
        metavar="PATH",
        help="write the machine-readable regression report to PATH",
    )
    diff.set_defaults(func=cmd_obs_diff)

    flame = obs_sub.add_parser(
        "flame",
        help="collapsed-stack flamegraph export (self time, virtual ns)",
    )
    flame.add_argument(
        "trace", help="Chrome trace JSON (trace.json of an --obs-out bundle)"
    )
    flame.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write the collapsed stacks to PATH (default: stdout)",
    )
    flame.set_defaults(func=cmd_obs_flame)

    critical = obs_sub.add_parser(
        "critical-path",
        help="longest-child chain from the heaviest root span",
    )
    critical.add_argument(
        "trace", help="Chrome trace JSON (trace.json of an --obs-out bundle)"
    )
    critical.add_argument(
        "--track",
        metavar="NAME",
        help="restrict to process/track rows containing NAME",
    )
    critical.add_argument(
        "--json", action="store_true", help="print the path as JSON"
    )
    critical.set_defaults(func=cmd_obs_critical_path)
    return obs
