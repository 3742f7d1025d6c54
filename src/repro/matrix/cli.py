"""``repro matrix`` subcommands: run, list, expand, pin, diff.

Wired into the main parser by :func:`add_matrix_commands`; the heavy
imports stay inside the handlers so ``repro matrix list`` (and every
non-matrix command) never pays for the fleet stack.
"""

import argparse
import sys


def positive_int(text):
    """argparse type: an int >= 1, with a clear error (no pool traceback)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_spec(args):
    from repro.matrix.spec import MatrixSpec

    return MatrixSpec.load(args.spec)


def _expectations_path(args):
    from repro.matrix.pinning import default_expectations_path

    return args.expectations or default_expectations_path(args.spec)


def cmd_matrix_list(args):
    """Axes and mixes, no fleet built — always exits 0."""
    from repro.faults.chaos import STANDARD_MIXES
    from repro.cloud.fleet import BRANCH_KEYS, WARM_KEYS

    if args.spec:
        spec = _load_spec(args)
        from repro.matrix.expand import expand, group_by_warm_key

        for line in spec.describe_lines():
            print(line)
        variants = expand(spec)
        groups = group_by_warm_key(variants)
        print(
            f"  expands to {len(variants)} variants in "
            f"{len(groups)} warm groups"
        )
        return 0
    print("matrix parameters:")
    print(f"  warm (group-defining): {', '.join(WARM_KEYS)}")
    print(f"  branch:                {', '.join(BRANCH_KEYS)}")
    print("fault mixes (for `faults = mix:count@horizon`):")
    for mix in sorted(STANDARD_MIXES):
        print(f"  {mix:<10} {', '.join(STANDARD_MIXES[mix])}")
    return 0


def cmd_matrix_expand(args):
    """Print variant IDs, one per line (stdout stays diff-able)."""
    from repro.matrix.expand import expand, group_by_warm_key

    spec = _load_spec(args)
    variants = expand(spec, only=args.only, no=args.no)
    for variant in variants:
        print(variant.variant_id)
    groups = group_by_warm_key(variants)
    print(
        f"[matrix] {spec.name}: {len(variants)} variants, "
        f"{len(groups)} warm groups",
        file=sys.stderr,
    )
    return 0


def _run_matrix(args, capture_metrics=False):
    from repro.matrix.runner import MatrixRunner

    spec = _load_spec(args)
    runner = MatrixRunner(
        spec,
        processes=args.processes,
        warm_fork=not getattr(args, "cold", False),
        capture_metrics=capture_metrics,
    )
    report = runner.run(only=args.only, no=args.no)
    return spec, report


def cmd_matrix_run(args):
    import os

    capture_metrics = bool(args.obs_out or args.probe_budget is not None)
    spec, report = _run_matrix(args, capture_metrics=capture_metrics)
    print(report.summary())
    if args.report_out:
        report.write(args.report_out)
        print(f"[matrix] wrote report to {args.report_out}", file=sys.stderr)
    if args.obs_out:
        # The run bundle writes these as variants.json.
        args.obs_variants = report.variant_metrics()
    if args.probe_budget is not None:
        violations = report.probe_budget_violations(args.probe_budget)
        for variant_id, overhead_pct in violations:
            print(
                f"[matrix] OVER BUDGET {variant_id}: probe overhead "
                f"{overhead_pct:.2f}% > {args.probe_budget:g}%",
                file=sys.stderr,
            )
        if violations:
            return 1
        print(
            f"[matrix] probe overhead within {args.probe_budget:g}% "
            f"for all {len(report.entries)} variants",
            file=sys.stderr,
        )
    expectations_path = _expectations_path(args)
    if not os.path.exists(expectations_path):
        print(
            f"[matrix] no expectations at {expectations_path} "
            "(pin with `repro matrix pin`)",
            file=sys.stderr,
        )
        return 0
    from repro.matrix.pinning import Expectations

    diff = Expectations.load(expectations_path).diff(report)
    for line in diff.lines(verbose=True):
        print(line)
    return 0 if diff.clean else 1


def cmd_matrix_pin(args):
    from repro.matrix.pinning import Expectations

    import os

    spec, report = _run_matrix(args)
    expectations_path = _expectations_path(args)
    if os.path.exists(expectations_path):
        expectations = Expectations.load(expectations_path)
        expectations.update_from(report)
    else:
        expectations = Expectations.from_report(report)
    expectations.save(expectations_path)
    print(
        f"[matrix] pinned {len(report.entries)} variants "
        f"({len(expectations.pins)} total) to {expectations_path}"
    )
    return 0


def cmd_matrix_diff(args):
    """Diff a saved MatrixReport against pinned expectations — offline,
    no fleet built."""
    from repro.matrix.pinning import Expectations
    from repro.matrix.report import MatrixReport

    report = MatrixReport.load(args.report)
    expectations = Expectations.load(_expectations_path(args))
    diff = expectations.diff(report)
    for line in diff.lines(verbose=True):
        print(line)
    return 0 if diff.clean else 1


def add_matrix_commands(subparsers):
    """Register the ``matrix`` subcommand tree on the main parser."""
    matrix = subparsers.add_parser(
        "matrix",
        help="declarative scenario matrices: expand, run, pin, diff",
    )
    matrix_sub = matrix.add_subparsers(dest="matrix_command", required=True)

    def _spec_arg(parser, required=True):
        if required:
            parser.add_argument("spec", help="matrix spec (.cfg) path")
        else:
            parser.add_argument(
                "spec", nargs="?", default=None, help="matrix spec (.cfg) path"
            )

    def _filter_args(parser):
        parser.add_argument(
            "--only",
            metavar="EXPR",
            help="keep only variants matching EXPR "
            "(tp-libvirt style: ',' = or, '..' = and)",
        )
        parser.add_argument(
            "--no", metavar="EXPR", help="drop variants matching EXPR"
        )

    def _run_args(parser):
        _filter_args(parser)
        parser.add_argument(
            "--processes",
            type=positive_int,
            default=None,
            metavar="P",
            help="spread warm groups across P worker processes "
            "(deterministic merge; report identical to serial)",
        )
        parser.add_argument(
            "--cold",
            action="store_true",
            help="disable warm-fork grouping: every variant pays its own "
            "warm-up (the comparator the benchmark gates against)",
        )
        parser.add_argument(
            "--expectations",
            metavar="PATH",
            help="expectations file (default: <spec>.expectations.json)",
        )

    matrix_list = matrix_sub.add_parser(
        "list", help="print axes/mixes (no fleet is built)"
    )
    _spec_arg(matrix_list, required=False)
    matrix_list.set_defaults(func=cmd_matrix_list)

    matrix_expand = matrix_sub.add_parser(
        "expand", help="print the expanded variant IDs"
    )
    _spec_arg(matrix_expand)
    _filter_args(matrix_expand)
    matrix_expand.set_defaults(func=cmd_matrix_expand)

    matrix_run = matrix_sub.add_parser(
        "run", help="run every variant; diff against pinned expectations"
    )
    _spec_arg(matrix_run)
    _run_args(matrix_run)
    matrix_run.add_argument(
        "--report-out",
        metavar="PATH",
        help="write the MatrixReport JSON (with wall clocks) to PATH",
    )
    matrix_run.add_argument(
        "--probe-budget",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) if any variant's detector probe overhead "
        "exceeds PCT percent of its branch virtual time",
    )
    matrix_run.set_defaults(func=cmd_matrix_run)

    matrix_pin = matrix_sub.add_parser(
        "pin", help="run and pin the results as expectations"
    )
    _spec_arg(matrix_pin)
    _run_args(matrix_pin)
    matrix_pin.set_defaults(func=cmd_matrix_pin)

    matrix_diff = matrix_sub.add_parser(
        "diff", help="diff a saved MatrixReport against expectations"
    )
    _spec_arg(matrix_diff)
    matrix_diff.add_argument("report", help="MatrixReport JSON path")
    matrix_diff.add_argument(
        "--expectations",
        metavar="PATH",
        help="expectations file (default: <spec>.expectations.json)",
    )
    matrix_diff.set_defaults(func=cmd_matrix_diff)
    return matrix
