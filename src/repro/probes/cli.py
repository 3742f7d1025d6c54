"""``repro probes`` subcommands: list the catalog, run the score matrix.

Wired into the main parser by :func:`add_probes_commands`; heavy
imports stay inside the handlers so ``repro probes list`` never pays
for the fleet stack.
"""

import json
import sys


def cmd_probes_list(args):
    """Print the registered catalog — no fleet built, always exits 0."""
    from repro.probes.base import DEFAULT_PROBES, get_probe, registered_probes

    print("registered probes:")
    for name in registered_probes():
        info = get_probe(name).describe()
        default = " (default)" if name in DEFAULT_PROBES else ""
        print(f"  {name}{default}")
        print(f"    {info['doc']}")
        print(f"    capabilities: {', '.join(info['capabilities'])}")
    return 0


def _diff_expected(actual, expected):
    """Leaf-level diff of two score-report dicts; returns message list."""

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                if key not in a:
                    yield f"{path}.{key}: missing from actual"
                elif key not in b:
                    yield f"{path}.{key}: missing from expected"
                else:
                    yield from walk(a[key], b[key], f"{path}.{key}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                yield f"{path}: length {len(a)} != expected {len(b)}"
            else:
                for index, (left, right) in enumerate(zip(a, b)):
                    yield from walk(left, right, f"{path}[{index}]")
        elif a != b:
            yield f"{path}: {a!r} != expected {b!r}"

    return list(walk(actual, expected, "report"))


def cmd_probes_score(args):
    """Run the probe×attack ScoreMatrix; exit 1 on expected-score drift."""
    from repro.probes.score import ATTACKS, ScoreMatrix

    attacks = ATTACKS
    if args.attacks:
        attacks = tuple(
            part for part in args.attacks.split(",") if part
        )
    matrix = ScoreMatrix(
        seed=args.seed,
        hosts=args.hosts,
        tenants=args.tenants,
        churn_operations=args.churn,
        rebalance_moves=args.rebalance_moves,
        probes=args.probes,
        attacks=attacks,
        sweeps=args.sweeps,
        file_pages=args.pages,
        wait_seconds=args.wait,
    )
    report = matrix.run()
    print(report.summary())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"score report written to {args.report_out}", file=sys.stderr)
    if args.expected:
        with open(args.expected, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
        drift = _diff_expected(report.as_dict(), expected)
        if drift:
            print(
                f"score drift vs {args.expected} "
                f"({len(drift)} difference(s)):",
                file=sys.stderr,
            )
            for line in drift[:20]:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"scores match {args.expected}", file=sys.stderr)
    return 0


def add_probes_commands(subparsers):
    """Register the ``probes`` command group on the main parser."""
    from repro.matrix.cli import positive_int

    probes = subparsers.add_parser(
        "probes", help="detection-probe catalog and score matrix"
    )
    probes_sub = probes.add_subparsers(dest="probes_command", required=True)

    list_parser = probes_sub.add_parser(
        "list", help="show the registered probe catalog"
    )
    list_parser.set_defaults(func=cmd_probes_list)

    score = probes_sub.add_parser(
        "score",
        help="score every probe against every attack variant",
    )
    score.add_argument("--seed", type=int, default=42)
    score.add_argument("--hosts", type=positive_int, default=4)
    score.add_argument("--tenants", type=positive_int, default=12)
    score.add_argument(
        "--churn", type=int, default=6, help="churn operations in the warm-up"
    )
    score.add_argument("--rebalance-moves", type=int, default=1)
    score.add_argument("--sweeps", type=positive_int, default=1)
    score.add_argument(
        "--pages", type=positive_int, default=12,
        help="File-A pages per KSM-timing probe",
    )
    score.add_argument(
        "--wait", type=float, default=10.0,
        help="per-tenant probe budget window (seconds, virtual)",
    )
    score.add_argument(
        "--probes",
        help="'+'-joined probe names (default: the whole catalog)",
    )
    score.add_argument(
        "--attacks",
        help="comma-joined attack subset (default: all variants)",
    )
    score.add_argument(
        "--report-out", help="write the deterministic JSON report here"
    )
    score.add_argument(
        "--expected",
        help="diff the report against this pinned JSON; exit 1 on drift",
    )
    score.set_defaults(func=cmd_probes_score)
