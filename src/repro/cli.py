"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``attack``  — run the four-step CloudSkulk installation and print the
  timeline (the §V-A demo, condensed);
* ``detect``  — run the dedup detection protocol against a clean host
  and against a compromised one, print both verdicts (Figs 5/6);
* ``sweep``   — multi-tenant monitoring sweep with one compromised
  tenant hidden among three;
* ``covert``  — exfiltrate a message between co-resident VMs over the
  KSM timing channel (refs [41, 42]);
* ``fleet``   — multi-host cloud control plane experiments
  (``fleet run`` / ``fleet sweep`` / ``fleet chaos`` / ``fleet status``);
* ``matrix``  — declarative scenario matrices
  (``matrix run`` / ``list`` / ``expand`` / ``pin`` / ``diff``);
* ``obs``     — offline trace analytics
  (``obs report`` / ``diff`` / ``flame`` / ``critical-path``);
* ``info``    — print the library's system inventory and versions.
"""

import argparse
import sys

from repro import __version__, obs, scenarios
from repro.matrix.cli import add_matrix_commands, positive_int
from repro.obs.cli import add_obs_commands
from repro.probes.cli import add_probes_commands


def cmd_attack(args):
    host = scenarios.testbed(seed=args.seed)
    scenarios.launch_victim(host)
    report = scenarios.install_cloudskulk(host)
    print(report.summary())
    victim = report.nested_vm.guest
    print(
        f"\nvictim depth: {victim.depth}; GuestX pid {report.guestx_vm.process.pid} "
        f"(victim's old pid {report.victim_pid}); "
        f"{report.history_lines_removed} history lines scrubbed"
    )
    return 0


def cmd_detect(args):
    from repro.core.detection.dedup_detector import DedupDetector

    for nested in (False, True):
        label = "CloudSkulk installed" if nested else "clean guest"
        host, cloud, _ksm, _loc = scenarios.detection_setup(
            nested=nested, seed=args.seed
        )
        detector = DedupDetector(host, cloud, file_pages=args.pages)
        report = host.engine.run(host.engine.process(detector.run()))
        verdict = report.verdict
        print(f"[{label}]")
        print(
            f"  t0={verdict.median_t0:.2f}us t1={verdict.median_t1:.2f}us "
            f"t2={verdict.median_t2:.2f}us -> {verdict.verdict.upper()}"
        )
        print(f"  {verdict.explanation()}\n")
    return 0


def cmd_sweep(args):
    from repro.core.detection.service import MonitoringService
    from repro.core.rootkit.stealth import ImpersonationMirror
    from repro.hypervisor.ksm import KsmDaemon

    host = scenarios.testbed(seed=args.seed)
    locators = {}
    for index, name in enumerate(("tenant-a", "tenant-b", "tenant-c")):
        config = scenarios.victim_config(
            name=name,
            image=f"/var/lib/images/{name}.qcow2",
            ssh_host_port=2300 + index,
            monitor_port=5600 + index,
        )
        vm = scenarios.launch_victim(host, config)
        state = {"guest": vm.guest}
        locators[name] = (lambda s: (lambda: s["guest"]))(state)
    KsmDaemon(host.machine).start()
    install = scenarios.install_cloudskulk(host, target_name="tenant-b")
    mirror = ImpersonationMirror(install.guestx_vm.guest)
    service = MonitoringService(host, file_pages=12)
    for name, locator in locators.items():
        interface = service.register_tenant(name, locator)
        if name == "tenant-b":
            interface.observers.append(mirror)
    report = host.engine.run(host.engine.process(service.sweep()))
    print(report.summary())
    print(f"\ncompromised: {report.compromised_tenants}")
    return 0 if report.compromised_tenants == ["tenant-b"] else 1


def cmd_covert(args):
    from repro.hypervisor.ksm import KsmDaemon
    from repro.sidechannel import DedupCovertChannel

    host = scenarios.testbed(seed=args.seed)
    sender = scenarios.launch_victim(
        host,
        scenarios.victim_config(
            name="sender", image="/i/s.qcow2", ssh_host_port=2301,
            monitor_port=5601,
        ),
    )
    receiver = scenarios.launch_victim(
        host,
        scenarios.victim_config(
            name="receiver", image="/i/r.qcow2", ssh_host_port=2302,
            monitor_port=5602,
        ),
    )
    KsmDaemon(host.machine).start()
    channel = DedupCovertChannel(sender.guest, receiver.guest, seed="rv")
    payload = args.message.encode("utf-8")
    process = host.engine.process(channel.transmit(payload, settle_seconds=6.0))
    received, elapsed, bps = host.engine.run(process)
    print(f"sent     {payload!r}")
    print(f"received {received!r}")
    print(f"{elapsed:.0f}s virtual, {bps:.2f} bit/s")
    return 0 if received == payload else 1


def _run_fleet_from_args(args, **overrides):
    from repro.cloud import run_fleet

    params = dict(
        hosts=args.hosts,
        tenants=args.tenants,
        seed=args.seed,
        churn_operations=getattr(args, "churn", 0),
        rebalance_moves=getattr(args, "migrations", 0),
        campaigns=getattr(args, "campaigns", 0),
        sweeps=getattr(args, "sweeps", 0),
    )
    params.update(overrides)
    return run_fleet(**params)


def cmd_fleet_run(args):
    result = _run_fleet_from_args(args)
    print(result.summary())
    if args.campaigns and result.detected_campaigns < 1:
        return 1
    return 0


def cmd_fleet_sweep(args):
    """One campaign, one fleet sweep — no churn tail, no rebalancing."""
    result = _run_fleet_from_args(
        args, churn_operations=0, rebalance_moves=0, campaigns=1, sweeps=1
    )
    for report in result.monitor.reports:
        print(report.summary())
    print(f"\nrecall: {result.recall:.2f}")
    return 0 if result.detected_campaigns >= 1 else 1


def cmd_fleet_chaos(args):
    """Run a chaos campaign: one fleet experiment per fault mix.

    ``--from-warm`` warms the fleet once and runs every leg as a
    copy-on-write fork branch off that snapshot (``--fanout N`` forks N
    independent fault plans per mix; ``--processes P`` spreads the legs
    over a pool).  Without it, every leg replays its own warm-up.
    """
    from repro.faults import ChaosCampaign
    from repro.faults.chaos import DEFAULT_FLEET_PARAMS, STANDARD_MIXES

    if args.list_mixes:
        # Catalog only — print and exit without building a fleet.
        print("standard fault mixes:")
        for mix in sorted(STANDARD_MIXES):
            print(f"  {mix:<10} {', '.join(STANDARD_MIXES[mix])}")
        rendered = ", ".join(
            f"{k}={v}" for k, v in sorted(DEFAULT_FLEET_PARAMS.items())
        )
        print(f"default fleet: {rendered}")
        return 0

    mixes = tuple(m.strip() for m in args.mixes.split(",") if m.strip())
    campaign = ChaosCampaign(
        seed=args.seed,
        mixes=mixes,
        faults_per_mix=args.faults,
        horizon=args.horizon,
        fleet_params=dict(hosts=args.hosts, tenants=args.tenants),
    )
    if args.from_warm:
        report = campaign.run_fanout(
            branches_per_mix=args.fanout, processes=args.processes
        )
    else:
        if args.fanout != 1:
            print(
                "[chaos] --fanout needs --from-warm (cold runs replay "
                "the warm-up per leg)",
                file=sys.stderr,
            )
            return 2
        report = campaign.run()
    print(report.summary())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"[chaos] wrote report to {args.report_out}", file=sys.stderr)
    return 0


def cmd_fleet_status(args):
    """Provision the fleet and print the inventory — no attack, no sweep."""
    result = _run_fleet_from_args(
        args, churn_operations=0, rebalance_moves=0, campaigns=0, sweeps=0
    )
    datacenter = result.datacenter
    print(repr(datacenter))
    for line in datacenter.inventory_lines():
        print(line)
    return 0


def cmd_info(_args):
    print(f"repro {__version__} — CloudSkulk reproduction (DSN 2021)")
    print("systems: sim engine, hardware, KVM hypervisor (nested), KSM,")
    print("  guest OS, network+NAT, QEMU+monitor, pre/post-copy migration,")
    print("  VMI, CloudSkulk rootkit, dedup detection, covert channel")
    print("docs: README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1701)
    parser.add_argument(
        "--obs-out",
        metavar="DIR",
        help="trace the run and write its observations to DIR: trace.json "
        "(Chrome/Perfetto, open in ui.perfetto.dev), metrics.json (metric "
        "registry and perf counters per engine), manifest.json, and "
        "variants.json for `matrix run`",
    )
    parser.add_argument(
        "--trace-ring",
        type=positive_int,
        metavar="N",
        help="with --obs-out: cap the trace buffer at N events (oldest "
        "drop, counted); for long fleet runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("attack").set_defaults(func=cmd_attack)
    detect = sub.add_parser("detect")
    detect.add_argument("--pages", type=positive_int, default=100)
    detect.set_defaults(func=cmd_detect)
    sub.add_parser("sweep").set_defaults(func=cmd_sweep)
    covert = sub.add_parser("covert")
    covert.add_argument("--message", default="EXFIL")
    covert.set_defaults(func=cmd_covert)
    fleet = sub.add_parser("fleet", help="multi-host cloud control plane")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def _fleet_common(sub_parser, hosts, tenants):
        sub_parser.add_argument("--hosts", type=int, default=hosts)
        sub_parser.add_argument("--tenants", type=int, default=tenants)
        # SUPPRESS: without it the subcommand's default would overwrite
        # a root-level `repro --seed N fleet ...` (both default to 1701).
        sub_parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    fleet_run = fleet_sub.add_parser("run")
    _fleet_common(fleet_run, hosts=8, tenants=64)
    fleet_run.add_argument("--churn", type=int, default=24)
    fleet_run.add_argument("--migrations", type=int, default=2)
    fleet_run.add_argument("--campaigns", type=int, default=1)
    fleet_run.add_argument("--sweeps", type=int, default=1)
    fleet_run.set_defaults(func=cmd_fleet_run)
    fleet_sweep = fleet_sub.add_parser("sweep")
    _fleet_common(fleet_sweep, hosts=4, tenants=12)
    fleet_sweep.set_defaults(func=cmd_fleet_sweep)
    fleet_chaos = fleet_sub.add_parser(
        "chaos", help="score detection recall under injected fault mixes"
    )
    _fleet_common(fleet_chaos, hosts=4, tenants=12)
    fleet_chaos.add_argument(
        "--mixes",
        default="infra,migration,mixed",
        help="comma-separated fault mixes "
        "(infra, network, migration, stealth, mixed)",
    )
    fleet_chaos.add_argument("--faults", type=int, default=5)
    fleet_chaos.add_argument("--horizon", type=float, default=240.0)
    fleet_chaos.add_argument(
        "--report-out",
        metavar="PATH",
        help="write the deterministic ChaosReport JSON to PATH",
    )
    fleet_chaos.add_argument(
        "--from-warm",
        action="store_true",
        help="warm the fleet once and run every leg as a copy-on-write "
        "fork branch (faults then only hit the branch phase)",
    )
    fleet_chaos.add_argument(
        "--fanout",
        type=positive_int,
        default=1,
        metavar="N",
        help="with --from-warm: fork N independent fault plans per mix "
        "off the one warmed snapshot",
    )
    fleet_chaos.add_argument(
        "--processes",
        type=positive_int,
        default=None,
        metavar="P",
        help="with --from-warm: spread fan-out legs across P worker "
        "processes (deterministic merge)",
    )
    fleet_chaos.add_argument(
        "--list-mixes",
        action="store_true",
        help="print the standard fault mixes and exit (no fleet is built)",
    )
    fleet_chaos.set_defaults(func=cmd_fleet_chaos)
    fleet_status = fleet_sub.add_parser("status")
    _fleet_common(fleet_status, hosts=8, tenants=16)
    fleet_status.set_defaults(func=cmd_fleet_status)
    add_matrix_commands(sub)
    add_obs_commands(sub)
    add_probes_commands(sub)
    sub.add_parser("info").set_defaults(func=cmd_info)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.obs_out:
        # Engines are built deep inside scenario helpers; the process-wide
        # default is how the flag reaches them.  Every engine the command
        # creates comes up traced and self-registers for the bundle.
        obs.configure(enabled=True, ring_capacity=args.trace_ring)
    try:
        status = args.func(args)
        if args.obs_out:
            trace = obs.write_bundle(
                args.obs_out,
                argv,
                args.seed,
                variants=getattr(args, "obs_variants", None),
            )
            print(
                f"[obs] wrote {len(trace['traceEvents'])} trace events "
                f"to {args.obs_out}",
                file=sys.stderr,
            )
        return status
    finally:
        if args.obs_out:
            obs.reset()
