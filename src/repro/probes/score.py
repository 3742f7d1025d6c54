"""The probe×attack score matrix: every probe against every attack.

One warmed fleet, one copy-on-write fork per attack leg (clean
baseline, CloudSkulk install, VMI subversion, dedup-spy channel), all
configured probes scheduled by the stock
:class:`~repro.cloud.fleet_monitor.FleetMonitor` in every leg.  Every
individual probe run lands in a verdict *ledger*; recall /
false-positive / latency / overhead cells are derived from the ledger
alone, so the report is audit-consistent by construction (the property
suite re-derives the cells and diffs).

Deterministic end to end: legs fork the same warm snapshot, attack
targets come from seeded RNG streams, probes run in virtual time —
the JSON report is byte-identical across same-seed runs and is pinned
in CI.
"""

import json
import math

from repro.cloud.campaign import AttackCampaign
from repro.cloud.fleet import warm_fleet
from repro.cloud.fleet_monitor import FleetMonitor
from repro.errors import ReproError
from repro.probes.base import FLAGGED_VERDICTS, resolve_probes
from repro.sidechannel.dedup_channel import DedupCovertChannel
from repro.vmi.subversion import forge_process_view

#: The attack variants every probe is scored against, in run order.
ATTACKS = ("clean", "cloudskulk", "vmi_subversion", "dedup_spy")

#: Ground truth per attack: the verdict a probe *should* raise.  Used
#: only for the report's human summary — scoring counts any flagged
#: verdict, so a probe that catches an attack through an unexpected
#: signal still gets credit.
EXPECTED_SIGNAL = {
    "cloudskulk": "nested",
    "vmi_subversion": "subverted",
    "dedup_spy": "spying",
}


class ScoreReport:
    """Deterministic probe×attack matrix (ChaosReport style)."""

    def __init__(self, seed, probe_names, attacks, fleet_params):
        self.seed = seed
        self.probe_names = list(probe_names)
        self.attacks = list(attacks)
        self.fleet_params = dict(fleet_params)
        #: One dict per (attack, probe) cell, attack-major order.
        self.cells = []
        #: One dict per individual probe run (the audit trail).
        self.ledger = []
        #: attack -> {"attacked": [...], "tenants_probed": [...], ...}
        self.attack_meta = {}

    def cell(self, attack, probe):
        for entry in self.cells:
            if entry["attack"] == attack and entry["probe"] == probe:
                return entry
        raise KeyError(f"no cell for attack={attack!r} probe={probe!r}")

    def as_dict(self):
        return {
            "seed": self.seed,
            "probes": list(self.probe_names),
            "attacks": list(self.attacks),
            "fleet": {
                key: value
                for key, value in sorted(self.fleet_params.items())
            },
            "attack_meta": {
                attack: dict(sorted(meta.items()))
                for attack, meta in sorted(self.attack_meta.items())
            },
            "cells": [dict(sorted(cell.items())) for cell in self.cells],
            "ledger_rows": len(self.ledger),
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def summary(self):
        lines = [
            f"probe score matrix: seed={self.seed} "
            f"probes={len(self.probe_names)} attacks={len(self.attacks)} "
            f"ledger={len(self.ledger)} rows"
        ]
        for attack in self.attacks:
            meta = self.attack_meta[attack]
            lines.append(
                f"  attack={attack:<15} attacked={len(meta['attacked'])} "
                f"tenants={len(meta['tenants_probed'])} "
                f"window={meta['window_seconds']:.1f}s"
            )
            for probe in self.probe_names:
                cell = self.cell(attack, probe)
                recall = (
                    "   -"
                    if cell["recall"] is None
                    else f"{cell['recall']:.2f}"
                )
                latency = (
                    "      -"
                    if cell["mean_latency_seconds"] is None
                    else f"{cell['mean_latency_seconds']:6.1f}s"
                )
                lines.append(
                    f"    {probe:<16} recall={recall} "
                    f"fp={cell['false_positives']}/{cell['clean_tenants']} "
                    f"latency={latency} "
                    f"cost={cell['probe_seconds']:.1f}s "
                    f"share={cell['overhead_share']:.2f}"
                )
        return "\n".join(lines)


class ScoreMatrix:
    """Runs the full probe×attack grid off one warmed fleet.

    The default fleet shape is the 4x12 detection-recall scenario every
    existing pin uses (seed 42, 12 tenants on 4 hosts, fleet budget
    file_pages=12 / wait_seconds=10), so the CloudSkulk column is
    directly comparable to the plain
    :func:`~repro.cloud.fleet.run_fleet` campaign recall.  Every leg
    runs serially in this process.
    """

    def __init__(
        self,
        seed=42,
        hosts=4,
        tenants=12,
        churn_operations=6,
        rebalance_moves=1,
        overcommit=1.0,
        settle_seconds=0.0,
        probes=None,
        attacks=ATTACKS,
        campaigns=1,
        sweeps=1,
        sweeps_per_hour=2.0,
        max_concurrent_probes=2,
        file_pages=12,
        wait_seconds=10.0,
        spy_lead_in_seconds=150.0,
        spy_payload=b"exfiltrate-keys!",
    ):
        from repro.probes.base import registered_probes

        if probes is None:
            probes = tuple(registered_probes())
        self.probes = resolve_probes(probes)
        self.attacks = tuple(attacks)
        for attack in self.attacks:
            if attack not in ATTACKS:
                raise ReproError(
                    f"unknown attack {attack!r}; known: {', '.join(ATTACKS)}"
                )
        if len(set(self.attacks)) != len(self.attacks):
            raise ReproError("attack listed twice")
        self.seed = seed
        self.warm_params = dict(
            hosts=hosts,
            tenants=tenants,
            seed=seed,
            churn_operations=churn_operations,
            rebalance_moves=rebalance_moves,
            overcommit=overcommit,
            settle_seconds=settle_seconds,
        )
        self.campaigns = campaigns
        self.sweeps = sweeps
        self.sweeps_per_hour = sweeps_per_hour
        self.max_concurrent_probes = max_concurrent_probes
        self.file_pages = file_pages
        self.wait_seconds = wait_seconds
        self.spy_lead_in_seconds = spy_lead_in_seconds
        self.spy_payload = spy_payload

    # -- attack legs ------------------------------------------------------

    def _build_monitor(self, datacenter):
        return FleetMonitor(
            datacenter,
            sweeps_per_hour=self.sweeps_per_hour,
            max_concurrent_probes=self.max_concurrent_probes,
            file_pages=self.file_pages,
            wait_seconds=self.wait_seconds,
            probes=self.probes,
        )

    def _eligible(self, datacenter):
        """Depth-1 running tenants, the attack target pool."""
        return [
            tenant
            for tenant in datacenter.running_tenants()
            if tenant.guest is not None and tenant.guest.depth == 1
        ]

    def _run_leg(self, attack, root):
        """Run one attack leg on a (forked or live) warm fleet root.

        Returns (monitor, truth) where ``truth`` maps attacked tenant
        name -> attack installation virtual time.
        """
        datacenter = root[0]
        engine = datacenter.engine
        monitor = self._build_monitor(datacenter)
        truth = {}

        if attack == "clean":
            engine.run(monitor.run_periodic(max_sweeps=self.sweeps))

        elif attack == "cloudskulk":
            campaign = AttackCampaign(datacenter, count=self.campaigns)

            def control():
                yield from campaign.run()
                yield monitor.run_periodic(max_sweeps=self.sweeps)

            engine.run(engine.process(control(), name="score-cloudskulk"))
            truth = {
                event.tenant_name: event.installed_at
                for event in campaign.events
            }

        elif attack == "vmi_subversion":
            rng = datacenter.rng.stream("probes.vmi_subversion")
            pool = self._eligible(datacenter)
            if not pool:
                raise ReproError("no eligible tenant to subvert")
            target = pool[rng.randrange(len(pool))]
            alive = sorted(
                (proc.pid, proc.name, proc.user)
                for proc in target.guest.kernel.table.processes()
                if proc.alive
            )
            # The attacker hides one process from the VMI view — the
            # classic DKSM motivation.
            hidden = alive[rng.randrange(len(alive))]
            forge_process_view(
                target.guest, [entry for entry in alive if entry != hidden]
            )
            truth = {target.name: engine.now}
            engine.run(monitor.run_periodic(max_sweeps=self.sweeps))

        elif attack == "dedup_spy":
            rng = datacenter.rng.stream("probes.dedup_spy")
            by_host = {}
            for tenant in self._eligible(datacenter):
                by_host.setdefault(tenant.host.name, []).append(tenant)
            pairs = sorted(
                host for host, group in by_host.items() if len(group) >= 2
            )
            if not pairs:
                raise ReproError("no co-resident tenant pair for the channel")
            group = by_host[pairs[rng.randrange(len(pairs))]]
            sender, receiver = group[0], group[1]
            channel = DedupCovertChannel(
                sender.guest, receiver.guest, seed="score-spy"
            )
            started = engine.now
            truth = {sender.name: started, receiver.name: started}

            def spy_loop():
                # Keep the channel busy for the whole leg; the monitor
                # process below bounds the run, not this one.
                while True:
                    yield from channel.transmit(
                        self.spy_payload, settle_seconds=6.0
                    )

            engine.process(spy_loop(), name="score-spy-channel")

            def control():
                # ksmd needs a couple of full-scan cycles before the
                # channel's plants start merging; sweep steady state.
                yield engine.timeout(self.spy_lead_in_seconds)
                yield monitor.run_periodic(max_sweeps=self.sweeps)

            engine.run(engine.process(control(), name="score-dedup-spy"))

        else:  # pragma: no cover - guarded in __init__
            raise ReproError(f"unknown attack {attack!r}")

        return monitor, truth

    # -- scoring ----------------------------------------------------------

    def _ledger_rows(self, attack, monitor):
        """Flatten every probe run of a leg into ledger rows.

        Synthetic findings (crashed hosts carry no per-probe verdicts)
        expand to one ``unreachable`` row per scheduled probe so row
        totals always conserve: rows == tenants_probed × probes per
        sweep.
        """
        rows = []
        for report in monitor.reports:
            for host_name in sorted(report.host_reports):
                host_report = report.host_reports[host_name]
                for finding in sorted(
                    host_report.findings, key=lambda f: f.tenant_name
                ):
                    if finding.probe_verdicts:
                        verdicts = finding.probe_verdicts.values()
                        for verdict in verdicts:
                            rows.append(
                                {
                                    "attack": attack,
                                    "sweep_id": report.sweep_id,
                                    "host": host_name,
                                    "tenant": finding.tenant_name,
                                    "probe": verdict.probe,
                                    "verdict": verdict.verdict,
                                    "flagged": verdict.flagged,
                                    "finished_at": verdict.finished_at,
                                    "duration": verdict.duration,
                                }
                            )
                    else:
                        for probe in self.probes:
                            rows.append(
                                {
                                    "attack": attack,
                                    "sweep_id": report.sweep_id,
                                    "host": host_name,
                                    "tenant": finding.tenant_name,
                                    "probe": probe.name,
                                    "verdict": "unreachable",
                                    "flagged": False,
                                    "finished_at": report.finished_at,
                                    "duration": 0.0,
                                }
                            )
        return rows

    @staticmethod
    def score_cells(attack, probe_names, rows, truth, window_seconds):
        """Derive the (attack, probe) cells from ledger rows alone.

        Pure and static so the property suite can re-derive cells from
        a report's ledger and diff against the published ones.
        """
        total_probe_seconds = math.fsum(row["duration"] for row in rows)
        cells = []
        for probe_name in probe_names:
            mine = [row for row in rows if row["probe"] == probe_name]
            tenants = sorted({row["tenant"] for row in mine})
            first_flagged = {}
            for row in mine:  # rows are in sweep order
                if row["flagged"]:
                    first_flagged.setdefault(row["tenant"], row)
            attacked = sorted(truth)
            true_positives = sorted(
                name for name in first_flagged if name in truth
            )
            false_positives = sorted(
                name for name in first_flagged if name not in truth
            )
            clean_tenants = [name for name in tenants if name not in truth]
            latencies = [
                first_flagged[name]["finished_at"] - truth[name]
                for name in true_positives
            ]
            probe_seconds = math.fsum(row["duration"] for row in mine)
            cells.append(
                {
                    "attack": attack,
                    "probe": probe_name,
                    "expected_signal": EXPECTED_SIGNAL.get(attack),
                    "tenants_probed": len(tenants),
                    "attacked": len(attacked),
                    "true_positives": len(true_positives),
                    "recall": (
                        len(true_positives) / len(attacked)
                        if attacked
                        else None
                    ),
                    "false_positives": len(false_positives),
                    "clean_tenants": len(clean_tenants),
                    "fp_rate": (
                        len(false_positives) / len(clean_tenants)
                        if clean_tenants
                        else 0.0
                    ),
                    "mean_latency_seconds": (
                        math.fsum(latencies) / len(latencies)
                        if latencies
                        else None
                    ),
                    "probe_seconds": probe_seconds,
                    "overhead_share": (
                        probe_seconds / total_probe_seconds
                        if total_probe_seconds
                        else 0.0
                    ),
                    "window_seconds": window_seconds,
                }
            )
        return cells

    def run(self):
        """Run every leg; returns the ScoreReport.

        Legs fork one warm fleet (or, for a single attack, run on it
        live) through :meth:`WarmFleet.substrate
        <repro.cloud.fleet.WarmFleet.substrate>`, with the warm heap
        frozen and each leg collected before the next runs.
        """
        import gc

        from repro.sim.snapshot import heap_frozen

        probe_names = [probe.name for probe in self.probes]
        report = ScoreReport(
            self.seed, probe_names, self.attacks, self.warm_params
        )
        fleet = warm_fleet(
            capture=len(self.attacks) > 1, **self.warm_params
        )
        with fleet, heap_frozen():
            for attack in self.attacks:
                with fleet.substrate() as root:
                    monitor, truth = self._run_leg(attack, root)
                    rows, meta = self._collect(attack, monitor, truth)
                del monitor  # the leg's world is garbage from here on
                report.ledger.extend(rows)
                report.attack_meta[attack] = meta
                report.cells.extend(
                    self.score_cells(
                        attack, probe_names, rows, truth,
                        meta["window_seconds"],
                    )
                )
                gc.collect()
        return report

    def _collect(self, attack, monitor, truth):
        rows = self._ledger_rows(attack, monitor)
        if not monitor.reports:
            raise ReproError(f"attack leg {attack!r} produced no sweeps")
        started = monitor.reports[0].started_at
        finished = monitor.reports[-1].finished_at
        meta = {
            "attacked": sorted(truth),
            # name -> install virtual time, as sorted pairs: with the
            # ledger this is everything needed to re-derive the cells.
            "attacked_at": [[name, truth[name]] for name in sorted(truth)],
            "tenants_probed": sorted({row["tenant"] for row in rows}),
            "sweeps": len(monitor.reports),
            "window_seconds": finished - started,
            "alerts": [
                [tenant, host, at] for tenant, host, at in monitor.alerts
            ],
        }
        return rows, meta
