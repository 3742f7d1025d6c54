"""Chaos campaigns: score detection under standard fault mixes.

A :class:`ChaosCampaign` runs one seeded fleet experiment per *fault
mix* — a named subset of the fault catalog (infrastructure loss,
network degradation, migration transport, stealth interference) — and
folds each run's detection recall/latency, injection counts, and
degradation tallies into a :class:`ChaosReport`.

Everything is derived from the campaign seed through the same
:class:`~repro.sim.rng.RngRegistry` discipline the fleet uses, so the
same seed produces byte-identical report JSON (the differential
determinism tests diff exactly :meth:`ChaosReport.to_json`).
"""

import json

from repro.faults.plan import FAULT_KINDS, FaultError, FaultPlan
from repro.sim.rng import RngRegistry

#: Named fault mixes: which corner of the fault catalog each campaign
#: leg stresses.  ``mixed`` draws from everything.
STANDARD_MIXES = {
    "infra": ("host_crash", "ksm_stall"),
    "network": ("partition", "latency_spike"),
    "migration": ("migration_drop", "latency_spike"),
    "stealth": ("probe_timeout", "guest_hang"),
    "mixed": FAULT_KINDS,
}

#: The fleet shape a chaos leg runs by default — deliberately the same
#: 4-host/12-tenant configuration as the ``fleet_sweep_4x12`` benchmark
#: so the fault-free baseline is directly comparable.
DEFAULT_FLEET_PARAMS = dict(
    hosts=4,
    tenants=12,
    churn_operations=6,
    rebalance_moves=1,
    campaigns=1,
    sweeps=1,
    file_pages=12,
    wait_seconds=10.0,
)


def standard_mix_plan(mix, seed, faults=5, horizon=240.0, stream=None):
    """The deterministic :class:`FaultPlan` for one named mix.

    ``stream`` overrides the registry stream the plan is drawn from
    (default ``faults.mix.<mix>``); fan-out drivers pass a per-branch
    name so N branches of the same mix get independent plans from the
    same campaign seed.
    """
    try:
        kinds = STANDARD_MIXES[mix]
    except KeyError:
        raise FaultError(
            f"unknown fault mix {mix!r} (choose from {sorted(STANDARD_MIXES)})"
        ) from None
    rng = RngRegistry(seed).stream(stream or f"faults.mix.{mix}")
    return FaultPlan.random(rng, faults=faults, horizon=horizon, kinds=kinds)


class ChaosReport:
    """Deterministic scorecard of one chaos campaign."""

    def __init__(self, seed, faults_per_mix, horizon):
        self.seed = seed
        self.faults_per_mix = faults_per_mix
        self.horizon = horizon
        #: One dict per mix leg, in run order.
        self.entries = []

    def as_dict(self):
        return {
            "seed": self.seed,
            "faults_per_mix": self.faults_per_mix,
            "horizon": self.horizon,
            "entries": self.entries,
        }

    def to_json(self):
        """Byte-identical across same-seed campaigns."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @property
    def mean_recall(self):
        if not self.entries:
            return 0.0
        return sum(e["recall"] for e in self.entries) / len(self.entries)

    def summary(self):
        lines = [
            f"chaos campaign: seed={self.seed} mixes={len(self.entries)} "
            f"mean recall {self.mean_recall:.2f}"
        ]
        for entry in self.entries:
            latency = (
                f"{entry['mean_detection_latency']:.3f}s"
                if entry["mean_detection_latency"] is not None
                else "n/a"
            )
            lines.append(
                f"  {entry['mix']:<10} recall={entry['recall']:.2f} "
                f"latency={latency} "
                f"injected={entry['faults_injected']} "
                f"recovered={entry['faults_recovered']} "
                f"degraded={entry['tenants_degraded']} "
                f"unreachable={entry['unreachable_findings']}"
            )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"<ChaosReport seed={self.seed} entries={len(self.entries)} "
            f"recall={self.mean_recall:.2f}>"
        )


class ChaosCampaign:
    """Runs one fleet experiment per fault mix and scores the outcome."""

    def __init__(
        self,
        seed=1701,
        mixes=("infra", "migration", "mixed"),
        faults_per_mix=5,
        horizon=240.0,
        fleet_params=None,
        trace=False,
    ):
        self.seed = int(seed)
        self.mixes = tuple(mixes)
        for mix in self.mixes:
            if mix not in STANDARD_MIXES:
                raise FaultError(
                    f"unknown fault mix {mix!r} "
                    f"(choose from {sorted(STANDARD_MIXES)})"
                )
        self.faults_per_mix = faults_per_mix
        self.horizon = horizon
        params = dict(DEFAULT_FLEET_PARAMS)
        if fleet_params:
            params.update(fleet_params)
        self.fleet_params = params
        self.trace = trace
        #: FleetRunResult per mix leg (trace export, post-mortems).
        self.results = []

    def plan_for(self, mix, branch=0):
        """The plan for one leg; ``branch`` > 0 derives an independent
        plan for the Nth fan-out branch of the same mix."""
        stream = f"faults.mix.{mix}" if not branch else f"faults.mix.{mix}#{branch}"
        return standard_mix_plan(
            mix,
            self.seed,
            faults=self.faults_per_mix,
            horizon=self.horizon,
            stream=stream,
        )

    def run(self):
        """Run every mix leg cold; returns the :class:`ChaosReport`.

        Each leg replays the whole fleet experiment — warm-up included
        — with the mix's faults armed from t=0, so faults can land in
        the provisioning/churn phase too.  :meth:`run_fanout` is the
        warm-once variant where faults only hit the branch phase.
        """
        from repro.cloud.fleet import run_fleet

        report = ChaosReport(self.seed, self.faults_per_mix, self.horizon)
        params = {
            k: v
            for k, v in self.fleet_params.items()
            if k != "settle_seconds"  # a fan-out-only knob
        }
        for mix in self.mixes:
            result = run_fleet(
                seed=self.seed,
                faults=self.plan_for(mix),
                trace=self.trace,
                **params,
            )
            self.results.append(result)
            report.entries.append(self._score(mix, result))
        return report

    def run_fanout(self, branches_per_mix=1, processes=None):
        """Warm one fleet, fan every leg out as a COW fork branch.

        The expensive prefix (provision, churn, rebalance, optional
        ``settle_seconds`` of KSM convergence) runs once; each leg —
        ``branches_per_mix`` independent fault plans per mix — forks the
        snapshot and plays its plan relative to the fork point.  Faults
        therefore never hit the warm-up, which is the experimental
        difference from :meth:`run` (and why the two reports legitimately
        differ for the same seed).

        ``processes`` > 1 spreads the legs across forked workers
        (:func:`~repro.cloud.fleet.fan_out_jobs`); each worker warms
        its own identical same-seed fleet, and the scored entries merge
        back in leg order.  ``self.results`` only collects
        :class:`FleetRunResult` objects in the serial path.

        Returns a :class:`ChaosReport` whose entries carry a ``branch``
        index next to ``mix``.
        """
        from repro.cloud.fleet import fan_out_jobs

        if branches_per_mix < 1:
            raise FaultError(
                f"branches_per_mix must be >= 1, got {branches_per_mix}"
            )
        params = dict(self.fleet_params, seed=self.seed)
        jobs = [
            ((mix, index), dict(params, faults=self.plan_for(mix, index)))
            for mix in self.mixes
            for index in range(branches_per_mix)
        ]
        report = ChaosReport(self.seed, self.faults_per_mix, self.horizon)
        _groups, entries = fan_out_jobs(
            jobs,
            self._score_leg,
            processes=processes,
            trace=self.trace,
            keep_results=self.results,
        )
        report.entries.extend(entries)
        return report

    @classmethod
    def _score_leg(cls, leg, result):
        mix, index = leg
        return dict(cls._score(mix, result), branch=index)

    @staticmethod
    def _score(mix, result):
        dc = result.datacenter
        perf = dc.engine.perf
        injector = result.injector
        latencies = result.detection_latencies
        mean_latency = (
            sum(latencies) / len(latencies) if latencies else None
        )
        degraded = sorted(
            name
            for name, tenant in dc.tenants.items()
            if tenant.state == "degraded"
        )
        unreachable = sum(
            len(r.unreachable) for r in result.monitor.reports
        )
        return {
            "mix": mix,
            "faults_planned": len(injector.plan),
            "faults_injected": perf.faults_injected,
            "faults_recovered": perf.faults_recovered,
            "injections": list(injector.injections),
            "campaigns": len(result.campaign.events),
            "detected": result.detected_campaigns,
            "recall": result.recall,
            "detection_latencies": latencies,
            "mean_detection_latency": mean_latency,
            "tenants_running": len(dc.running_tenants()),
            "tenants_degraded": degraded,
            "unreachable_findings": unreachable,
            "virtual_time": dc.engine.now,
        }
