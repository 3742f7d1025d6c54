"""Deterministic matrix run reports.

One :class:`MatrixReport` collects one entry per variant: the variant's
resolved parameters, its virtual-time *fingerprint* (verdict/recall
metrics — everything expected-result pinning compares), the
branch-phase perf-counter deltas, and the wall-clock cost.  Same seed,
same spec → byte-identical :meth:`MatrixReport.to_json`; wall clocks
and warm-group timing are excluded from the deterministic form (pass
``include_timing=True`` to keep them, mirroring how the tracer keeps
wall stamps out of exported traces by default).
"""

import json


def branch_fingerprint(result):
    """The deterministic outcome of one branch (a FleetRunResult).

    Everything here is virtual-time state: two runs of the same variant
    must produce equal dicts, and a warm-forked branch must equal its
    cold twin.
    """
    dc = result.datacenter
    latencies = list(result.detection_latencies)
    return {
        "virtual_now": dc.engine.now,
        "campaigns": len(result.campaign.events),
        "detected": result.detected_campaigns,
        "recall": result.recall,
        "detection_latencies": latencies,
        "mean_detection_latency": (
            sum(latencies) / len(latencies) if latencies else None
        ),
        "faults_injected": dc.engine.perf.faults_injected,
        "faults_recovered": dc.engine.perf.faults_recovered,
        "tenants_running": len(dc.running_tenants()),
        "tenants_degraded": sorted(
            name
            for name, tenant in dc.tenants.items()
            if tenant.state == "degraded"
        ),
        "unreachable_findings": sum(
            len(report.unreachable) for report in result.monitor.reports
        ),
        "sweeps": [
            {
                "tenants_probed": report.tenants_probed,
                "compromised": [f"{t}@{h}" for t, h in report.compromised],
            }
            for report in result.monitor.reports
        ],
    }


class MatrixReport:
    """Everything one matrix run produced, deterministically."""

    def __init__(self, name, spec_source=None):
        self.name = name
        self.spec_source = spec_source
        #: One dict per variant, in expansion order.
        self.entries = []
        #: One dict per warm group, in run order.
        self.groups = []

    def add(self, entry):
        self.entries.append(entry)

    def entry_for(self, variant_id):
        for entry in self.entries:
            if entry["variant"] == variant_id:
                return entry
        raise KeyError(variant_id)

    def fingerprints(self):
        """``{variant_id: fingerprint}`` — the pinnable surface."""
        return {
            entry["variant"]: entry["fingerprint"] for entry in self.entries
        }

    def as_dict(self, include_timing=False):
        entries = []
        for entry in self.entries:
            rendered = dict(entry)
            if not include_timing:
                rendered.pop("wall_seconds", None)
                # Per-variant metrics ride outside the pinned canonical
                # form, like wall clocks.
                rendered.pop("metrics", None)
            entries.append(rendered)
        groups = []
        for group in self.groups:
            rendered = dict(group)
            if not include_timing:
                rendered.pop("warm_wall_seconds", None)
            groups.append(rendered)
        return {
            "matrix": self.name,
            "variants": len(self.entries),
            "warm_groups": groups,
            "entries": entries,
        }

    def to_json(self, include_timing=False):
        """Byte-identical across same-spec, same-seed runs."""
        return (
            json.dumps(
                self.as_dict(include_timing=include_timing),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )

    def write(self, path, include_timing=True):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(include_timing=include_timing))

    @classmethod
    def from_dict(cls, data):
        report = cls(data.get("matrix", "matrix"))
        report.entries = list(data.get("entries", []))
        report.groups = list(data.get("warm_groups", []))
        return report

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def variant_metrics(self):
        """``{variant_id: metrics}`` for entries that carry metrics
        (every entry of a run; a report loaded from canonical JSON has
        none)."""
        return {
            entry["variant"]: entry["metrics"]
            for entry in self.entries
            if "metrics" in entry
        }

    def probe_budget_violations(self, budget_pct):
        """Variants whose probe overhead exceeds ``budget_pct`` percent.

        Returns ``[(variant_id, overhead_pct)]`` sorted worst-first.
        """
        violations = [
            (variant_id, metrics["probe_overhead_pct"])
            for variant_id, metrics in self.variant_metrics().items()
            if metrics["probe_overhead_pct"] > budget_pct
        ]
        return sorted(violations, key=lambda pair: (-pair[1], pair[0]))

    @property
    def total_wall_seconds(self):
        total = sum(e.get("wall_seconds", 0.0) for e in self.entries)
        total += sum(g.get("warm_wall_seconds", 0.0) for g in self.groups)
        return total

    @property
    def mean_recall(self):
        if not self.entries:
            return 0.0
        return sum(
            e["fingerprint"]["recall"] for e in self.entries
        ) / len(self.entries)

    def summary(self):
        lines = [
            f"matrix {self.name}: {len(self.entries)} variants across "
            f"{len(self.groups)} warm groups, mean recall "
            f"{self.mean_recall:.2f}"
        ]
        for entry in self.entries:
            fp = entry["fingerprint"]
            latency = (
                f"{fp['mean_detection_latency']:.3f}s"
                if fp["mean_detection_latency"] is not None
                else "n/a"
            )
            lines.append(
                f"  {entry['variant']}  recall={fp['recall']:.2f} "
                f"latency={latency} faults={fp['faults_injected']} "
                f"vt={fp['virtual_now']:.1f}s"
            )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"<MatrixReport {self.name} variants={len(self.entries)} "
            f"groups={len(self.groups)}>"
        )
