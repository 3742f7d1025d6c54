"""The warm-fork-aware matrix runner.

Variants that agree on every warm-up parameter (topology, churn,
settle window, seed — see :data:`~repro.cloud.fleet.WARM_KEYS`) replay
byte-identical warm prefixes, so the runner hands every variant to the
fleet fan-out executor (:func:`~repro.cloud.fleet.fan_out_jobs`), which
pays each prefix once: one :func:`~repro.cloud.fleet.warm_fleet`
snapshot per group, one copy-on-write fork per variant.  A
single-variant group skips the capture and runs its one branch on the
live fleet — the fork layer guarantees forked == cold fingerprints, so
the grouping decision never shows in the results, only in the wall
clock.

``processes > 1`` spreads warm groups — or, with fewer groups than
workers, round-robin slices of them — across forked workers.  Every
worker warms its own identical fleet, the warm-group records are
built by the parent, and entries merge back in expansion order, so the
pooled report is byte-identical to serial.
"""

from repro.errors import ReproError
from repro.matrix.expand import expand
from repro.matrix.report import MatrixReport, branch_fingerprint
from repro.matrix.spec import parse_fault_spec


class MatrixError(ReproError):
    """A matrix run that cannot proceed (bad runner arguments)."""


#: Perf counters that legitimately differ between a forked branch and
#: its cold twin (fork bookkeeping the live run never pays); excluded
#: from the recorded deltas so grouping stays invisible in reports.
_FORK_ONLY_COUNTERS = frozenset(
    ("snapshot_captures", "engine_forks", "fork_pages_shared", "fork_cow_breaks")
)


def build_fault_plan(fault_spec, seed):
    """A variant's ``faults`` shorthand → armed-ready FaultPlan or None."""
    parsed = parse_fault_spec(fault_spec)
    if parsed is None:
        return None
    from repro.faults.chaos import standard_mix_plan

    mix, stream_suffix, count, horizon = parsed
    stream = f"faults.mix.{mix}#{stream_suffix}" if stream_suffix else None
    return standard_mix_plan(
        mix, seed, faults=count, horizon=horizon, stream=stream
    )


def _perf_delta(engine, warm_perf):
    """Branch-phase counter increments, fork bookkeeping excluded."""
    return {
        name: value
        for name, value in engine.perf.delta(warm_perf).items()
        if value and name not in _FORK_ONLY_COUNTERS
    }


def _variant_entry(variant, result):
    params = {}
    for key, value in sorted(variant.params.items()):
        params[key] = list(value) if isinstance(value, tuple) else value
    return {
        "variant": variant.variant_id,
        "axes": dict(variant.labels),
        "params": params,
        "fingerprint": branch_fingerprint(result),
        "perf_delta": _perf_delta(result.datacenter.engine, result.branch_perf),
        "wall_seconds": round(result.branch_wall_seconds, 3),
        # Per-variant probe-overhead attribution; excluded from the
        # canonical JSON (like wall clocks) so pins don't churn.
        "metrics": result.probe_metrics(since_seconds=result.branched_at),
    }


class MatrixRunner:
    """Expands a spec and runs every variant through the fleet harness.

    Each variant's branch runs in one process; ``processes`` is the
    only parallelism (whole branches spread over forked workers).
    """

    def __init__(self, spec, processes=None, warm_fork=True):
        if processes is not None and processes < 1:
            raise MatrixError(
                f"--processes must be >= 1, got {processes}"
            )
        self.spec = spec
        self.processes = processes
        self.warm_fork = warm_fork
        #: FleetRunResults in expansion order (serial runs only).
        self.results = []

    def run(self, only=None, no=None):
        """Run the matrix; returns a :class:`MatrixReport`.

        ``only``/``no`` sub-select variants with the same filter syntax
        the spec uses.  The report's entries land in expansion order
        regardless of warm grouping or pool scheduling.
        """
        from repro.cloud.fleet import fan_out_jobs

        variants = {
            variant.variant_id: variant
            for variant in expand(self.spec, only=only, no=no)
        }
        jobs = []
        for variant_id, variant in variants.items():
            params = dict(variant.params)
            params["faults"] = build_fault_plan(
                params.get("faults"), params.get("seed", 1701)
            )
            jobs.append((variant_id, params))

        def score(variant_id, result):
            return _variant_entry(variants[variant_id], result)

        groups, entries = fan_out_jobs(
            jobs,
            score,
            processes=self.processes,
            warm_fork=self.warm_fork,
            keep_results=self.results,
        )
        report = MatrixReport(self.spec.name)
        report.groups, report.entries = groups, entries
        return report
