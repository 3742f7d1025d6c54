"""Shared fleet/detection fingerprint helpers and pinned baselines.

One place for the constants and fingerprint extractors that several
suites (chaos determinism, fleet fan-out, page store, scenario matrix)
previously each carried a private copy of:

* ``FLEET_4X12`` — the exact parameter set of the ``fleet_sweep_4x12``
  benchmark scenario, whose fingerprint is pinned in
  benchmarks/baseline.json / BENCH_core.json;
* ``FLEET_SWEEP_4X12_PIN`` / :func:`fleet_sweep_fingerprint` — the
  recorded outcome of that scenario and the extractor that reproduces
  its shape from any :class:`FleetRunResult`;
* :func:`fleet_fingerprint` — the rich everything-a-branch-computed
  fingerprint used by the fork-determinism bar;
* ``DETECTION_PINS_SEED7`` / :func:`detection_fingerprint` — the paper's
  Figs 5/6 single-host medians at seed 7, pinned pre-page-store-swap.

Any drift against a pin means simulated behaviour changed — these are
regression tripwires, not tunables.  Re-pin only with a bench baseline
refresh.
"""

#: The exact parameter set of the ``fleet_sweep_4x12`` benchmark
#: scenario (benchmarks/perf_report.py).
FLEET_4X12 = dict(
    hosts=4,
    tenants=12,
    seed=42,
    churn_operations=6,
    rebalance_moves=1,
    campaigns=1,
    sweeps=1,
    file_pages=12,
    wait_seconds=10.0,
)

#: The recorded ``fleet_sweep_4x12`` fingerprint, matched exactly — any
#: drift means something perturbed the fault-free baseline.
FLEET_SWEEP_4X12_PIN = {
    "virtual_now": 538.6211645267207,
    "placements": 15,
    "migrations": 1,
    "tenants_probed": 13,
    "compromised": ["t000@h02"],
    "recall": 1.0,
}


def fleet_sweep_fingerprint(result):
    """The ``FLEET_SWEEP_4X12_PIN``-shaped summary of a fleet run."""
    engine = result.datacenter.engine
    sweep = result.monitor.reports[0]
    return {
        "virtual_now": engine.now,
        "placements": engine.perf.cloud_placements,
        "migrations": engine.perf.cloud_migrations,
        "tenants_probed": sweep.tenants_probed,
        "compromised": [f"{t}@{h}" for t, h in sweep.compromised],
        "recall": result.recall,
    }


def fleet_fingerprint(result):
    """Everything a branch computed, down to the sweep summaries.

    The fork-determinism comparator: a branch forked off a warmed fleet
    must produce a fingerprint equal to the same branch run cold.
    """
    engine = result.datacenter.engine
    return {
        "virtual_now": engine.now,
        "recall": result.recall,
        "latencies": tuple(result.detection_latencies),
        "campaigns": [
            (e.tenant_name, e.host_name, e.installed_at, e.detected_at)
            for e in result.campaign.events
        ],
        "sweeps": [report.summary() for report in result.monitor.reports],
        "injections": (
            None if result.injector is None else result.injector.injections
        ),
        "inventory": result.datacenter.inventory_lines(),
    }


#: Figs 5/6 medians at seed 7 (file_pages=8, wait_seconds=6.0), captured
#: on the commit preceding the page-store swap.
DETECTION_PINS_SEED7 = {
    "clean": {
        "verdict": "clean",
        "median_t0": 0.2514679386400156,
        "median_t1": 382.90126544443945,
        "median_t2": 0.2512034459957102,
        "virtual_now": 47.725200102624754,
    },
    "nested": {
        "verdict": "nested",
        "median_t0": 0.2514679386400156,
        "median_t1": 382.90126544443945,
        "median_t2": 382.08044135947523,
        "virtual_now": 89.96699765255683,
    },
}


def detection_fingerprint(nested, seed=7, file_pages=8, wait_seconds=6.0):
    """Run one single-host detection scenario and fingerprint it."""
    from repro import scenarios
    from repro.core.detection.dedup_detector import DedupDetector

    host, cloud, _ksm, _locator = scenarios.detection_setup(
        nested=nested, seed=seed
    )
    detector = DedupDetector(
        host, cloud, file_pages=file_pages, wait_seconds=wait_seconds
    )
    report = host.engine.run(host.engine.process(detector.run()))
    verdict = report.verdict
    return {
        "verdict": verdict.verdict,
        "median_t0": verdict.median_t0,
        "median_t1": verdict.median_t1,
        "median_t2": verdict.median_t2,
        "virtual_now": host.engine.now,
    }
