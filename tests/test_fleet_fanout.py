"""Warm-once fleet fan-out: fork determinism and the fan-out drivers.

The correctness bar for the snapshot layer at fleet scale: a branch
forked off a warmed fleet must produce *byte-identical* results to the
same branch run cold (same seed, same plan, warm-up replayed live).
CI runs the ``determinism`` subset of this file as its own named step.

All tests here run whole fleet experiments, so the module carries the
``chaos`` marker (deselected by ``make test-fast``).
"""

import pytest

from repro.cloud import warm_fleet
from repro.faults import ChaosCampaign
from repro.faults.chaos import standard_mix_plan
from repro.faults.plan import FaultError
from repro.sim.snapshot import SnapshotError
from tests.fleet_helpers import fleet_fingerprint as _fingerprint

pytestmark = pytest.mark.chaos

#: The 4x12 shape every test warms (the chaos-default fleet).
WARM_PARAMS = dict(
    hosts=4,
    tenants=12,
    seed=1701,
    churn_operations=6,
    rebalance_moves=1,
)

#: The branch suffix (chaos-default detection budget).
BRANCH_PARAMS = dict(
    campaigns=1,
    sweeps=1,
    file_pages=12,
    wait_seconds=10.0,
)


def _cold_branch(**branch_params):
    """The comparator: same warm-up replayed live, then the branch."""
    return warm_fleet(capture=False, **WARM_PARAMS).branch(**branch_params)


@pytest.fixture(scope="module")
def warmed():
    """One captured warm fleet shared by the determinism tests."""
    fleet = warm_fleet(**WARM_PARAMS)
    yield fleet
    fleet.dispose()


def test_forked_chaos_branch_matches_cold_determinism(warmed):
    plan = standard_mix_plan("mixed", 1701, faults=5, horizon=240.0)
    forked = _fingerprint(warmed.branch(faults=plan, **BRANCH_PARAMS))
    again = _fingerprint(warmed.branch(faults=plan, **BRANCH_PARAMS))
    cold = _fingerprint(_cold_branch(faults=plan, **BRANCH_PARAMS))
    assert forked == again  # forks don't consume snapshot state
    assert forked == cold


def test_forked_detection_sweep_matches_cold_determinism(warmed):
    # A different detector budget than the chaos default: the fork must
    # reproduce the cold sweep for arbitrary branch configs, fault-free.
    config = dict(BRANCH_PARAMS, file_pages=25, wait_seconds=20.0)
    forked = _fingerprint(warmed.branch(**config))
    cold = _fingerprint(_cold_branch(**config))
    assert forked == cold


def test_fan_out_drivers(warmed):
    # Per-detector-config: distinct budgets, distinct sweep outcomes
    # allowed — but each must be internally scored.
    configs = [
        {"file_pages": 12, "wait_seconds": 10.0},
        {"file_pages": 25, "wait_seconds": 20.0},
    ]
    by_config = warmed.fan_out(
        [dict(campaigns=1, sweeps=1, **config) for config in configs]
    )
    assert len(by_config) == 2
    assert all(result.monitor.reports for result in by_config)

    # Per-seed: same fleet, independent attacker streams; same stream
    # twice must reproduce exactly.
    seeded = warmed.fan_out(
        [
            dict(BRANCH_PARAMS, campaign_stream=f"cloud.campaign#{index}")
            for index in range(2)
        ]
    )
    assert len(seeded) == 2
    repeat = warmed.branch(
        campaign_stream="cloud.campaign#0", **BRANCH_PARAMS
    )
    assert _fingerprint(repeat) == _fingerprint(seeded[0])


def test_live_fleet_is_single_branch():
    live = warm_fleet(capture=False, **WARM_PARAMS)
    live.branch(**BRANCH_PARAMS)
    with pytest.raises(SnapshotError):
        live.branch(**BRANCH_PARAMS)


def test_chaos_run_fanout_report_is_deterministic():
    def report_json():
        campaign = ChaosCampaign(
            seed=7, mixes=("infra", "mixed"), faults_per_mix=3
        )
        return campaign.run_fanout(branches_per_mix=2).to_json()

    first = report_json()
    assert first == report_json()
    assert '"branch": 1' in first  # per-mix fan-out actually happened


@pytest.mark.parametrize("branches", [0, -2])
def test_chaos_run_fanout_rejects_non_positive_branches(branches):
    campaign = ChaosCampaign(seed=7, mixes=("infra",), faults_per_mix=3)
    with pytest.raises(FaultError, match="branches_per_mix"):
        campaign.run_fanout(branches_per_mix=branches)


@pytest.mark.slow
def test_chaos_run_fanout_pooled_matches_serial():
    campaign = ChaosCampaign(seed=7, mixes=("infra", "mixed"), faults_per_mix=3)
    serial = campaign.run_fanout(branches_per_mix=2).to_json()
    pooled_campaign = ChaosCampaign(
        seed=7, mixes=("infra", "mixed"), faults_per_mix=3
    )
    pooled = pooled_campaign.run_fanout(
        branches_per_mix=2, processes=2
    ).to_json()
    assert pooled == serial


def test_empty_fleet_warm_capture_and_branch():
    # A fleet warmed with zero tenants and zero churn is a valid (if
    # vacuous) snapshot substrate: capture works, and a campaign-free
    # branch scores an empty experiment instead of crashing.
    fleet = warm_fleet(
        hosts=2, tenants=0, seed=3, churn_operations=0, rebalance_moves=0
    )
    try:
        first = fleet.branch(campaigns=0, sweeps=1)
        again = fleet.branch(campaigns=0, sweeps=1)
        assert first.campaign.events == []
        assert first.recall == 0.0
        assert first.monitor.reports[0].tenants_probed == 0
        assert _fingerprint(first) == _fingerprint(again)
    finally:
        fleet.dispose()
