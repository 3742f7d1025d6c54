"""Property checks of the probe×attack :class:`ScoreMatrix`.

The report's contract is *audit consistency*: every published cell is
a pure function (:meth:`ScoreMatrix.score_cells`) of the per-run
verdict ledger and the leg's ground truth, with no double counting and
conserved totals.  The property test throws randomly seeded
attack/probe pairings at a small fleet and re-derives every cell from
the ledger; a mismatch is delta-debug shrunk (the
``shrink_fault_plan`` pattern from conftest, applied to the attack
list) before failing, so the report names a minimal counterexample.

The 4x12 parity test is the acceptance gate: the wrapped KSM probe's
CloudSkulk recall in the matrix equals the plain
:func:`run_fleet` campaign recall, exactly.
"""

import random

import pytest

from repro.cloud.fleet import run_fleet
from repro.probes.base import registered_probes
from repro.probes.score import ATTACKS, ScoreMatrix
from tests.fleet_helpers import FLEET_4X12

#: Small fleet so each property run stays around a second.
SMALL = dict(
    hosts=2,
    tenants=4,
    churn_operations=0,
    rebalance_moves=0,
    file_pages=6,
    wait_seconds=6.0,
)


def _run_matrix(seed, probes, attacks):
    return ScoreMatrix(
        seed=seed, probes=probes, attacks=attacks, **SMALL
    ).run()


def _truth(report, attack):
    return {
        name: at for name, at in report.attack_meta[attack]["attacked_at"]
    }


def _consistency_failures(report, probe_names):
    """Every audit invariant, checked from the report alone."""
    failures = []
    for attack in report.attacks:
        rows = [row for row in report.ledger if row["attack"] == attack]
        meta = report.attack_meta[attack]

        # Conservation: one ledger row per (sweep, probed tenant, probe) —
        # synthetic unreachable findings included, nothing dropped or
        # counted twice.
        expected_rows = (
            meta["sweeps"] * len(meta["tenants_probed"]) * len(probe_names)
        )
        if len(rows) != expected_rows:
            failures.append(
                f"{attack}: {len(rows)} ledger rows, expected "
                f"{expected_rows} (sweeps×tenants×probes)"
            )

        # The published cells are exactly what score_cells derives from
        # the ledger + ground truth.
        derived = ScoreMatrix.score_cells(
            attack,
            probe_names,
            rows,
            _truth(report, attack),
            meta["window_seconds"],
        )
        published = [report.cell(attack, name) for name in probe_names]
        if derived != published:
            failures.append(f"{attack}: published cells != ledger-derived")

        for cell in published:
            # No double counting: a tenant alerts a probe at most once.
            if (
                cell["true_positives"] + cell["false_positives"]
                > cell["tenants_probed"]
            ):
                failures.append(
                    f"{attack}/{cell['probe']}: TP+FP exceeds tenants probed"
                )
            if cell["attacked"] != len(meta["attacked"]):
                failures.append(
                    f"{attack}/{cell['probe']}: attacked count drifted"
                )
    return failures


def _shrink_attacks(attacks, still_fails):
    """Delta-debugging over the attack tuple (conftest shrinker pattern):
    drop attacks one at a time, from the back, while the failure holds."""
    attacks = list(attacks)
    changed = True
    while changed:
        changed = False
        for index in range(len(attacks) - 1, -1, -1):
            candidate = attacks[:index] + attacks[index + 1 :]
            if candidate and still_fails(tuple(candidate)):
                attacks = candidate
                changed = True
    return tuple(attacks)


@pytest.mark.parametrize("case_seed", range(4))
def test_random_pairings_stay_ledger_consistent(case_seed):
    rng = random.Random(9000 + case_seed)
    catalog = registered_probes()
    probes = tuple(
        name
        for name in catalog
        if name in rng.sample(catalog, rng.randint(1, len(catalog)))
    )
    attacks = tuple(
        attack for attack in ATTACKS if rng.random() < 0.7
    ) or ("clean",)
    seed = rng.randrange(10_000)

    report = _run_matrix(seed, probes, attacks)
    failures = _consistency_failures(report, list(probes))
    if failures:
        minimal = _shrink_attacks(
            attacks,
            lambda sub: bool(
                _consistency_failures(
                    _run_matrix(seed, probes, sub), list(probes)
                )
            ),
        )
        pytest.fail(
            f"seed={seed} probes={probes}: minimal failing "
            f"attacks={minimal}: " + "; ".join(failures)
        )


def test_same_seed_reports_are_byte_identical():
    first = _run_matrix(7, ("ksm_timing", "dedup_spy"), ("clean", "cloudskulk"))
    second = _run_matrix(
        7, ("ksm_timing", "dedup_spy"), ("clean", "cloudskulk")
    )
    assert first.to_json() == second.to_json()
    assert first.ledger == second.ledger


def test_ksm_cloudskulk_recall_matches_the_plain_campaign_4x12():
    """Acceptance: on the pinned 4x12 fleet the matrix's KSM×CloudSkulk
    cell reports exactly the recall the plain campaign run reports."""
    plain = run_fleet(**FLEET_4X12)
    report = ScoreMatrix(attacks=("cloudskulk",)).run()
    cell = report.cell("cloudskulk", "ksm_timing")
    assert cell["recall"] == plain.recall
    assert cell["false_positives"] == 0

def test_run_disposes_its_warm_snapshot(monkeypatch):
    from repro.sim.snapshot import EngineSnapshot

    disposed = []
    original = EngineSnapshot.dispose

    def spy(self):
        disposed.append(self)
        original(self)

    monkeypatch.setattr(EngineSnapshot, "dispose", spy)
    _run_matrix(7, ("ksm_timing",), ("clean", "cloudskulk"))
    # Two legs fork one captured warm fleet, which run() must release.
    assert len(disposed) == 1
    assert disposed[0]._disposed
