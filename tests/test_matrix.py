"""The scenario-matrix subsystem: grammar, expansion, runner, pinning.

Fast sections (grammar, expansion, pinning round-trips on synthetic
reports, CLI plumbing) run unmarked; everything that builds a fleet
carries the ``chaos`` marker like the other whole-fleet suites, and the
pooled-vs-serial comparison is additionally ``slow``.
"""

import json

import pytest

from repro.cli import main
from repro.matrix import MatrixReport, MatrixRunner, MatrixSpec, expand
from repro.matrix.expand import group_by_warm_key
from repro.matrix.pinning import Expectations, default_expectations_path
from repro.matrix.runner import MatrixError
from repro.matrix.spec import (
    MatrixSpecError,
    coerce_value,
    parse_fault_spec,
    parse_filter,
)
from tests.fleet_helpers import fleet_fingerprint

TINY_SPEC = """\
name = tiny
seed = 11
hosts = 3
tenants = 6
churn_operations = 2
rebalance_moves = 1
campaigns = 1
sweeps = 1
wait_seconds = 6.0

[axis probe]
shallow: file_pages = 8
deep:    file_pages = 16
"""

#: Two warm groups (the topology axis splits the warm prefix).
TWO_GROUP_SPEC = TINY_SPEC + """
[axis topology]
lean: tenants = 5
full: tenants = 6
"""


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------


def test_coerce_value_spellings():
    assert coerce_value("on") is True
    assert coerce_value("Yes") is True
    assert coerce_value("off") is False
    assert coerce_value("none") is None
    assert coerce_value("42") == 42
    assert coerce_value("6.5") == 6.5
    assert coerce_value("cloud.campaign#3") == "cloud.campaign#3"


def test_parse_fault_spec_forms():
    assert parse_fault_spec(None) is None
    assert parse_fault_spec("none") is None
    assert parse_fault_spec("mixed:5@240") == ("mixed", None, 5, 240.0)
    assert parse_fault_spec("infra#2:3@180.5") == ("infra", "2", 3, 180.5)
    with pytest.raises(MatrixSpecError, match="bad faults spec"):
        parse_fault_spec("mixed-5-240")
    with pytest.raises(MatrixSpecError, match="unknown fault mix"):
        parse_fault_spec("tsunami:5@240")


def test_parse_filter_alternatives_and_terms():
    parsed = parse_filter("a..probe=deep, c")
    assert parsed == (((None, "a"), ("probe", "deep")), ((None, "c"),))
    with pytest.raises(MatrixSpecError, match="empty term"):
        parse_filter("a.. ..b")
    with pytest.raises(MatrixSpecError, match="bad filter term"):
        parse_filter("probe=de ep")


def test_spec_parse_defaults_axes_and_name():
    spec = MatrixSpec.loads(TINY_SPEC)
    assert spec.name == "tiny"
    assert spec.defaults["seed"] == 11
    assert spec.defaults["wait_seconds"] == 6.0
    assert [axis.name for axis in spec.axes] == ["probe"]
    assert spec.axes[0].labels == ["shallow", "deep"]
    assert spec.cartesian_count == 2
    assert any("axis" in line for line in spec.describe_lines())


def test_spec_filters_are_global_after_sections():
    # Regression: a `no` filter after an [axis] section must parse as a
    # filter (and close the section), not as an axis value.
    spec = MatrixSpec.loads(TWO_GROUP_SPEC + "no deep..lean\n")
    assert spec.filters == [
        ("no", (((None, "deep"), (None, "lean")),), "deep..lean")
    ]
    assert len(expand(spec)) == 3


def test_spec_override_section_patches_matching_variants():
    spec = MatrixSpec.loads(
        TINY_SPEC + "[override probe=deep]\nwait_seconds = 20.0\n"
    )
    by_id = {v.variant_id: v for v in expand(spec)}
    assert by_id["probe=deep"].params["wait_seconds"] == 20.0
    assert by_id["probe=shallow"].params["wait_seconds"] == 6.0


def test_spec_rejects_unknown_parameter():
    with pytest.raises(MatrixSpecError, match="unknown parameter"):
        MatrixSpec.loads(TINY_SPEC + "[axis x]\na: warp_factor = 9\n")


def test_spec_rejects_unknown_filter_label():
    with pytest.raises(MatrixSpecError, match="unknown label"):
        MatrixSpec.loads(TINY_SPEC + "no bogus\n")
    with pytest.raises(MatrixSpecError, match="unknown axis"):
        MatrixSpec.loads(TINY_SPEC + "no lens=deep\n")


def test_spec_rejects_structural_errors():
    with pytest.raises(MatrixSpecError, match="declares no axes"):
        MatrixSpec.loads("name = empty\n")
    with pytest.raises(MatrixSpecError, match="declares no values"):
        MatrixSpec.loads("[axis probe]\n")
    with pytest.raises(MatrixSpecError, match="duplicate axis"):
        MatrixSpec.loads(TINY_SPEC + "[axis probe]\nagain\n")
    with pytest.raises(MatrixSpecError, match="unknown section"):
        MatrixSpec.loads("[expect something]\n")


def test_migration_capabilities_validated_and_split():
    spec = MatrixSpec.loads(
        TINY_SPEC + "[axis wire]\nplain: migration_capabilities = none\n"
        "rich: migration_capabilities = dedup+xbzrle\n"
    )
    by_id = {v.variant_id: v for v in expand(spec)}
    assert by_id["probe=deep,wire=rich"].params["migration_capabilities"] == (
        "dedup",
        "xbzrle",
    )
    assert (
        by_id["probe=deep,wire=plain"].params["migration_capabilities"] is None
    )
    with pytest.raises(MatrixSpecError, match="unknown migration capability"):
        MatrixSpec.loads(
            TINY_SPEC + "[axis w]\nx: migration_capabilities = warp\n"
        )


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def test_variant_ids_are_stable_under_axis_reordering():
    reordered = """\
name = tiny
[axis topology]
lean: tenants = 5
full: tenants = 6

[axis probe]
shallow: file_pages = 8
deep:    file_pages = 16
"""
    forward = {v.variant_id for v in expand(MatrixSpec.loads(TWO_GROUP_SPEC))}
    backward = {v.variant_id for v in expand(MatrixSpec.loads(reordered))}
    assert forward == backward
    assert "probe=deep,topology=lean" in forward


def test_expand_cli_filters_compose_with_spec_filters():
    spec = MatrixSpec.loads(TWO_GROUP_SPEC + "no deep..lean\n")
    only = [v.variant_id for v in expand(spec, only="topology=full")]
    assert only == ["probe=shallow,topology=full", "probe=deep,topology=full"]
    dropped = [v.variant_id for v in expand(spec, no="shallow")]
    assert dropped == ["probe=deep,topology=full"]
    with pytest.raises(MatrixSpecError, match="zero variants"):
        expand(spec, only="topology=lean", no="shallow")


def test_warm_grouping_partitions_on_warm_keys_only():
    variants = expand(MatrixSpec.loads(TWO_GROUP_SPEC))
    groups = group_by_warm_key(variants)
    # The probe axis only touches branch keys: 2 groups, not 4.
    assert len(groups) == 2
    assert [len(members) for _key, members in groups] == [2, 2]
    for _key, members in groups:
        assert len({m.warm_key() for m in members}) == 1


def test_examples_detection_recall_expands_past_200():
    spec = MatrixSpec.load("examples/matrices/detection_recall.cfg")
    variants = expand(spec)
    assert len(variants) >= 200
    assert len(variants) == len({v.variant_id for v in variants})
    # Filtered corner really is gone.
    assert not any(
        v.labels["workload"] == "bursty" and v.labels["ksm"] == "cold"
        for v in variants
    )


# ---------------------------------------------------------------------------
# Pinning (synthetic reports — no fleets)
# ---------------------------------------------------------------------------


def _synthetic_report(**recalls):
    report = MatrixReport("synthetic")
    for variant_id, recall in sorted(recalls.items()):
        report.add(
            {
                "variant": variant_id,
                "axes": {},
                "params": {},
                "fingerprint": {
                    "recall": recall,
                    "latencies": (120.5,),
                    "mean_detection_latency": 120.5,
                    "faults_injected": 0,
                    "virtual_now": 100.0,
                },
                "perf_delta": {},
                "wall_seconds": 0.1,
            }
        )
    return report


def test_default_expectations_path():
    assert (
        default_expectations_path("examples/m/grid.cfg")
        == "examples/m/grid.expectations.json"
    )


def test_pinning_round_trip_and_mismatch(tmp_path):
    report = _synthetic_report(**{"a=x": 1.0, "a=y": 0.5})
    path = tmp_path / "grid.expectations.json"
    Expectations.from_report(report).save(path)
    pinned = Expectations.load(path)
    assert pinned.diff(report).clean

    drifted = _synthetic_report(**{"a=x": 1.0, "a=y": 0.0})
    diff = pinned.diff(drifted)
    assert not diff.clean
    assert sorted(diff.mismatched) == ["a=y"]
    assert diff.mismatched["a=y"]["expected"]["recall"] == 0.5
    assert any("MISMATCH a=y" in line for line in diff.lines(verbose=True))


def test_pinning_missing_and_unpinned_partitions():
    pinned = Expectations.from_report(
        _synthetic_report(**{"a=x": 1.0, "a=y": 0.5})
    )
    subset_plus_new = _synthetic_report(**{"a=x": 1.0, "a=z": 0.2})
    diff = pinned.diff(subset_plus_new)
    assert diff.matched == ["a=x"]
    assert diff.missing == ["a=y"]
    assert diff.unpinned == ["a=z"]
    assert not diff.clean  # unpinned variants demand a re-pin

    pinned.update_from(subset_plus_new)
    assert sorted(pinned.pins) == ["a=x", "a=y", "a=z"]


def test_report_json_round_trip_excludes_timing():
    report = _synthetic_report(**{"a=x": 1.0})
    report.groups.append(
        {"warm_params": {}, "seed": 1, "variants": ["a=x"],
         "forked": False, "warm_wall_seconds": 1.5}
    )
    data = json.loads(report.to_json())
    assert "wall_seconds" not in data["entries"][0]
    assert "warm_wall_seconds" not in data["warm_groups"][0]
    timed = json.loads(report.to_json(include_timing=True))
    assert timed["entries"][0]["wall_seconds"] == 0.1
    reloaded = MatrixReport.from_dict(data)
    assert reloaded.fingerprints() == {
        k: json.loads(json.dumps(v))
        for k, v in report.fingerprints().items()
    }


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def test_runner_rejects_bad_process_count():
    spec = MatrixSpec.loads(TINY_SPEC)
    with pytest.raises(MatrixError, match="--processes must be >= 1"):
        MatrixRunner(spec, processes=0)


@pytest.mark.chaos
def test_runner_is_deterministic_and_ordered():
    spec = MatrixSpec.loads(TINY_SPEC)
    first = MatrixRunner(spec).run()
    second = MatrixRunner(spec).run()
    assert first.to_json() == second.to_json()
    assert [e["variant"] for e in first.entries] == [
        "probe=shallow",
        "probe=deep",
    ]
    # One warm group, forked branches; the probe axis showed up in the
    # results (different budgets probe different tenant counts or times).
    assert len(first.groups) == 1
    assert first.groups[0]["forked"] is True
    assert (
        first.entries[0]["fingerprint"] != first.entries[1]["fingerprint"]
    )


@pytest.mark.chaos
def test_warm_forked_matches_cold_run():
    spec = MatrixSpec.loads(TINY_SPEC)
    forked = MatrixRunner(spec, warm_fork=True)
    cold = MatrixRunner(spec, warm_fork=False)
    forked_report = forked.run()
    cold_report = cold.run()
    assert forked_report.fingerprints() == cold_report.fingerprints()
    # Perf deltas too: fork bookkeeping is excluded from the records.
    assert [e["perf_delta"] for e in forked_report.entries] == [
        e["perf_delta"] for e in cold_report.entries
    ]
    # The serial runner keeps full results: the rich fork-determinism
    # fingerprint agrees as well.
    assert [fleet_fingerprint(r) for r in forked.results] == [
        fleet_fingerprint(r) for r in cold.results
    ]


@pytest.mark.chaos
@pytest.mark.slow
def test_pooled_run_matches_serial():
    spec = MatrixSpec.loads(TWO_GROUP_SPEC)
    serial = MatrixRunner(spec).run().to_json()
    pooled = MatrixRunner(spec, processes=2).run().to_json()
    assert pooled == serial


@pytest.mark.chaos
@pytest.mark.slow
def test_pooled_single_group_matches_serial():
    # One warm group, two workers: the group is sliced across the
    # workers, each warming its own fleet; the report must not show it.
    spec = MatrixSpec.loads(TINY_SPEC)
    serial = MatrixRunner(spec).run().to_json()
    pooled = MatrixRunner(spec, processes=2).run().to_json()
    assert pooled == serial


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_matrix_list_catalog_without_spec(capsys):
    assert main(["matrix", "list"]) == 0
    out = capsys.readouterr().out
    assert "warm (group-defining)" in out
    assert "mixed" in out


def test_cli_matrix_list_spec_counts_without_running(capsys):
    assert main(["matrix", "list", "examples/matrices/detection_recall.cfg"]) == 0
    out = capsys.readouterr().out
    assert "expands to 224 variants in 8 warm groups" in out


def test_cli_matrix_expand_prints_ids(capsys):
    assert main(["matrix", "expand", "examples/matrices/chaos_grid.cfg"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 12
    assert out[0] == "faults=infra,topology=small,wire=plain"


def test_cli_fleet_chaos_list_mixes_exits_clean(capsys):
    assert main(["fleet", "chaos", "--list-mixes"]) == 0
    out = capsys.readouterr().out
    assert "standard fault mixes:" in out
    assert "default fleet:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["fleet", "chaos", "--processes", "0"],
        ["matrix", "run", "examples/matrices/chaos_grid.cfg",
         "--processes", "-2"],
    ],
)
def test_cli_rejects_nonpositive_process_counts(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    err = capsys.readouterr().err
    assert "must be >= 1" in err


@pytest.mark.chaos
def test_cli_pin_then_run_diffs_clean_and_detects_drift(tmp_path, capsys):
    spec_path = tmp_path / "tiny.cfg"
    spec_path.write_text(TINY_SPEC)
    assert main(["matrix", "pin", str(spec_path)]) == 0
    expectations_path = tmp_path / "tiny.expectations.json"
    assert expectations_path.exists()
    assert main(["matrix", "run", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "2 matched, 0 mismatched" in out

    # Corrupt one pin: the run must fail loudly with the diff.
    pinned = json.loads(expectations_path.read_text())
    pinned["expectations"]["probe=deep"]["recall"] = 0.123
    expectations_path.write_text(json.dumps(pinned))
    assert main(["matrix", "run", str(spec_path)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH probe=deep" in out
