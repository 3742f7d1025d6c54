"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "CloudSkulk" in out


def test_attack(capsys):
    assert main(["--seed", "11", "attack"]) == 0
    out = capsys.readouterr().out
    assert "CloudSkulk installation: OK" in out
    assert "step4-migrate" in out


def test_detect(capsys):
    assert main(["--seed", "11", "detect", "--pages", "8"]) == 0
    out = capsys.readouterr().out
    assert "CLEAN" in out
    assert "NESTED" in out


def test_sweep(capsys):
    assert main(["--seed", "11", "sweep"]) == 0
    out = capsys.readouterr().out
    assert "tenant-b     nested" in out


def test_covert(capsys):
    assert main(["--seed", "11", "covert", "--message", "hi"]) == 0
    out = capsys.readouterr().out
    assert "received b'hi'" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fleet_status(capsys):
    assert main(["fleet", "status", "--hosts", "2", "--tenants", "2"]) == 0
    out = capsys.readouterr().out
    assert "<Datacenter hosts=2" in out
    assert "h00" in out and "h01" in out


def test_fleet_run_detects_campaign(capsys):
    assert (
        main(
            [
                "fleet", "run", "--hosts", "2", "--tenants", "3",
                "--seed", "17", "--churn", "2", "--migrations", "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "fleet run: hosts=2 seed=17" in out
    assert "detected         1 (recall 1.00)" in out
    assert "nested" in out


def test_fleet_sweep_command(capsys):
    assert main(["fleet", "sweep", "--hosts", "2", "--tenants", "3"]) == 0
    out = capsys.readouterr().out
    assert "fleet sweep 0:" in out
    assert "recall: 1.00" in out


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["--seed", "42", "fleet", "sweep"], 42),
        (["fleet", "sweep", "--seed", "42"], 42),
        (["fleet", "sweep"], 1701),
        (["--seed", "7", "fleet", "chaos"], 7),
    ],
)
def test_fleet_seed_before_or_after_subcommand(argv, seed):
    assert build_parser().parse_args(argv).seed == seed


def test_fleet_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fleet"])


@pytest.mark.parametrize("value", ["0", "-1"])
def test_fleet_chaos_fanout_rejects_non_positive(value, capsys):
    # Rejected at parse time, before any fleet is warmed.
    with pytest.raises(SystemExit) as excinfo:
        main(["fleet", "chaos", "--from-warm", "--fanout", value])
    assert excinfo.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_trace_ring_rejects_non_positive(value, tmp_path, capsys):
    # Used to reach the tracer and die popping from an empty ring.
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "--trace-ring", value, "--obs-out", str(tmp_path / "obs"),
                "detect", "--pages", "8",
            ]
        )
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "must be >= 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_detect_pages_rejects_non_positive(value, capsys):
    # Used to surface as a DetectionError traceback mid-run.
    with pytest.raises(SystemExit) as excinfo:
        main(["detect", "--pages", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "must be >= 1" in err
    assert "Traceback" not in err
