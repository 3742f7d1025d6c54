"""The stdlib Mann-Whitney U p-value against scipy's, and the scipy-free
runtime."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.detection.classifier import mann_whitney_p

ROOT = Path(__file__).resolve().parent.parent
SIZES = (2, 5, 8, 9, 12, 30)


def _series(seed, n, ties):
    rng = random.Random(seed)
    if ties:
        # Small integer support: most draws collide with another.
        return [float(rng.randint(0, 5)) for _ in range(n)]
    return [rng.uniform(0.0, 10.0) for _ in range(n)]


def _scipy_p(x, y):
    stats = pytest.importorskip("scipy.stats")
    return float(stats.mannwhitneyu(x, y, alternative="two-sided").pvalue)


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("n", SIZES)
def test_p_value_matches_scipy(n, ties):
    for seed in range(4):
        x = _series(2 * seed, n, ties)
        # Shift one series on some seeds so p spans large and tiny values.
        shift = (0.0, 1.0, 3.0, 8.0)[seed]
        y = [value + shift for value in _series(2 * seed + 1, n, ties)]
        assert mann_whitney_p(x, y) == pytest.approx(
            _scipy_p(x, y), rel=1e-12, abs=0.0
        )


@pytest.mark.parametrize("sizes", [(2, 30), (8, 9), (5, 12), (9, 30)])
def test_p_value_matches_scipy_unequal_sizes(sizes):
    n1, n2 = sizes
    x = _series(100 + n1, n1, ties=False)
    y = [value + 0.5 for value in _series(200 + n2, n2, ties=False)]
    assert mann_whitney_p(x, y) == pytest.approx(
        _scipy_p(x, y), rel=1e-12, abs=0.0
    )


def test_all_tied_p_value_matches_scipy():
    x = [4.0] * 6
    y = [4.0] * 6
    assert mann_whitney_p(x, y) == _scipy_p(x, y) == 1.0


def test_runtime_imports_neither_scipy_nor_numpy():
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.cloud, repro.probes, repro.matrix\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'numpy')))\n"
    )
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_runtime_declares_no_dependencies():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []
