"""The A/B gain rule of benchmarks/ab_pairs.py, on synthetic numbers."""

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "ab_pairs.py",
)


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [4.0, 4.2, 4.4, 4.6, 4.8, 5.0, 5.2, 5.4, 5.6, 5.8]


def test_clear_gain_holds(ab):
    change = [wall - 1.5 for wall in PARENT]
    verdict = ab.decide(PARENT, change)
    assert verdict["wins"] == 10 and verdict["win_fraction"] == 1.0
    assert verdict["parent"] == pytest.approx((4.45, 4.9, 5.35))
    assert verdict["parent_iqr"] == pytest.approx(0.9)
    assert verdict["holds"]


def test_gap_within_parent_iqr_fails(ab):
    # Wins every pair, but by less than the parent's own spread.
    change = [wall - 0.5 for wall in PARENT]
    verdict = ab.decide(PARENT, change)
    assert verdict["wins"] == 10
    assert not verdict["holds"]


def test_eight_of_ten_fails(ab):
    change = [wall - 1.5 for wall in PARENT]
    change[0] = PARENT[0] + 0.1
    change[1] = PARENT[1] + 0.1
    verdict = ab.decide(PARENT, change)
    assert (verdict["wins"], verdict["losses"]) == (8, 2)
    assert not verdict["holds"]


def test_nine_of_ten_holds(ab):
    change = [wall - 1.5 for wall in PARENT]
    change[3] = PARENT[3] + 0.1
    verdict = ab.decide(PARENT, change)
    assert verdict["win_fraction"] == 0.9
    assert verdict["holds"]


def test_ties_count_for_neither_side(ab):
    change = [wall - 1.5 for wall in PARENT]
    change[0] = PARENT[0]
    change[1] = PARENT[1]
    verdict = ab.decide(PARENT, change)
    assert (verdict["wins"], verdict["ties"], verdict["losses"]) == (8, 2, 0)
    assert not verdict["holds"]


def test_mismatched_or_short_samples_rejected(ab):
    with pytest.raises(ValueError):
        ab.decide([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ab.decide([1.0], [0.5])
