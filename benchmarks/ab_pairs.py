"""Alternating A/B pairs of the repo benchmark: this tree against a parent.

Run from the root of a checkout::

    python3 benchmarks/ab_pairs.py PARENT_REV WORKLOAD [--pairs 10] [--seed 42]

It checks ``PARENT_REV`` out with ``git worktree add`` under ``build/``
and runs the benchmark command ``BENCHMARK.json`` declares (with its
``run_seconds`` and ``--trace 0``) once per tree per pair, alternating
which tree goes first.  It prints each pair's ``wall_s``, each side's
median and quartiles, the change's win fraction, the median of every
other end-to-end metric against its bound, and whether the gain rule
holds:

* the change wins at least nine tenths of the pairs (a tie counts for
  neither side), and
* its median ``wall_s`` is below the parent's by more than the parent's
  interquartile range.

The worktree is removed on exit.  Nothing under ``perfbench/`` is
edited; both trees run their own copy of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fraction of pairs the change must win for a gain to be claimed.
MIN_WIN_FRACTION = 0.9


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` (linear interpolation)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def decide(parent, change):
    """Apply the gain rule to paired ``wall_s`` samples (lower is better).

    ``parent[i]`` and ``change[i]`` are pair ``i``.  Returns a dict with
    the win/tie/loss counts, the win fraction over all pairs, both
    sides' quartiles, the parent's interquartile range and ``holds``.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, one sample per side each")
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    parent_q = quartiles(parent)
    change_q = quartiles(change)
    iqr = parent_q[2] - parent_q[0]
    win_fraction = wins / len(parent)
    return {
        "pairs": len(parent),
        "wins": wins,
        "ties": len(parent) - wins - losses,
        "losses": losses,
        "win_fraction": win_fraction,
        "parent": parent_q,
        "change": change_q,
        "parent_iqr": iqr,
        "holds": win_fraction >= MIN_WIN_FRACTION
        and parent_q[1] - change_q[1] > iqr,
    }


def load_spec(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_benchmark(tree, workload, seed):
    """One ``--trace 0`` benchmark run in ``tree``; returns its result line."""
    spec = load_spec(tree)
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _row(label, q):
    return f"{label:<7} median {q[1]:.4f}  q1 {q[0]:.4f}  q3 {q[2]:.4f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    rev = _git("rev-parse", "--verify", f"{args.parent_rev}^{{commit}}")
    parent_tree = os.path.join(ROOT, "build", f"ab-parent-{rev[:12]}")
    os.makedirs(os.path.dirname(parent_tree), exist_ok=True)
    _git("worktree", "add", "--detach", "--force", parent_tree, rev)
    trees = {"parent": parent_tree, "change": ROOT}
    metrics = {"parent": [], "change": []}
    incorrect = []
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_benchmark(trees[side], args.workload, args.seed)
                metrics[side].append(result["metrics"])
                if not result["correct"]:
                    incorrect.append((pair, side))
            print(
                f"pair {pair:2d} ({order[0]} first): "
                f"parent {metrics['parent'][-1]['wall_s']['value']:.4f} s  "
                f"change {metrics['change'][-1]['wall_s']['value']:.4f} s",
                flush=True,
            )
    finally:
        _git("worktree", "remove", "--force", parent_tree)

    def values(side, name):
        return [run[name]["value"] for run in metrics[side]]

    verdict = decide(values("parent", "wall_s"), values("change", "wall_s"))
    print(
        f"# {args.workload} seed={args.seed} pairs={verdict['pairs']} "
        f"parent={rev[:12]} cpu_count={os.cpu_count()}"
    )
    print(_row("parent", verdict["parent"]))
    print(_row("change", verdict["change"]))
    print(
        f"change wins {verdict['wins']}/{verdict['pairs']} "
        f"(ties {verdict['ties']}, losses {verdict['losses']}); "
        f"median gap {verdict['parent'][1] - verdict['change'][1]:.4f} s "
        f"vs parent IQR {verdict['parent_iqr']:.4f} s"
    )
    for metric in load_spec(ROOT)["end_to_end"]:
        name = metric["name"]
        parent = statistics.median(values("parent", name))
        change = statistics.median(values("change", name))
        ratio = change / parent - 1.0 if parent else 0.0
        print(
            f"{name:<12} median parent {parent:.4f}  change {change:.4f} "
            f"{metric['unit']}  ({100 * ratio:+.1f} %, bound "
            f"{100 * metric['bound']:.0f} %, {metric['better']} is better)"
        )
    for pair, side in incorrect:
        print(f"INCORRECT: pair {pair} {side} reported correct=false")
    print(f"gain rule holds: {verdict['holds']}")
    return 0 if not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
