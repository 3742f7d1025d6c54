"""The repository benchmark: three workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload detect_fig56 --seed 42 --seconds 10 --trace 0

With ``--trace 0`` it runs repetitions of the workload, each in a
fresh interpreter (``rep.py``), until the timed sections add up to
``--seconds`` (at least three repetitions).  ``wall_s`` and ``cpu_s``
sum each timed section's fastest repetition (:func:`fastest_batch`);
``setup_s`` and ``peak_rss_mb`` are medians over the repetitions.

With ``--trace 1`` it runs one untraced and one traced repetition and
reports the per-layer metrics of the traced one, with the tracing
overhead measured against the untraced one.

Every unit's output is checked: its paper shape on every seed, and its
virtual-time fingerprint against ``pins.json`` on the pinned seed.
Traced and untraced repetitions must fingerprint identically.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a run manifest,
the metrics by name and unit, and any failed unit.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("detect_fig56", "migrate_fig4", "fleet_fanout_4x12")
PINNED_SEED = 42

#: End-to-end metrics and their units.
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

MIN_REPS = 3
#: No new repetition starts once the run could not finish by then.
DEADLINE_S = 150.0


class RepFailed(RuntimeError):
    pass


def source_digest(root=ROOT):
    """sha256 over the program's source files, path and content."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_rev(root=ROOT):
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
    }


def run_rep(workload, seed, trace):
    """One repetition in a fresh interpreter; returns its JSON reply."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed), str(int(trace))],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=DEADLINE_S,
    )
    if proc.returncode != 0:
        raise RepFailed(f"{workload} repetition exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins(path=os.path.join(HERE, "pins.json")):
    with open(path) as handle:
        return json.load(handle)


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def score(workload, seed, reps, pins):
    """Check every unit of every rep; returns ``(attempted, failures)``.

    A unit fails when its shape check failed, when its fingerprint
    differs from the pin on the pinned seed, or when it differs from
    the same unit in the first rep (reps of one seed must agree, traced
    or not).
    """
    pinned = pins.get(workload, {}) if seed == PINNED_SEED else None
    reference = {unit["unit"]: unit["fingerprint"] for unit in reps[0]["units"]}
    attempted = 0
    failures = []
    for index, rep in enumerate(reps):
        for unit in rep["units"]:
            attempted += 1
            name = unit["unit"]
            fingerprint = _canonical(unit["fingerprint"])
            if unit["problem"]:
                failures.append((index, name, unit["problem"]))
            elif pinned is not None and fingerprint != _canonical(pinned.get(name)):
                failures.append((index, name, f"fingerprint differs from pin: {fingerprint}"))
            elif fingerprint != _canonical(reference.get(name)):
                failures.append((index, name, "fingerprint differs between reps"))
    return attempted, failures


def fastest_batch(reps, column):
    """The batch's time with each timed section at its fastest rep.

    Every rep of a seed runs the same timed sections in the same order.
    Other tenants of a shared machine only ever add time, and they come
    and go within seconds, so the fastest observation of each section
    is the steadiest estimate of its cost (timeit's reasoning for the
    minimum, applied section by section).
    """
    columns = [[section[column] for section in rep["timed_sections"]] for rep in reps]
    if len({len(sections) for sections in columns}) != 1:
        raise RepFailed("repetitions ran different numbers of timed sections")
    return sum(min(samples) for samples in zip(*columns))


def end_to_end_metrics(reps):
    values = {
        "wall_s": fastest_batch(reps, 0),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "cpu_s": fastest_batch(reps, 1),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(reps, attempted, failures):
    untraced, traced = reps
    derived = layers.per_layer_metrics(
        traced["trace"],
        traced["perf"],
        traced["shard_stats"],
        timed_wall=traced["wall_s"],
        untraced_wall=untraced["wall_s"],
        ops_failed=len(failures) / attempted,
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in derived.items()}


def collect_reps(args):
    if args.trace:
        return [run_rep(args.workload, args.seed, False), run_rep(args.workload, args.seed, True)]
    started = time.perf_counter()
    reps = []
    longest = 0.0
    while True:
        rep_started = time.perf_counter()
        reps.append(run_rep(args.workload, args.seed, False))
        longest = max(longest, time.perf_counter() - rep_started)
        measured = sum(rep["wall_s"] for rep in reps)
        if len(reps) >= MIN_REPS and measured >= args.seconds:
            return reps
        if time.perf_counter() - started + longest > DEADLINE_S:
            return reps


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    print(json.dumps({"manifest": manifest(args)}, sort_keys=True))
    try:
        reps = collect_reps(args)
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failures = score(args.workload, args.seed, reps, load_pins())
    if args.trace:
        metrics = per_layer(reps, attempted, failures)
        for entry, row in sorted(reps[1]["trace"]["timed"]["entries"].items()):
            print(json.dumps({"span": entry, **row}, sort_keys=True))
    else:
        metrics = end_to_end_metrics(reps)
    print(f"# {args.workload} seed={args.seed} reps={len(reps)}")
    for index, rep in enumerate(reps):
        values = " ".join(f"{name}={rep[name]:.4f}" for name in END_TO_END)
        sections = ",".join(f"{wall:.4f}" for wall, _cpu in rep["timed_sections"])
        print(f"# rep {index}: {values} timed_sections={sections}")
    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:>16.6f} {metric['unit']}")
    for index, name, reason in failures:
        print(f"FAILED rep {index} unit {name}: {reason}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
