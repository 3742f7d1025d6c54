#!/usr/bin/env python
"""Hot-path performance report: time three canonical scenarios.

Runs the scenarios the perf work is judged on —

* ``detection_under_io``     — the dedup detection protocol (clean and
  nested) with a Filebench workload hammering the guest (Figs 5/6
  under load);
* ``fig4_migration_filebench`` — the Fig 4 pre-copy live migration of a
  Filebench-loaded victim;
* ``lmbench_l2_proc``        — Table 3 process-latency microbenchmarks
  in an L2 (nested) guest;
* ``fleet_sweep_4x12``       — a `repro.cloud` control-plane run: 12
  churning tenants on 4 hosts, one cross-host migration, one injected
  CloudSkulk campaign, one fleet-wide detection sweep;
* ``chaos_recall_4x12``      — the same fleet under the ``mixed``
  fault-injection mix (`repro.faults`): detection recall/latency with
  host crashes, partitions, and migration drops in play;
* ``migration_dedup_4x12``   — deduplicated pre-copy of a KSM-heavy
  tenant (capability ``dedup``): same page population, fewer wire
  bytes —

and writes wall-clock timings, virtual-time fingerprints, and the
engine's perf counters to ``BENCH_core.json`` so later PRs have a
trajectory to beat.  Every run (including ``--quick``) also measures
``tracer_overhead_fleet``: fleet_sweep_4x12 traced vs untraced, held
to :data:`TRACER_OVERHEAD_BUDGET_PCT`, and ``chaos_fanout_4x12``:
one warmed 4x12 fleet forked into 12 fault branches (copy-on-write
snapshots, `repro.sim.snapshot`) against the same 12 branches run
cold — the fan-out must beat cold by
:data:`CHAOS_FANOUT_SPEEDUP_TARGET` and every forked branch must
fingerprint byte-identically to its cold twin — and
``matrix_expand_200``: the shipped detection-recall grid must expand to
its full >=200 variants with stable IDs, and the matrix runner's
warm-fork grouping must beat the cold comparator by
:data:`MATRIX_EXPAND_SPEEDUP_TARGET` on one warm group with identical
fingerprints and perf deltas.  Full (non-quick) runs add
``sharded_sweep_16x``: one warmed 16x192 fleet branched serial and
4-way sharded (`repro.cloud.sharding`) — fingerprints must be
byte-identical and the deterministic critical-path speedup (serial
branch events over the busiest shard's) must meet
:data:`SHARDED_SWEEP_SPEEDUP_TARGET`.

Each scenario's *fingerprint* captures the virtual-time results
(verdicts, medians, MigrationStats totals, latencies).  Optimizations
must leave fingerprints byte-identical to :data:`BASELINE` — a wall
clock win that changes simulated results is a correctness bug, not a
speedup.

Usage::

    PYTHONPATH=src python benchmarks/perf_report.py            # all scenarios
    PYTHONPATH=src python benchmarks/perf_report.py --quick    # detection only
    PYTHONPATH=src python benchmarks/perf_report.py --parallel # process pool
    PYTHONPATH=src python benchmarks/perf_report.py -o out.json

``--parallel`` fans the scenarios out over forked workers
(:func:`repro.cloud.fleet.fork_map`, one scenario each) and merges the
results deterministically in ``SCENARIOS`` order — fingerprints are the point of that mode; the
wall clocks of concurrent runs contend for cores, so the sequential
run stays the timing of record.
"""

import argparse
import json
import os
import sys
import time

#: Pre-change reference, recorded on the commit preceding the hot-path
#: overhaul (same machine, same scenario code, best of two runs).  The
#: fingerprints are the ground truth the optimized engine must still
#: produce bit-for-bit.
BASELINE = {
    "detection_under_io": {
        "wall_seconds": 7.393,
        "fingerprint": {
            "clean": {
                "verdict": "clean",
                "median_t0": 0.25121138130938825,
                "median_t1": 379.21856694542475,
                "median_t2": 0.2502517481053238,
                "virtual_now": 89.26796287360868,
            },
            "nested": {
                "verdict": "nested",
                "median_t0": 0.25121138130938825,
                "median_t1": 379.21856694542475,
                "median_t2": 380.63290886819743,
                "virtual_now": 131.31306111988857,
            },
        },
    },
    "fig4_migration_filebench": {
        "wall_seconds": 1.739,
        "fingerprint": {
            "status": "completed",
            "ram_bytes": 958629800,
            "pages_transferred": 233396,
            "zero_pages": 96115,
            "iterations": 5,
            "downtime": 0.00208560000001512,
            "migration_virtual_seconds": 29.599723616053378,
        },
    },
    "fleet_sweep_4x12": {
        "wall_seconds": 1.417,
        "fingerprint": {
            "virtual_now": 538.6211645267207,
            "placements": 15,
            "migrations": 1,
            "tenants_probed": 13,
            "compromised": ["t000@h02"],
            "recall": 1.0,
        },
    },
    "chaos_recall_4x12": {
        "wall_seconds": 0.833,
        "fingerprint": {
            "campaigns": 1,
            "detected": 1,
            "faults_injected": 5,
            "faults_recovered": 3,
            "mean_detection_latency": 150.05649039826312,
            "recall": 1.0,
            "tenants_degraded": ["t000", "t001", "t002", "t003"],
            "tenants_running": 6,
            "unreachable_findings": 5,
            "virtual_now": 518.334579941223,
        },
    },
    "migration_dedup_4x12": {
        # New scenario introduced with the page-store PR: the baseline
        # wall is its first measurement, the fingerprint pins the wire
        # accounting of the dedup capability from day one.
        "wall_seconds": 0.187,
        "fingerprint": {
            "plain": {
                "status": "completed",
                "ram_bytes": 690018912,
                "pages_transferred": 167949,
                "pages_deduped": 0,
                "zero_pages": 94195,
                "iterations": 2,
                "migration_virtual_seconds": 21.312219083031838,
            },
            "dedup": {
                "status": "completed",
                "ram_bytes": 682389312,
                "pages_transferred": 167949,
                "pages_deduped": 1870,
                "zero_pages": 94195,
                "iterations": 2,
                "migration_virtual_seconds": 21.08293188414267,
            },
            "wire_savings_pct": 1.11,
        },
    },
    "chaos_fanout_4x12": {
        # New scenario introduced with the snapshot/fork PR: the
        # baseline wall is the fan-out's first clean measurement under
        # heap_frozen (cold ran 38.4s on the same box, 2.27x slower);
        # the fingerprint pins all 12 branch outcomes from day one.
        "wall_seconds": 16.910,
        "fingerprint": {
            "guest_hang": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 2,
                "kind": "guest_hang",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "host_crash": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 3,
                "kind": "host_crash",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "ksm_stall": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 3,
                "kind": "ksm_stall",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "latency_spike": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 1,
                "faults_recovered": 1,
                "kind": "latency_spike",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "migration_drop": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 0,
                "kind": "migration_drop",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "mixed#1": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 3,
                "kind": "mixed#1",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "mixed#2": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 3,
                "kind": "mixed#2",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "mixed#3": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 3,
                "kind": "mixed#3",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "mixed#4": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 1,
                "kind": "mixed#4",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "none": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 0,
                "faults_recovered": 0,
                "kind": "none",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "partition": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 3,
                "kind": "partition",
                "mean_detection_latency": 630.2398904861316,
                "recall": 1.0,
                "virtual_now": 2099.8746349926646,
            },
            "probe_timeout": {
                "campaigns": 1,
                "detected": 1,
                "faults_injected": 3,
                "faults_recovered": 0,
                "kind": "probe_timeout",
                "mean_detection_latency": 570.2082787585591,
                "recall": 1.0,
                "virtual_now": 2039.8430232650921,
            },
        },
    },
    "matrix_expand_200": {
        # New entry introduced with the scenario-matrix PR: the wall is
        # the warm-fork run of MATRIX_SPEEDUP_CELL (7 forked branches,
        # one warm fleet; cold ran 9.1s on the same box, 2.36x slower);
        # the fingerprint pins all seven attacker-seed outcomes.
        "wall_seconds": 3.85,
        "fingerprint": {
            "ksm=settled,probe=shallow,seed=s0,workload=bursty": {
                "campaigns": 1,
                "detected": 1,
                "detection_latencies": [
                    144.06447434011739
                ],
                "faults_injected": 0,
                "faults_recovered": 0,
                "mean_detection_latency": 144.06447434011739,
                "recall": 1.0,
                "sweeps": [
                    {
                        "compromised": [
                            "t000@h00"
                        ],
                        "tenants_probed": 13
                    }
                ],
                "tenants_degraded": [],
                "tenants_running": 7,
                "unreachable_findings": 0,
                "virtual_now": 749.4367386160072
            },
            "ksm=settled,probe=shallow,seed=s1,workload=bursty": {
                "campaigns": 1,
                "detected": 1,
                "detection_latencies": [
                    144.06447434011739
                ],
                "faults_injected": 0,
                "faults_recovered": 0,
                "mean_detection_latency": 144.06447434011739,
                "recall": 1.0,
                "sweeps": [
                    {
                        "compromised": [
                            "t000@h00"
                        ],
                        "tenants_probed": 13
                    }
                ],
                "tenants_degraded": [],
                "tenants_running": 7,
                "unreachable_findings": 0,
                "virtual_now": 749.4367386160072
            },
            "ksm=settled,probe=shallow,seed=s2,workload=bursty": {
                "campaigns": 1,
                "detected": 1,
                "detection_latencies": [
                    144.06447434011739
                ],
                "faults_injected": 0,
                "faults_recovered": 0,
                "mean_detection_latency": 144.06447434011739,
                "recall": 1.0,
                "sweeps": [
                    {
                        "compromised": [
                            "t000@h00"
                        ],
                        "tenants_probed": 13
                    }
                ],
                "tenants_degraded": [],
                "tenants_running": 7,
                "unreachable_findings": 0,
                "virtual_now": 749.4367386160072
            },
            "ksm=settled,probe=shallow,seed=s3,workload=bursty": {
                "campaigns": 1,
                "detected": 1,
                "detection_latencies": [
                    144.06447434011739
                ],
                "faults_injected": 0,
                "faults_recovered": 0,
                "mean_detection_latency": 144.06447434011739,
                "recall": 1.0,
                "sweeps": [
                    {
                        "compromised": [
                            "t000@h00"
                        ],
                        "tenants_probed": 13
                    }
                ],
                "tenants_degraded": [],
                "tenants_running": 7,
                "unreachable_findings": 0,
                "virtual_now": 749.4367386160072
            },
            "ksm=settled,probe=shallow,seed=s4,workload=bursty": {
                "campaigns": 1,
                "detected": 1,
                "detection_latencies": [
                    144.06447434011739
                ],
                "faults_injected": 0,
                "faults_recovered": 0,
                "mean_detection_latency": 144.06447434011739,
                "recall": 1.0,
                "sweeps": [
                    {
                        "compromised": [
                            "t000@h00"
                        ],
                        "tenants_probed": 13
                    }
                ],
                "tenants_degraded": [],
                "tenants_running": 7,
                "unreachable_findings": 0,
                "virtual_now": 749.4367386160072
            },
            "ksm=settled,probe=shallow,seed=s5,workload=bursty": {
                "campaigns": 1,
                "detected": 1,
                "detection_latencies": [
                    144.06447434011739
                ],
                "faults_injected": 0,
                "faults_recovered": 0,
                "mean_detection_latency": 144.06447434011739,
                "recall": 1.0,
                "sweeps": [
                    {
                        "compromised": [
                            "t000@h00"
                        ],
                        "tenants_probed": 13
                    }
                ],
                "tenants_degraded": [],
                "tenants_running": 7,
                "unreachable_findings": 0,
                "virtual_now": 749.4367386160072
            },
            "ksm=settled,probe=shallow,seed=s6,workload=bursty": {
                "campaigns": 1,
                "detected": 1,
                "detection_latencies": [
                    144.06447434011739
                ],
                "faults_injected": 0,
                "faults_recovered": 0,
                "mean_detection_latency": 144.06447434011739,
                "recall": 1.0,
                "sweeps": [
                    {
                        "compromised": [
                            "t000@h00"
                        ],
                        "tenants_probed": 13
                    }
                ],
                "tenants_degraded": [],
                "tenants_running": 7,
                "unreachable_findings": 0,
                "virtual_now": 749.4367386160072
            }
        },
    },
    "sharded_sweep_16x": {
        # New entry introduced with the sharded-core PR: the baseline
        # wall is the 4-shard branch's first clean measurement (serial
        # ran 10.1s in the same process; this box has one CPU, so the
        # shards timeshare it — the scaling gate is the deterministic
        # critical-path ratio, see sharded_sweep_entry).  The
        # fingerprint pins the 16x192 outcome plus a digest of the full
        # run summary, which doubles as the cross-shard divergence bar.
        "wall_seconds": 11.409,
        "fingerprint": {
            "virtual_now": 4489.657104421361,
            "tenants_probed": 192,
            "compromised": ["t074@h09"],
            "recall": 1.0,
            "summary_sha256": (
                "5dff07660c95a0d49397586cdb606424"
                "014a269f7fa8bbc0da4db7ef2ce26cf9"
            ),
        },
    },
    "probe_score_4x12": {
        # New entry introduced with the probe-catalog PR: the baseline
        # wall is the whole-catalog sweep's first clean measurement
        # (single-detector ran 1.02s in the same process, ratio 1.08x
        # against the 1.5x budget); the fingerprint pins the catalog's
        # verdict census — the VMI probe's one `inconclusive` is the
        # nested tenant behind the semantic gap.
        "wall_seconds": 1.102,
        "fingerprint": {
            "virtual_now": 608.8246685267202,
            "tenants_probed": 13,
            "compromised": ["t000@h02"],
            "recall": 1.0,
            "verdicts": {
                "ksm_timing": {"clean": 12, "nested": 1},
                "vmi_invariance": {"clean": 12, "inconclusive": 1},
                "dedup_spy": {"clean": 13},
            },
        },
    },
    "lmbench_l2_proc": {
        "wall_seconds": 0.128,
        "fingerprint": {
            "latencies_us": {
                "AF_UNIX sock stream latency": 40.955226277960996,
                "fork+ /bin/sh -c": 2032.6331245589731,
                "fork+ execve": 596.0382541469006,
                "fork+ exit": 250.6445163207815,
                "pipe latency": 65.55697754452488,
                "protection fault": 0.3464310272261916,
                "signal handler installation": 0.11728802613223249,
                "signal handler overhead": 0.629748239360108,
            },
        },
    },
}


def scenario_detection_io():
    from repro import scenarios
    from repro.core.detection.dedup_detector import DedupDetector
    from repro.workloads.filebench import FilebenchWorkload

    fingerprint = {}
    perf = {}
    started = time.perf_counter()
    for nested in (False, True):
        host, cloud, _ksm, locator = scenarios.detection_setup(
            nested=nested, seed=42
        )
        workload = FilebenchWorkload()
        workload.start(locator(), duration=10_000.0)
        detector = DedupDetector(host, cloud, file_pages=30)
        report = host.engine.run(host.engine.process(detector.run()))
        workload.stop()
        verdict = report.verdict
        key = "nested" if nested else "clean"
        fingerprint[key] = {
            "verdict": verdict.verdict,
            "median_t0": verdict.median_t0,
            "median_t1": verdict.median_t1,
            "median_t2": verdict.median_t2,
            "virtual_now": host.engine.now,
        }
        perf[key] = host.engine.perf.as_dict()
    return time.perf_counter() - started, fingerprint, perf


def scenario_fig4_migration():
    from repro import scenarios
    from repro.qemu.config import DriveSpec
    from repro.qemu.qemu_img import qemu_img_create
    from repro.qemu.vm import launch_vm
    from repro.workloads.filebench import FilebenchWorkload

    started = time.perf_counter()
    host = scenarios.testbed(seed=42)
    vm = scenarios.launch_victim(host)
    workload = FilebenchWorkload()
    workload.start(vm.guest)
    qemu_img_create(host, "/var/lib/images/dest.qcow2", 20)
    config = vm.config.clone_for_destination(
        "dest0", incoming_port=4444, keep_hostfwds=False
    )
    config.drives = [DriveSpec("/var/lib/images/dest.qcow2")]
    launch_vm(host, config)
    migration_started = host.engine.now
    vm.monitor.execute("migrate -d tcp:127.0.0.1:4444")
    host.engine.run(vm.migration_process)
    workload.stop()
    stats = vm.migration_stats
    fingerprint = {
        "status": stats.status,
        "ram_bytes": stats.ram_bytes,
        "pages_transferred": stats.pages_transferred,
        "zero_pages": stats.zero_pages,
        "iterations": stats.iterations,
        "downtime": stats.downtime,
        "migration_virtual_seconds": host.engine.now - migration_started,
    }
    return time.perf_counter() - started, fingerprint, host.engine.perf.as_dict()


#: Fleet-sweep parameters shared by the timing scenario and the
#: tracer-overhead check, so the two measure the same workload.
FLEET_SWEEP_PARAMS = dict(
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

#: Ceiling on the wall-clock cost of tracing fleet_sweep_4x12, as a
#: percentage over the untraced run in the same process.  Measured
#: overhead is ~0-3% (decimated hot paths); the budget leaves headroom
#: for CI timing noise while still catching an accidental per-event
#: hot-path regression (undecimated step tracing costs >100%).
TRACER_OVERHEAD_BUDGET_PCT = 25.0


def _run_clean_room(child_code, *child_args):
    """Run a timing child in a fresh interpreter; parse its JSON reply.

    Ratio gates (tracer overhead, warm-fork speedup) compare two wall
    clocks measured back to back.  In the report's own long-lived
    process both legs inflate with whatever earlier scenarios left
    behind — allocator arenas and caches that ``heap_frozen`` can't
    shield — and on a small box the swing (±35 % observed on the
    matrix legs) is larger than the margins the gates enforce, in
    either direction.  A fresh interpreter per entry makes the thing
    the gate measures the only variable, the same reasoning
    ``bench-par`` applies to whole scenarios.  Children time inside
    themselves (best-of-two, mirroring :func:`_measure`), so
    interpreter startup is excluded and transient load is damped.

    The child gets ``src`` and ``benchmarks`` on ``sys.path`` via its
    first two argv entries and must print its JSON reply as the last
    stdout line.
    """
    import subprocess

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-c", child_code, src_dir, bench_dir]
        + [str(arg) for arg in child_args],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"clean-room timing child failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Clean-room child for the tracer-overhead entry: fleet_sweep_4x12
#: untraced then traced, each best-of-two, in a fresh interpreter.
_TRACER_CHILD = """\
import json, sys

src_dir, bench_dir = sys.argv[1:3]
sys.path.insert(0, bench_dir)
sys.path.insert(0, src_dir)

from perf_report import _run_fleet_sweep


# Interleaved best-of-two: at sub-second leg walls the allocator
# warming between the first and last run is itself a few percent, so
# neither leg may own "last".
walls = {False: [], True: []}
fps = {False: None, True: None}
traced = None
for trace in (False, True, False, True):
    wall, fp, result = _run_fleet_sweep(trace=trace)
    if fps[trace] is not None and fp != fps[trace]:
        raise AssertionError("fleet sweep fingerprints differ between runs")
    walls[trace].append(wall)
    fps[trace] = fp
    if trace:
        traced = result

untraced_wall, untraced_fp = min(walls[False]), fps[False]
traced_wall, traced_fp = min(walls[True]), fps[True]
print()
print(json.dumps({
    "untraced_wall": untraced_wall,
    "traced_wall": traced_wall,
    "untraced_fp": untraced_fp,
    "traced_fp": traced_fp,
    "trace_events": len(traced.tracer.events()),
    "dropped_events": traced.tracer.dropped_events,
    "metrics": traced.tracer.metrics.as_dict(),
}))
"""


def _run_fleet_sweep(trace=False):
    """One fleet_sweep_4x12 run; returns (wall, fingerprint, result)."""
    from repro.cloud import run_fleet

    started = time.perf_counter()
    result = run_fleet(trace=trace, **FLEET_SWEEP_PARAMS)
    wall = time.perf_counter() - started
    engine = result.datacenter.engine
    sweep = result.monitor.reports[0]
    fingerprint = {
        "virtual_now": engine.now,
        "placements": engine.perf.cloud_placements,
        "migrations": engine.perf.cloud_migrations,
        "tenants_probed": sweep.tenants_probed,
        "compromised": [f"{t}@{h}" for t, h in sweep.compromised],
        "recall": result.recall,
    }
    return wall, fingerprint, result


def scenario_fleet_sweep():
    wall, fingerprint, result = _run_fleet_sweep()
    return wall, fingerprint, result.datacenter.engine.perf.as_dict()


def tracer_overhead_entry():
    """Benchmark tracing overhead on fleet_sweep_4x12.

    Runs the scenario untraced then traced (best-of-two each, in a
    fresh interpreter — see :func:`_run_clean_room`) and holds the
    slowdown to :data:`TRACER_OVERHEAD_BUDGET_PCT`.  Also asserts the
    traced run's virtual-time fingerprint is identical —
    observability must never perturb the simulation.
    """
    data = _run_clean_room(_TRACER_CHILD)
    overhead_pct = 100.0 * (data["traced_wall"] / data["untraced_wall"] - 1.0)
    return {
        "untraced_wall_seconds": round(data["untraced_wall"], 3),
        "traced_wall_seconds": round(data["traced_wall"], 3),
        "overhead_pct": round(overhead_pct, 1),
        "overhead_budget_pct": TRACER_OVERHEAD_BUDGET_PCT,
        "within_budget": overhead_pct <= TRACER_OVERHEAD_BUDGET_PCT,
        "trace_events": data["trace_events"],
        "dropped_events": data["dropped_events"],
        "fingerprint_matches_baseline": data["traced_fp"] == data["untraced_fp"],
        # The traced run's full metric registry — deterministic, so the
        # dump doubles as a regression fingerprint for the tracepoints.
        "metrics": data["metrics"],
    }


#: The warmed-fleet shape the fan-out benchmark amortizes: a heavier
#: churn tail plus a KSM settle window make the warm prefix dominate,
#: which is exactly the workload shape snapshot/fork exists for (the
#: paper's Figs 5/6 loop: one warmed guest, many timed probe branches).
CHAOS_FANOUT_WARM_PARAMS = dict(
    hosts=4,
    tenants=12,
    seed=42,
    churn_operations=96,
    rebalance_moves=1,
    settle_seconds=120.0,
)

#: The divergent suffix every branch runs after the fork.
CHAOS_FANOUT_BRANCH_PARAMS = dict(
    campaigns=1,
    sweeps=1,
    file_pages=12,
    wait_seconds=10.0,
)

#: Required wall-clock advantage of warm-once-fork-12 over the same 12
#: branches run cold (each paying its own warm-up).
CHAOS_FANOUT_SPEEDUP_TARGET = 2.0


def _chaos_fanout_plans():
    """The 12 branch plans: one fault-free, one per fault kind, and
    four seed variants of the ``mixed`` standard plan.

    The seed variants are what amortizes the one-shot warm-up/capture
    cost into a robust end-to-end win: at 8 branches the speedup sits
    near the 2x gate, at 12 it clears it with margin — and a per-seed
    sweep of the same mix is exactly how `fan_out_seeds` is used.
    """
    from repro.faults.chaos import standard_mix_plan
    from repro.faults.plan import FAULT_KINDS, FaultPlan
    from repro.sim.rng import RngRegistry

    plans = [("none", None)]
    for kind in FAULT_KINDS:
        rng = RngRegistry(42).stream(f"faults.kind.{kind}")
        plans.append(
            (kind, FaultPlan.random(rng, faults=3, horizon=180.0, kinds=(kind,)))
        )
    for index in range(1, 5):
        plans.append(
            (
                f"mixed#{index}",
                standard_mix_plan(
                    "mixed",
                    42,
                    faults=3,
                    horizon=180.0,
                    stream=f"faults.mix.mixed#{index}",
                ),
            )
        )
    return plans


def _chaos_branch_fingerprint(kind, result):
    perf = result.datacenter.engine.perf
    latencies = result.detection_latencies
    return {
        "kind": kind,
        "campaigns": len(result.campaign.events),
        "detected": result.detected_campaigns,
        "recall": result.recall,
        "mean_detection_latency": (
            sum(latencies) / len(latencies) if latencies else None
        ),
        "faults_injected": perf.faults_injected,
        "faults_recovered": perf.faults_recovered,
        "virtual_now": result.datacenter.engine.now,
    }


def chaos_fanout_entry():
    """Benchmark warm-once-fork-12 against the same 12 branches cold.

    Warms one 4x12 fleet, snapshots it, forks the 12 branch plans off
    the snapshot (serial fan-out), then runs all 12 cold — each cold
    branch paying the full warm-up itself on a live, uncaptured fleet.
    Two gates: every forked branch must fingerprint byte-identically to
    its cold twin (forks don't perturb virtual time), and the fan-out
    wall must beat cold by :data:`CHAOS_FANOUT_SPEEDUP_TARGET`.  The
    internal forked-vs-cold diff doubles as the determinism check, so
    this entry runs single-pass instead of best-of-two.

    The whole measurement (warm-up, fan-out, *and* the cold comparator
    legs) runs under :func:`heap_frozen`: by the time this entry runs,
    the earlier scenarios have left a large live heap behind, and
    letting the collector's full passes re-scan it inflates both sides
    of the comparison by up to 2x — this entry would then be timing the
    other scenarios' leftovers, not the fork payoff.
    """
    import gc

    from repro.cloud import warm_fleet
    from repro.sim.snapshot import heap_frozen

    plans = _chaos_fanout_plans()
    with heap_frozen():
        started = time.perf_counter()
        fleet = warm_fleet(**CHAOS_FANOUT_WARM_PARAMS)
        warm_wall = time.perf_counter() - started
        pages_shared = fleet.snapshot.pages_shared
        with fleet:
            results = fleet.fan_out(
                [
                    dict(CHAOS_FANOUT_BRANCH_PARAMS, faults=plan)
                    for _kind, plan in plans
                ]
            )
        fanout_wall = time.perf_counter() - started
        forked = {
            kind: _chaos_branch_fingerprint(kind, result)
            for (kind, _plan), result in zip(plans, results)
        }
        perf = fleet.engine.perf.as_dict()
        del results, fleet

        cold_started = time.perf_counter()
        cold = {}
        for kind, plan in plans:
            live = warm_fleet(capture=False, **CHAOS_FANOUT_WARM_PARAMS)
            result = live.branch(faults=plan, **CHAOS_FANOUT_BRANCH_PARAMS)
            cold[kind] = _chaos_branch_fingerprint(kind, result)
            del live, result
            gc.collect()  # same per-leg discipline the fan-out side gets
        cold_wall = time.perf_counter() - cold_started

    speedup = cold_wall / fanout_wall
    base = BASELINE["chaos_fanout_4x12"]
    forked_matches_cold = forked == cold
    return {
        "wall_seconds": round(fanout_wall, 3),
        "baseline_wall_seconds": base["wall_seconds"],
        "warm_wall_seconds": round(warm_wall, 3),
        "cold_wall_seconds": round(cold_wall, 3),
        "speedup_vs_cold": round(speedup, 2),
        "speedup_target": CHAOS_FANOUT_SPEEDUP_TARGET,
        "meets_speedup_target": speedup >= CHAOS_FANOUT_SPEEDUP_TARGET,
        "branches": len(plans),
        "pages_shared_per_fork": pages_shared,
        "forked_matches_cold": forked_matches_cold,
        "fingerprint": forked,
        # A fork that diverges from its cold twin is a correctness bug
        # even when the pinned baseline hasn't caught up, so the CI gate
        # folds both comparisons together.
        "fingerprint_matches_baseline": (
            forked == base["fingerprint"] and forked_matches_cold
        ),
        "perf_counters": perf,
    }


#: Required wall-clock advantage of the matrix runner's warm-fork
#: grouping over the same variants run cold (one warm-up each).
MATRIX_EXPAND_SPEEDUP_TARGET = 2.0

#: The single-warm-group cell the speedup gate times: the seven
#: attacker-seed variants of the bursty/settled/shallow corner of the
#: detection-recall grid (one warm fleet, seven forked branches).  The
#: heavy churn + settle warm prefix against shallow probe branches is
#: the shape warm-fork grouping exists for.
MATRIX_SPEEDUP_CELL = "workload=bursty..ksm=settled..probe=shallow"

#: Clean-room child for one matrix leg: times one MatrixRunner pass
#: (warm-fork or cold) best-of-two and reports wall + the pinnable
#: surface.  Extra argv: spec_path, only-filter, "1"/"0" for warm_fork.
_MATRIX_LEG_CHILD = """\
import json, sys, time

src_dir, _bench_dir, spec_path, cell, warm = sys.argv[1:6]
sys.path.insert(0, src_dir)

from repro.matrix import MatrixRunner, MatrixSpec
from repro.sim.snapshot import heap_frozen

spec = MatrixSpec.load(spec_path)
walls = []
report = None
with heap_frozen():
    for _ in range(2):  # best-of-two, like _measure
        started = time.perf_counter()
        rerun = MatrixRunner(spec, warm_fork=warm == "1").run(only=cell)
        walls.append(time.perf_counter() - started)
        if report is not None and rerun.fingerprints() != report.fingerprints():
            raise AssertionError("matrix leg fingerprints differ between runs")
        report = rerun
print()
print(json.dumps({
    "wall": min(walls),
    "fingerprints": report.fingerprints(),
    "perf_deltas": [entry["perf_delta"] for entry in report.entries],
    "timed_variants": len(report.entries),
}))
"""


def _matrix_leg(spec_path, warm_fork):
    """Run one timed matrix leg clean-room (see :func:`_run_clean_room`)."""
    return _run_clean_room(
        _MATRIX_LEG_CHILD,
        spec_path,
        MATRIX_SPEEDUP_CELL,
        "1" if warm_fork else "0",
    )


def matrix_expand_entry():
    """Benchmark the scenario matrix: expansion scale + warm-fork payoff.

    Two checks share the entry.  First, the shipped detection-recall
    grid must expand to its full >=200 variants with IDs stable across
    back-to-back expansions (IDs derive from axis values, never from
    enumeration order).  Second, the runner's warm-fork grouping is
    timed against the cold comparator on one warm group
    (:data:`MATRIX_SPEEDUP_CELL`): the grouped run must beat cold by
    :data:`MATRIX_EXPAND_SPEEDUP_TARGET` while producing byte-identical
    fingerprints *and* perf deltas — the grouping decision may only
    show in the wall clock.

    Both timed legs run in fresh interpreters (see :func:`_matrix_leg`
    for why in-process timing can't hold a 2x ratio steady late in the
    report) and under ``heap_frozen`` for the same reason
    :func:`chaos_fanout_entry` uses it: the fork loop's own disposed
    branches are collector bait.
    """
    from repro.matrix import MatrixSpec, expand

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec_path = os.path.join(
        repo_root, "examples", "matrices", "detection_recall.cfg"
    )
    spec = MatrixSpec.load(spec_path)
    started = time.perf_counter()
    ids = [variant.variant_id for variant in expand(spec)]
    expand_wall = time.perf_counter() - started
    ids_stable = ids == [variant.variant_id for variant in expand(spec)]
    count_ok = len(ids) >= 200

    forked_leg = _matrix_leg(spec_path, warm_fork=True)
    cold_leg = _matrix_leg(spec_path, warm_fork=False)
    forked_wall = forked_leg["wall"]
    cold_wall = cold_leg["wall"]
    speedup = cold_wall / forked_wall
    fingerprint = forked_leg["fingerprints"]
    # Group bookkeeping legitimately differs (forked: true/false), so
    # the equality bar is the pinnable surface plus the perf deltas.
    forked_matches_cold = (
        fingerprint == cold_leg["fingerprints"]
        and forked_leg["perf_deltas"] == cold_leg["perf_deltas"]
    )

    base = BASELINE["matrix_expand_200"]
    return {
        "wall_seconds": round(forked_wall, 3),
        "baseline_wall_seconds": base["wall_seconds"],
        "expand_wall_seconds": round(expand_wall, 3),
        "variants_expanded": len(ids),
        "variant_count_ok": count_ok,
        "ids_stable": ids_stable,
        "timed_variants": forked_leg["timed_variants"],
        "cold_wall_seconds": round(cold_wall, 3),
        "speedup_vs_cold": round(speedup, 2),
        "speedup_target": MATRIX_EXPAND_SPEEDUP_TARGET,
        "within_budget": speedup >= MATRIX_EXPAND_SPEEDUP_TARGET,
        "forked_matches_cold": forked_matches_cold,
        "fingerprint": fingerprint,
        # Grouping must be invisible in results and the grid must keep
        # its shape, so the CI gate folds all the correctness bits in.
        "fingerprint_matches_baseline": (
            fingerprint == base["fingerprint"]
            and forked_matches_cold
            and ids_stable
            and count_ok
        ),
    }


#: Ceiling on the whole-catalog sweep's wall clock, relative to the
#: single-detector fleet_sweep_4x12 measured in the same process.  The
#: two extra probes are cheap by design (a capped VMI walk, three
#: census samples); the budget catches a probe that grows a hot loop.
PROBE_SCORE_RATIO_BUDGET = 1.5


def probe_score_entry():
    """Benchmark the whole-catalog sweep against the single detector.

    Runs fleet_sweep_4x12 with the default probe list (KSM timing
    only), then the identical fleet with all three catalog probes
    scheduled per tenant.  Two gates: the catalog sweep's wall clock
    must stay within :data:`PROBE_SCORE_RATIO_BUDGET` of the
    single-detector run, and the multi-probe virtual-time fingerprint
    — clock, compromised set, campaign recall, and the per-probe
    verdict census — is pinned against :data:`BASELINE`.
    """
    from repro.cloud import run_fleet

    single_wall, _single_fp, _ = _run_fleet_sweep()

    started = time.perf_counter()
    result = run_fleet(
        probes=("ksm_timing", "vmi_invariance", "dedup_spy"),
        **FLEET_SWEEP_PARAMS,
    )
    wall = time.perf_counter() - started
    engine = result.datacenter.engine
    sweep = result.monitor.reports[0]
    verdicts = {}
    for host_name in sorted(sweep.host_reports):
        for finding in sweep.host_reports[host_name].findings:
            for verdict in finding.probe_verdicts.values():
                bucket = verdicts.setdefault(verdict.probe, {})
                bucket[verdict.verdict] = bucket.get(verdict.verdict, 0) + 1
    fingerprint = {
        "virtual_now": engine.now,
        "tenants_probed": sweep.tenants_probed,
        "compromised": [f"{t}@{h}" for t, h in sweep.compromised],
        "recall": result.recall,
        "verdicts": verdicts,
    }
    ratio = wall / single_wall
    base = BASELINE["probe_score_4x12"]
    return {
        "wall_seconds": round(wall, 3),
        "baseline_wall_seconds": base["wall_seconds"],
        "single_detector_wall_seconds": round(single_wall, 3),
        "ratio_vs_single_detector": round(ratio, 2),
        "ratio_budget": PROBE_SCORE_RATIO_BUDGET,
        "within_budget": ratio <= PROBE_SCORE_RATIO_BUDGET,
        "fingerprint": fingerprint,
        "fingerprint_matches_baseline": fingerprint == base["fingerprint"],
        "perf_counters": engine.perf.as_dict(),
    }


#: The sharded-scaling shape: one rack-heavy fleet (16 hosts, 192
#: tenants) warmed once, then the attack/sweep branch run serial and
#: 4-way sharded off the same copy-on-write snapshot.  Zero churn keeps
#: the warm prefix cheap — the branch is what sharding parallelizes.
SHARDED_SWEEP_WARM_PARAMS = dict(
    hosts=16,
    tenants=192,
    seed=42,
    churn_operations=0,
    rebalance_moves=0,
)

SHARDED_SWEEP_BRANCH_PARAMS = dict(
    campaigns=1,
    sweeps=1,
    max_concurrent_probes=16,
    file_pages=12,
    wait_seconds=10.0,
)

SHARDED_SWEEP_SHARDS = 4

#: Required critical-path advantage of the 4-shard branch: serial
#: branch events dispatched over the busiest shard's branch events.
#: This is the wall-clock speedup a host with >= SHARDED_SWEEP_SHARDS
#: cores realizes, measured in a form that is deterministic (same seed
#: -> identical event counts) and so CI-stable on any machine,
#: including single-core runners where the worker processes timeshare
#: one core and the raw wall ratio measures the scheduler, not the
#: protocol.
SHARDED_SWEEP_SPEEDUP_TARGET = 2.0

#: Ceiling on shard 0's sync-message count for the whole branch.  The
#: send-cone horizons keep the mesh near-silent (~1.4k messages for
#: ~700k branch events); a regression to event-granularity lockstep
#: (hundreds of thousands of null messages) trips this long before it
#: shows up as wall-clock noise.
SHARDED_SWEEP_MESSAGE_BUDGET = 20_000


def _sharded_sweep_fingerprint(result):
    import hashlib

    engine = result.datacenter.engine
    sweep = result.monitor.reports[0]
    summary = result.summary()
    return {
        "virtual_now": engine.now,
        "tenants_probed": sweep.tenants_probed,
        "compromised": [f"{t}@{h}" for t, h in sweep.compromised],
        "recall": result.recall,
        "summary_sha256": hashlib.sha256(
            summary.encode("utf-8")
        ).hexdigest(),
    }


def sharded_sweep_entry():
    """Benchmark the sharded simulation core on a 16-host fleet.

    Warms one 16x192 fleet, snapshots it, then runs the identical
    attack/sweep branch twice off the snapshot: serial, and split
    :data:`SHARDED_SWEEP_SHARDS` ways across worker processes
    (`repro.cloud.sharding`).  Three gates:

    * the sharded branch's fingerprint (including a digest of the full
      run summary — the same surface the shard fin barrier diffs) must
      be byte-identical to the serial branch and to :data:`BASELINE`;
    * the **critical-path speedup** — serial branch events dispatched
      over the busiest shard's branch events — must meet
      :data:`SHARDED_SWEEP_SPEEDUP_TARGET`.  Event counts are
      deterministic, so this gate is machine-independent; it equals the
      achievable wall-clock speedup once each worker has its own core.
      The raw wall ratio is recorded (with ``os.cpu_count()``) but not
      gated: on a single-core runner the workers timeshare the CPU and
      the wall ratio measures the kernel scheduler, not this protocol;
    * shard 0's sync-message count must stay under
      :data:`SHARDED_SWEEP_MESSAGE_BUDGET` — the horizon protocol's
      overhead bound, which *is* meaningful on any core count.

    Single-pass (the serial/sharded diff doubles as the determinism
    check), under ``heap_frozen`` like the other fork-based entries.
    """
    import gc

    from repro.cloud import warm_fleet
    from repro.sim.snapshot import heap_frozen

    with heap_frozen():
        started = time.perf_counter()
        fleet = warm_fleet(**SHARDED_SWEEP_WARM_PARAMS)
        warm_wall = time.perf_counter() - started
        warm_events = fleet.engine.perf.events_dispatched
        with fleet:
            started = time.perf_counter()
            serial = fleet.branch(**SHARDED_SWEEP_BRANCH_PARAMS)
            serial_wall = time.perf_counter() - started
            serial_events = (
                serial.datacenter.engine.perf.events_dispatched - warm_events
            )
            serial_fp = _sharded_sweep_fingerprint(serial)
            del serial
            gc.collect()
            started = time.perf_counter()
            sharded = fleet.branch(
                shards=SHARDED_SWEEP_SHARDS, **SHARDED_SWEEP_BRANCH_PARAMS
            )
            sharded_wall = time.perf_counter() - started
            sharded_fp = _sharded_sweep_fingerprint(sharded)
            stats = sharded.shard_stats
            perf = sharded.datacenter.engine.perf.as_dict()

    shard_events = {
        shard: extra["events_dispatched"] - warm_events
        for shard, extra in stats["per_shard"].items()
    }
    speedup = serial_events / max(shard_events.values())
    messages_ok = stats["messages_sent"] <= SHARDED_SWEEP_MESSAGE_BUDGET
    sharded_matches_serial = sharded_fp == serial_fp
    base = BASELINE["sharded_sweep_16x"]
    return {
        "wall_seconds": round(sharded_wall, 3),
        "baseline_wall_seconds": base["wall_seconds"],
        "warm_wall_seconds": round(warm_wall, 3),
        "serial_wall_seconds": round(serial_wall, 3),
        "wall_speedup_vs_serial": round(serial_wall / sharded_wall, 2),
        "cpu_count": os.cpu_count(),
        "shards": SHARDED_SWEEP_SHARDS,
        "serial_branch_events": serial_events,
        "shard_branch_events": {
            str(shard): events for shard, events in sorted(shard_events.items())
        },
        "critical_path_speedup": round(speedup, 2),
        "speedup_target": SHARDED_SWEEP_SPEEDUP_TARGET,
        "messages_sent": stats["messages_sent"],
        "message_budget": SHARDED_SWEEP_MESSAGE_BUDGET,
        "blocked_waits": stats["blocked_waits"],
        "ghosts_injected": stats["ghosts_injected"],
        "within_budget": (
            speedup >= SHARDED_SWEEP_SPEEDUP_TARGET and messages_ok
        ),
        "sharded_matches_serial": sharded_matches_serial,
        "fingerprint": sharded_fp,
        # A sharded run that diverges from its serial twin is a
        # correctness bug regardless of the pinned baseline, so the CI
        # gate folds both comparisons together.
        "fingerprint_matches_baseline": (
            sharded_fp == base["fingerprint"] and sharded_matches_serial
        ),
        "perf_counters": perf,
    }


def scenario_chaos_recall():
    """Detection recall/latency on fleet_sweep_4x12 under the ``mixed``
    fault mix — one chaos leg, seeded, so the scorecard is a virtual-time
    fingerprint like every other scenario."""
    from repro.faults import ChaosCampaign

    started = time.perf_counter()
    campaign = ChaosCampaign(
        seed=42, mixes=("mixed",), faults_per_mix=5, horizon=240.0
    )
    report = campaign.run()
    wall = time.perf_counter() - started
    entry = report.entries[0]
    fingerprint = {
        "campaigns": entry["campaigns"],
        "detected": entry["detected"],
        "faults_injected": entry["faults_injected"],
        "faults_recovered": entry["faults_recovered"],
        "mean_detection_latency": entry["mean_detection_latency"],
        "recall": entry["recall"],
        "tenants_degraded": entry["tenants_degraded"],
        "tenants_running": entry["tenants_running"],
        "unreachable_findings": entry["unreachable_findings"],
        "virtual_now": entry["virtual_time"],
    }
    perf = campaign.results[0].datacenter.engine.perf.as_dict()
    return wall, fingerprint, perf


def scenario_lmbench_l2():
    from repro import scenarios
    from repro.workloads.lmbench.proc import LmbenchProc

    started = time.perf_counter()
    host, system = scenarios.system_at_level(2, seed=123)
    result = host.engine.run(LmbenchProc().start(system, repetition_scale=0.25))
    fingerprint = {"latencies_us": result.metrics["latencies_us"]}
    return time.perf_counter() - started, fingerprint, host.engine.perf.as_dict()


def scenario_migration_dedup():
    """Deduplicated pre-copy under a KSM-heavy tenant.

    The victim guest fills its page cache with 4 x 12 template pages,
    each duplicated 40-fold (the kind of footprint KSM thrives on),
    then migrates twice: once plain, once with the ``dedup`` capability
    set through the monitor.  The fingerprint pins both wire footprints
    — the dedup run must move the same page population (identical
    destination-side writes) in strictly fewer bytes.
    """
    import hashlib

    from repro import scenarios
    from repro.hypervisor.ksm import KsmDaemon
    from repro.qemu.config import DriveSpec
    from repro.qemu.qemu_img import qemu_img_create
    from repro.qemu.vm import launch_vm

    def one_migration(dedup):
        host = scenarios.testbed(seed=42)
        vm = scenarios.launch_victim(host)
        ksm = KsmDaemon(host.machine)
        ksm.start()
        memory = vm.guest.memory
        for group in range(4):
            for template in range(12):
                content = hashlib.blake2b(
                    f"dedup:{group}:{template}".encode("utf-8"),
                    digest_size=48,
                ).digest()
                for _ in range(40):
                    memory.write(memory.alloc_page(), content)
        if dedup:
            vm.monitor.execute("migrate_set_capability dedup on")
        qemu_img_create(host, "/var/lib/images/dest.qcow2", 20)
        config = vm.config.clone_for_destination(
            "dest0", incoming_port=4444, keep_hostfwds=False
        )
        config.drives = [DriveSpec("/var/lib/images/dest.qcow2")]
        launch_vm(host, config)
        migration_started = host.engine.now
        vm.monitor.execute("migrate -d tcp:127.0.0.1:4444")
        host.engine.run(vm.migration_process)
        stats = vm.migration_stats
        return (
            {
                "status": stats.status,
                "ram_bytes": stats.ram_bytes,
                "pages_transferred": stats.pages_transferred,
                "pages_deduped": stats.pages_deduped,
                "zero_pages": stats.zero_pages,
                "iterations": stats.iterations,
                "migration_virtual_seconds": host.engine.now
                - migration_started,
            },
            host.engine.perf.as_dict(),
        )

    started = time.perf_counter()
    plain, _ = one_migration(dedup=False)
    dedup, perf = one_migration(dedup=True)
    fingerprint = {
        "plain": plain,
        "dedup": dedup,
        "wire_savings_pct": round(
            100.0 * (1.0 - dedup["ram_bytes"] / plain["ram_bytes"]), 2
        ),
    }
    return time.perf_counter() - started, fingerprint, perf


SCENARIOS = (
    ("detection_under_io", scenario_detection_io),
    ("fig4_migration_filebench", scenario_fig4_migration),
    ("lmbench_l2_proc", scenario_lmbench_l2),
    ("fleet_sweep_4x12", scenario_fleet_sweep),
    ("chaos_recall_4x12", scenario_chaos_recall),
    ("migration_dedup_4x12", scenario_migration_dedup),
)


def _measure(fn):
    """Run a scenario twice and keep the faster wall clock.

    The BASELINE numbers are best-of-two (see the note above BASELINE);
    measuring the same way keeps the comparison symmetric and damps
    transient machine load.  The second run doubles as a determinism
    check: both fingerprints must be byte-identical.
    """
    wall_a, fingerprint, perf = fn()
    wall_b, fingerprint_b, _perf_b = fn()
    if fingerprint_b != fingerprint:
        raise AssertionError(
            "scenario fingerprints differ between back-to-back runs: "
            f"{fingerprint!r} vs {fingerprint_b!r}"
        )
    return min(wall_a, wall_b), fingerprint, perf


def run_report(quick=False, parallel=False):
    names = [
        name
        for name, _ in SCENARIOS
        if not (quick and name != "detection_under_io")
    ]
    results = {}
    if parallel and len(names) > 1:
        from repro.cloud.fleet import fork_map

        workers = min(len(names), os.cpu_count() or 1)
        print(
            f"[bench] running {len(names)} scenarios across "
            f"{workers} processes",
            flush=True,
        )
        scenarios = dict(SCENARIOS)
        outcomes = fork_map(
            lambda name: _measure(scenarios[name]), names, workers
        )
        results = dict(zip(names, outcomes))
    report = {}
    for name, fn in SCENARIOS:
        if name not in names:
            continue
        if name in results:
            wall, fingerprint, perf = results[name]
        else:
            print(f"[bench] {name} ...", flush=True)
            wall, fingerprint, perf = _measure(fn)
        base = BASELINE[name]
        entry = {
            "wall_seconds": round(wall, 3),
            "baseline_wall_seconds": base["wall_seconds"],
            "improvement_pct": round(
                100.0 * (1.0 - wall / base["wall_seconds"]), 1
            ),
            "fingerprint": fingerprint,
            "fingerprint_matches_baseline": fingerprint == base["fingerprint"],
            "perf_counters": perf,
        }
        report[name] = entry
        match = "match" if entry["fingerprint_matches_baseline"] else "MISMATCH"
        print(
            f"[bench] {name}: {wall:.3f}s vs baseline "
            f"{base['wall_seconds']:.3f}s "
            f"({entry['improvement_pct']:+.1f}% faster), fingerprint {match}"
        )
    # Tracer overhead runs in quick mode too: `make bench-quick` is the
    # gate that keeps observability off the hot path.
    print("[bench] tracer_overhead_fleet ...", flush=True)
    entry = tracer_overhead_entry()
    report["tracer_overhead_fleet"] = entry
    budget = "within budget" if entry["within_budget"] else "OVER BUDGET"
    print(
        f"[bench] tracer_overhead_fleet: traced "
        f"{entry['traced_wall_seconds']:.3f}s vs untraced "
        f"{entry['untraced_wall_seconds']:.3f}s "
        f"({entry['overhead_pct']:+.1f}%, budget "
        f"{entry['overhead_budget_pct']:.0f}%) {budget}, "
        f"{entry['trace_events']} events"
    )
    # The snapshot/fork payoff check runs in quick mode too: fork
    # determinism (forked == cold fingerprints) is part of its gate.
    print("[bench] chaos_fanout_4x12 ...", flush=True)
    entry = chaos_fanout_entry()
    report["chaos_fanout_4x12"] = entry
    match = "match" if entry["fingerprint_matches_baseline"] else "MISMATCH"
    target = "meets" if entry["meets_speedup_target"] else "MISSES"
    print(
        f"[bench] chaos_fanout_4x12: fan-out {entry['wall_seconds']:.3f}s "
        f"(warm {entry['warm_wall_seconds']:.3f}s) vs cold "
        f"{entry['cold_wall_seconds']:.3f}s — {entry['speedup_vs_cold']:.2f}x "
        f"({target} {entry['speedup_target']:.1f}x target), "
        f"{entry['pages_shared_per_fork']} pages shared/fork, "
        f"fingerprint {match}"
    )
    # The matrix gate runs in quick mode too: expansion shape and the
    # warm-fork speedup both guard shipped example specs.
    print("[bench] matrix_expand_200 ...", flush=True)
    entry = matrix_expand_entry()
    report["matrix_expand_200"] = entry
    match = "match" if entry["fingerprint_matches_baseline"] else "MISMATCH"
    target = "meets" if entry["within_budget"] else "MISSES"
    print(
        f"[bench] matrix_expand_200: {entry['variants_expanded']} variants "
        f"expanded in {entry['expand_wall_seconds']:.3f}s; warm-fork "
        f"{entry['wall_seconds']:.3f}s vs cold "
        f"{entry['cold_wall_seconds']:.3f}s — {entry['speedup_vs_cold']:.2f}x "
        f"({target} {entry['speedup_target']:.1f}x target), "
        f"fingerprint {match}"
    )
    # The probe-catalog gate runs in quick mode too: scheduling the
    # whole catalog per tenant must never blow up the sweep wall clock.
    print("[bench] probe_score_4x12 ...", flush=True)
    entry = probe_score_entry()
    report["probe_score_4x12"] = entry
    match = "match" if entry["fingerprint_matches_baseline"] else "MISMATCH"
    target = "within" if entry["within_budget"] else "OVER"
    print(
        f"[bench] probe_score_4x12: catalog sweep "
        f"{entry['wall_seconds']:.3f}s vs single-detector "
        f"{entry['single_detector_wall_seconds']:.3f}s — "
        f"{entry['ratio_vs_single_detector']:.2f}x ({target} "
        f"{entry['ratio_budget']:.1f}x budget), fingerprint {match}"
    )
    # The sharded-core gate: skipped in quick mode (its 16x192 fleet is
    # the suite's heaviest shape); the full run and CI's shard-smoke job
    # both exercise it.
    if not quick:
        print("[bench] sharded_sweep_16x ...", flush=True)
        entry = sharded_sweep_entry()
        report["sharded_sweep_16x"] = entry
        match = "match" if entry["fingerprint_matches_baseline"] else "MISMATCH"
        target = "meets" if entry["within_budget"] else "MISSES"
        print(
            f"[bench] sharded_sweep_16x: {entry['shards']}-shard branch "
            f"{entry['wall_seconds']:.3f}s vs serial "
            f"{entry['serial_wall_seconds']:.3f}s on {entry['cpu_count']} "
            f"cpu(s); critical-path {entry['critical_path_speedup']:.2f}x "
            f"({target} {entry['speedup_target']:.1f}x target), "
            f"{entry['messages_sent']} sync messages, fingerprint {match}"
        )
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run only the detection-under-IO scenario",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help=(
            "run scenarios across a multiprocessing pool (results "
            "merged deterministically by scenario name)"
        ),
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help=(
            "where to write the JSON report (default: repo-root "
            "BENCH_core.json, or BENCH_core.quick.json with --quick so a "
            "quick run never clobbers the full trajectory)"
        ),
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help=(
            "append-only perf ledger (default: repo-root "
            "BENCH_history.jsonl); BENCH_core.json is overwritten per "
            "run, the ledger keeps the trajectory"
        ),
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip appending this run to the history ledger",
    )
    args = parser.parse_args(argv)
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.output is None:
        name = "BENCH_core.quick.json" if args.quick else "BENCH_core.json"
        args.output = os.path.join(repo_root, name)
    report = run_report(quick=args.quick, parallel=args.parallel)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {args.output}")
    if not args.no_history:
        from repro.obs.history import append_bench_history, bench_history_record

        history_path = args.history or os.path.join(
            repo_root, "BENCH_history.jsonl"
        )
        append_bench_history(
            history_path, bench_history_record(report, quick=args.quick)
        )
        print(f"[bench] appended to {history_path}")
    mismatched = [
        name
        for name, entry in report.items()
        if not entry["fingerprint_matches_baseline"]
    ]
    if mismatched:
        print(f"[bench] FINGERPRINT MISMATCH: {', '.join(mismatched)}")
        return 1
    over_budget = [
        name
        for name, entry in report.items()
        if not entry.get("within_budget", True)
    ]
    if over_budget:
        print(f"[bench] TRACER OVERHEAD OVER BUDGET: {', '.join(over_budget)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
