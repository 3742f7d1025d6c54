"""Ablation: pre-copy vs post-copy migration (§II-A).

The paper: "today's mainstream hypervisors support two types of live
migration ... The rootkit technique we present applies to both."  This
bench quantifies the trade-off that makes post-copy attractive to an
attacker facing a busy victim: its end-to-end time is workload-
independent, where pre-copy's explodes under a CPU/memory workload.
"""

import pytest

from repro import scenarios
from repro.analysis.report import render_table
from repro.qemu.config import DriveSpec
from repro.qemu.qemu_img import qemu_img_create
from repro.qemu.vm import launch_vm
from repro.workloads.idle import IdleWorkload
from repro.workloads.kernel_compile import KernelCompileWorkload


def _migrate(workload_name, seed, capabilities):
    """Migrate a loaded victim into a same-host ``-incoming`` QEMU via
    the source's monitor; ``capabilities`` picks the mode."""
    host = scenarios.testbed(seed=seed)
    vm = scenarios.launch_victim(host)
    workload = _start_workload(workload_name, vm)
    qemu_img_create(host, "/var/lib/images/dest.qcow2", 20)
    config = vm.config.clone_for_destination(
        "dest0", incoming_port=4444, keep_hostfwds=False
    )
    config.drives = [DriveSpec("/var/lib/images/dest.qcow2")]
    launch_vm(host, config)
    for capability in capabilities:
        vm.monitor.execute(f"migrate_set_capability {capability} on")
    vm.monitor.execute("migrate -d tcp:127.0.0.1:4444")
    host.engine.run(vm.migration_process)
    workload.stop()
    stats = vm.migration_stats
    return stats.total_time, stats.downtime


def _start_workload(name, vm):
    if name == "compile":
        workload = KernelCompileWorkload()
        workload.start(vm.guest, loop_forever=True)
    else:
        workload = IdleWorkload()
        workload.start(vm.guest)
    return workload


@pytest.mark.figure("ablation-postcopy")
def test_ablation_precopy_vs_postcopy(benchmark):
    def run_all():
        out = {}
        for mode, capabilities in (("pre-copy", ()), ("post-copy", ("postcopy-ram",))):
            for workload in ("idle", "compile"):
                out[(mode, workload)] = _migrate(workload, 101, capabilities)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for (mode, workload), (total, downtime) in sorted(results.items()):
        rows.append([f"{mode}/{workload}", total, downtime * 1000])
    print()
    print(
        render_table(
            "Ablation: migration mode trade-off",
            ["scenario", "total (s)", "downtime (ms)"],
            rows,
            col_width=18,
        )
    )

    pre_idle, _ = results[("pre-copy", "idle")]
    pre_compile, _ = results[("pre-copy", "compile")]
    post_idle, post_idle_down = results[("post-copy", "idle")]
    post_compile, post_compile_down = results[("post-copy", "compile")]
    # Pre-copy explodes under compile; post-copy does not.
    assert pre_compile > 5 * pre_idle
    assert post_compile < 2 * post_idle
    # Post-copy's downtime is tiny and workload-independent.
    assert post_idle_down < 0.05
    assert post_compile_down < 0.05
