#!/usr/bin/env python3
"""Migration timing study — Fig 4, plus the post-copy variant.

Measures live-migration end-to-end times for the paper's three guest
workloads, both for an ordinary same-host migration (L0-L0) and for the
CloudSkulk nested migration (L0-L1), and then contrasts pre-copy with
post-copy on the hardest case.

Run:  python examples/migration_study.py
"""

from repro import scenarios
from repro.analysis.report import render_table
from repro.qemu.config import DriveSpec
from repro.qemu.qemu_img import qemu_img_create
from repro.qemu.vm import launch_vm
from repro.workloads.filebench import FilebenchWorkload
from repro.workloads.idle import IdleWorkload
from repro.workloads.kernel_compile import KernelCompileWorkload

WORKLOADS = {
    "idle": (IdleWorkload, {}),
    "filebench": (FilebenchWorkload, {}),
    "kernel-compile": (KernelCompileWorkload, {"loop_forever": True}),
}


def start_workload(name, vm):
    factory, kwargs = WORKLOADS[name]
    workload = factory()
    workload.start(vm.guest, **kwargs)
    return workload


def migrate_l0_l0(name, seed=11, capabilities=()):
    """Same-host migration into an ``-incoming`` QEMU, driven from the
    source's monitor; ``capabilities`` (e.g. ``postcopy-ram``) are
    switched on first."""
    host = scenarios.testbed(seed=seed)
    vm = scenarios.launch_victim(host)
    workload = start_workload(name, vm)
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
    return vm.migration_stats


def migrate_l0_l1(name, seed=11):
    host = scenarios.testbed(seed=seed)
    vm = scenarios.launch_victim(host)
    workload = start_workload(name, vm)
    report = scenarios.install_cloudskulk(host)
    workload.stop()
    return report


def main():
    print("== Fig 4: pre-copy end-to-end time by workload ==\n")
    rows = []
    for name in WORKLOADS:
        local = migrate_l0_l0(name)
        nested = migrate_l0_l1(name)
        rows.append(
            [
                name,
                local.total_time,
                nested.migration_seconds,
                (nested.migration_seconds / local.total_time - 1) * 100,
                local.iterations,
            ]
        )
        print(f"   {name}: L0-L0 {local.total_time:.1f}s "
              f"(throttle {local.throttle_percentage}%), "
              f"L0-L1 {nested.migration_seconds:.1f}s")
    print()
    print(
        render_table(
            "Fig 4 (reproduced)",
            ["workload", "L0-L0 (s)", "L0-L1 (s)", "increase %", "iters"],
            rows,
            col_width=16,
        )
    )
    print("paper anchors (L0-L1): idle ~26s, filebench ~29s, compile ~820s")

    print("\n== Ablation: post-copy under the compile workload ==")
    stats = migrate_l0_l0("kernel-compile", capabilities=("postcopy-ram",))
    print(f"   post-copy total {stats.total_time:.1f}s, "
          f"downtime {stats.downtime * 1000:.0f}ms")
    print("   (pre-copy needed auto-converge throttling and minutes; "
          "post-copy is workload-independent — §II-A's 'applies to both')")


if __name__ == "__main__":
    main()
