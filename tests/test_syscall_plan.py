"""Differential oracle for the per-op syscall plan (``Kernel.syscall_costs``).

Two identically seeded twins run the same Filebench op sequence: one
through ``syscall_costs(FILEBENCH_OP)``, the other through
``syscall_cost`` once per name, the plain path the plan must equal.
After the ops every returned cost, every VMCS exit-count dict, every
RNG stream's state and every tap's hit count must compare ``==``.
"""

import pytest

from repro import scenarios
from repro.guest.kernel import SyscallTap
from repro.guest.syscalls import SYSCALL_PROFILES
from repro.qemu.config import DriveSpec, QemuConfig
from repro.qemu.qemu_img import host_images
from repro.qemu.vm import launch_vm
from repro.sim.snapshot import capture
from repro.workloads.filebench import FILEBENCH_OP

SEED = 23
OPS = 40
DEPTHS = (0, 1, 2, 3)


def _build(depth, seed=SEED):
    """``(host, system)`` with ``system`` at virtualization ``depth``."""
    if depth < 3:
        return scenarios.system_at_level(depth, seed=seed)
    host = scenarios.testbed(seed=seed)
    config = scenarios.victim_config()
    config.nested_vmx = True
    scenarios.launch_victim(host, config)
    victim = scenarios.install_cloudskulk(host).nested_vm.guest
    victim.enable_kvm()
    host_images(victim).create("/inner/tiny.qcow2", 4.0)
    inner_config = QemuConfig(
        "inner-l3", memory_mb=128, drives=[DriveSpec("/inner/tiny.qcow2")], nics=[]
    )
    inner_vm, boot = launch_vm(victim, inner_config)
    host.engine.run(boot)
    return host, inner_vm.guest


def _fused(kernel, ops=OPS, names=FILEBENCH_OP):
    return [cost for _ in range(ops) for cost in kernel.syscall_costs(names)]


def _per_syscall(kernel, ops=OPS, names=FILEBENCH_OP):
    return [kernel.syscall_cost(name) for _ in range(ops) for name in names]


def _exit_counts(system):
    """Every VMCS exit-count dict of every VM the lineage's KVMs run."""
    counts = {}
    for node in system.lineage():
        if node.kvm is None:
            continue
        for vm in node.kvm.vms.values():
            for vmcs in vm.vmcs:
                counts[(node.name, vm.name, vmcs.vcpu_index)] = dict(vmcs.exit_counts)
    return counts


def _state(host, system, costs, taps=()):
    return {
        "costs": costs,
        "exit_counts": _exit_counts(system),
        "rng": host.rng.state(),
        "tap_hits": [tap.hits for tap in taps],
        "exit_samples": {
            key: list(pending)
            for key, pending in host.engine.tracer._exit_pending.items()
        },
    }


def _twin_states(depth, configure, names=FILEBENCH_OP):
    """Run both twins after ``configure``; returns ``(fused, plain)``."""
    states = []
    for run in (_fused, _per_syscall):
        host, system = _build(depth)
        configure(host, system.kernel)
        states.append(_state(host, system, run(system.kernel, names=names)))
    return states


def _set(attribute, value):
    return lambda _host, kernel: setattr(kernel, attribute, value)


#: The plan's fast path, and each state that changes what a syscall
#: costs or records; throttle, no jitter and tracer take the fallback.
SETTINGS = {
    "plain": lambda host, kernel: None,
    "extra_op_latency": _set("extra_op_latency", 3.7e-6),
    "cpu_throttle": _set("cpu_throttle", 0.3),
    "no_jitter": _set("jitter_rsd", 0),
    "tracer": lambda host, kernel: host.engine.tracer.enable(),
}


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("setting", SETTINGS)
def test_twins_match(depth, setting):
    fused, plain = _twin_states(depth, SETTINGS[setting])
    assert fused == plain
    if depth:
        assert any(fused["exit_counts"].values())
    if depth and setting == "tracer":
        assert fused["exit_samples"]


@pytest.mark.parametrize("depth", DEPTHS)
def test_every_profile_in_one_op(depth):
    """One op issuing every profiled syscall: the same exit reason is
    bumped several times per op with counts whose float sum depends on
    the order they are added in."""
    fused, plain = _twin_states(
        depth, SETTINGS["plain"], names=tuple(SYSCALL_PROFILES)
    )
    assert fused == plain


@pytest.mark.parametrize("depth", DEPTHS)
def test_plan_is_used_and_cached(depth):
    host, system = _build(depth)
    kernel = system.kernel
    kernel.syscall_costs(FILEBENCH_OP)
    plan = kernel._plans[FILEBENCH_OP]
    kernel.syscall_costs(FILEBENCH_OP)
    assert kernel._plans[FILEBENCH_OP] is plan


@pytest.mark.parametrize("depth", DEPTHS)
def test_taps_fire_per_syscall_in_order(depth):
    def configure(_host, kernel):
        seen = []
        taps = [
            kernel.install_tap(SyscallTap(name, lambda system, name: seen.append(name)))
            for name in ("block_io_submit", "creat_meta")
        ]
        return taps, seen

    states = []
    for run in (_fused, _per_syscall):
        host, system = _build(depth)
        taps, seen = configure(host, system.kernel)
        states.append((_state(host, system, run(system.kernel), taps), seen))
    assert states[0] == states[1]
    state, seen = states[0]
    assert state["tap_hits"] == [2 * OPS, OPS]
    assert seen == ["creat_meta", "block_io_submit", "block_io_submit"] * OPS


def test_extra_op_latency_change_rebuilds_plan():
    """Post-copy moves ``extra_op_latency`` as pages arrive."""
    states = []
    for run in (_fused, _per_syscall):
        host, system = _build(2)
        kernel = system.kernel
        costs = []
        for latency in (0.0, 2.5e-6, 0.0):
            kernel.extra_op_latency = latency
            costs += run(kernel, ops=10)
        states.append(_state(host, system, costs))
    fused, plain = states
    assert fused == plain


def test_across_cloudskulk_install():
    """The victim moves from an L0 VM to an L2 VM between ops: the plan
    built at depth 1 must not be replayed at depth 2."""
    states = []
    for run in (_fused, _per_syscall):
        host = scenarios.testbed(seed=SEED)
        victim = scenarios.launch_victim(host).guest
        costs = run(victim.kernel)
        handle_before = victim.vm_handle
        report = scenarios.install_cloudskulk(host)
        assert report.nested_vm.guest is victim
        assert victim.depth == 2 and victim.vm_handle is not handle_before
        costs += run(victim.kernel)
        states.append(_state(host, victim, costs))
    fused, plain = states
    assert fused == plain


def test_forked_branch_replays_copied_plan():
    """A plan compiled before a snapshot points, in each fork, at that
    fork's own VMCS dicts and RNG streams."""
    host, victim = _build(2)
    victim.kernel.syscall_costs(FILEBENCH_OP)
    before = _exit_counts(victim)
    snapshot = capture(host.engine, (host, victim), label="plan")
    states = []
    for run in (_fused, _per_syscall):
        fork = snapshot.fork()
        fork_host, fork_victim = fork.root
        kernel = fork_victim.kernel
        plan = kernel._plans[FILEBENCH_OP]
        costs = run(kernel)
        if run is _fused:
            assert kernel._plans[FILEBENCH_OP] is plan
        states.append(_state(fork_host, fork_victim, costs))
        fork.dispose()
    snapshot.dispose()
    fused, plain = states
    assert fused == plain
    assert fused["exit_counts"] != before
    assert _exit_counts(victim) == before
