"""The QEMU Monitor command interpreter.

Implements the command surface the paper's attack actually uses
(§IV-A): ``info qtree``, ``info blockstats``, ``info mtree``, ``info
mem``, ``info network``, ``info status``, ``migrate``,
``migrate_set_speed``, ``migrate_set_downtime``, ``info migrate``,
``stop``, ``cont``, and ``quit`` — plus ``info registers`` for basic
inspection.  Commands return their output text; state changes happen
synchronously except ``migrate``, which (with ``-d``) detaches a
background migration process exactly like real QEMU.
"""

from repro.errors import MonitorError
from repro.qemu.config import QEMU_VERSION


class QemuMonitor:
    """One VM's monitor."""

    def __init__(self, vm):
        self.vm = vm
        self.command_log = []

    def execute(self, command_line):
        """Run one monitor command; returns its output string."""
        text = command_line.strip()
        self.command_log.append(text)
        if not text:
            return ""
        parts = text.split()
        command, args = parts[0], parts[1:]
        if command == "info":
            if not args:
                raise MonitorError("info: missing subcommand")
            handler = getattr(self, f"_info_{args[0]}", None)
            if handler is None:
                raise MonitorError(f"info: unknown subcommand {args[0]!r}")
            return handler(args[1:])
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            raise MonitorError(f"unknown command: {command!r}")
        return handler(args)

    # -- info subcommands -----------------------------------------------------

    def _info_version(self, _args):
        return QEMU_VERSION

    def _info_status(self, _args):
        vm = self.vm
        if vm.status == "running" and not vm.paused:
            return "VM status: running"
        if vm.status == "inmigrate":
            return "VM status: paused (inmigrate)"
        if vm.paused:
            return "VM status: paused"
        return f"VM status: {vm.status}"

    def _info_qtree(self, _args):
        lines = ["bus: main-system-bus", '  type System']
        for index, device in enumerate(self.vm.block_devices):
            lines.append(f"  dev: virtio-blk-pci, id \"\"")
            lines.append(f"    drive = \"drive{index}\"")
            lines.append(f"    file = \"{device.drive_spec.path}\"")
            lines.append(f"    format = \"{device.drive_spec.fmt}\"")
        for nic in self.vm.nics:
            lines.append(f"  dev: {nic.spec.model}, id \"\"")
            lines.append(f"    netdev = \"{nic.spec.netdev_id}\"")
        return "\n".join(lines)

    def _info_blockstats(self, _args):
        return "\n".join(
            device.blockstats_line(index)
            for index, device in enumerate(self.vm.block_devices)
        )

    def _info_mtree(self, _args):
        top = self.vm.config.memory_mb * 1024 * 1024 - 1
        return (
            "memory-region: system\n"
            f"  0000000000000000-{top:016x} (prio 0, ram): pc.ram\n"
            f"  size: {self.vm.config.memory_mb} MiB"
        )

    def _info_mem(self, _args):
        memory = self.vm.kvm_vm.memory
        touched = memory.touched_pages + memory.bulk_touched
        return (
            f"total pages: {memory.total_pages}\n"
            f"resident pages: {touched}\n"
            f"dirty-log: {'on' if memory.dirty_log_enabled else 'off'}"
        )

    def _info_network(self, _args):
        if not self.vm.nics:
            return "no network devices"
        return "\n".join(nic.info_line() for nic in self.vm.nics)

    def _info_registers(self, _args):
        vmcs = self.vm.kvm_vm.vmcs[0]
        return (
            f"vCPU #0  vpid={vmcs.vpid} launched={vmcs.launched}\n"
            f"total_exits={vmcs.total_exits:.0f}"
        )

    def _info_migrate(self, _args):
        stats = self.vm.migration_stats
        if stats is None:
            return "No migration in progress"
        return stats.monitor_text()

    def _info_cpus(self, _args):
        lines = []
        for index in range(self.vm.config.smp):
            marker = "*" if index == 0 else " "
            lines.append(
                f"{marker} CPU #{index}: thread_id={self.vm.process.pid + index}"
            )
        return "\n".join(lines)

    def _info_kvm(self, _args):
        enabled = "enabled" if self.vm.config.enable_kvm else "disabled"
        return f"kvm support: {enabled}"

    # -- state-changing commands ----------------------------------------------

    def _cmd_stop(self, _args):
        self.vm.pause()
        return ""

    def _cmd_cont(self, _args):
        self.vm.resume()
        return ""

    def _cmd_quit(self, _args):
        self.vm.quit()
        return ""

    def _cmd_system_powerdown(self, _args):
        self.vm.quit()
        return ""

    def _cmd_migrate_set_speed(self, args):
        if len(args) != 1:
            raise MonitorError("migrate_set_speed: expected one value")
        self.vm.migration_max_bandwidth = _parse_size(args[0])
        return ""

    def _cmd_migrate_set_downtime(self, args):
        if len(args) != 1:
            raise MonitorError("migrate_set_downtime: expected seconds")
        self.vm.migration_max_downtime = float(args[0])
        return ""

    def _cmd_migrate_set_capability(self, args):
        if len(args) != 2 or args[1] not in ("on", "off"):
            raise MonitorError(
                "migrate_set_capability: expected <name> on|off"
            )
        name = args[0]
        if name not in ("xbzrle", "auto-converge", "postcopy-ram", "dedup"):
            raise MonitorError(f"unknown migration capability {name!r}")
        self.vm.migration_capabilities[name] = args[1] == "on"
        return ""

    def _cmd_migrate_cancel(self, _args):
        migration = self.vm.active_migration
        if migration is None:
            return "No migration in progress"
        if migration.cancel():
            return ""
        return "Migration cannot be cancelled (switchover in progress)"

    def _cmd_hostfwd_add(self, args):
        # hostfwd_add tcp::HOST_PORT-:GUEST_PORT
        if len(args) != 1:
            raise MonitorError("hostfwd_add: expected one forward spec")
        from repro.errors import ConfigError
        from repro.qemu.config import _parse_hostfwd

        try:
            proto, host_port, guest_port = _parse_hostfwd(args[0])
        except ConfigError as error:
            raise MonitorError(str(error)) from error
        if not self.vm.nics:
            raise MonitorError("hostfwd_add: VM has no user netdev")
        self.vm.nics[0].add_hostfwd(proto, host_port, guest_port)
        return ""

    def _cmd_hostfwd_remove(self, args):
        # hostfwd_remove tcp::HOST_PORT
        if len(args) != 1:
            raise MonitorError("hostfwd_remove: expected proto::port")
        proto, _sep, port_text = args[0].partition("::")
        try:
            host_port = int(port_text)
        except ValueError as exc:
            raise MonitorError(f"bad hostfwd spec {args[0]!r}") from exc
        for nic in self.vm.nics:
            if nic.remove_hostfwd(proto, host_port):
                return ""
        raise MonitorError(f"hostfwd_remove: no such forward {args[0]!r}")

    def _cmd_migrate(self, args):
        detach = False
        if args and args[0] == "-d":
            detach = True
            args = args[1:]
        if len(args) != 1 or not args[0].startswith("tcp:"):
            raise MonitorError("migrate: expected tcp:<host>:<port> URI")
        _tcp, _host, port = args[0].split(":")
        if self.vm.migration_capabilities.get("postcopy-ram"):
            from repro.migration.postcopy import PostCopyMigration

            migration = PostCopyMigration(
                self.vm,
                destination_port=int(port),
                max_bandwidth=getattr(self.vm, "migration_max_bandwidth", None),
            )
        else:
            from repro.migration.precopy import PreCopyMigration

            migration = PreCopyMigration(
                self.vm,
                destination_port=int(port),
                max_bandwidth=getattr(self.vm, "migration_max_bandwidth", None),
                max_downtime=getattr(self.vm, "migration_max_downtime", None),
            )
        process = migration.start()
        self.vm.migration_process = process
        if detach:
            return ""
        return "migration started"


def _parse_size(text):
    """Parse 32m / 1g / 1048576 size syntax into bytes."""
    text = text.strip().lower()
    multiplier = 1
    if text and text[-1] in "kmg":
        multiplier = {"k": 1024, "m": 1024**2, "g": 1024**3}[text[-1]]
        text = text[:-1]
    try:
        return int(float(text) * multiplier)
    except ValueError as exc:
        raise MonitorError(f"bad size value {text!r}") from exc
