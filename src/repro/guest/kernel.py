"""The kernel: process table, syscall charging, page cache, boot.

This is the cost-accounting surface every workload and experiment goes
through.  All ``charge_*`` methods *return seconds of virtual time*;
the calling simulation process is responsible for yielding a timeout of
the accumulated cost (see :mod:`repro.workloads.base`).  Keeping the
kernel synchronous makes deep call chains (workload -> filesystem ->
memory) straightforward while the event engine still interleaves
concurrent activities at operation granularity.

Two hooks matter to the paper:

* ``cpu_throttle`` — QEMU auto-converge slows a guest's vCPUs so a
  pre-copy migration can catch up with the dirty rate; migration sets
  this (Fig 4's CPU-intensive case depends on it).
* ``syscall_taps`` — an L1 hypervisor that controls this guest can trap
  chosen syscalls (the rootkit's keystroke logger of §IV-B traps
  ``write``); each tapped call costs one extra exit and hands the event
  to the attacker's callback.
"""

from functools import lru_cache

from repro.errors import GuestError, ProcessError
from repro.guest.process import ProcessTable
from repro.guest.syscalls import SYSCALL_PROFILES
from repro.hardware.memory import WriteOutcome
from repro.hypervisor.exits import ExitReason

#: Disk service time per 4 KiB page (SATA SSD class), before exits.
DISK_READ_PER_PAGE = 2.5e-5
DISK_WRITE_PER_PAGE = 3.0e-5

#: Default boot working set for a 1 GiB VM: pages of OS text/rodata that
#: are byte-identical across same-build systems (KSM fodder), pages of
#: per-system unique state, and the bulk anonymous footprint.
BOOT_SHARED_PAGES = 2600
BOOT_UNIQUE_PAGES = 900

_INIT_PROCESSES = (
    ("systemd", "/usr/lib/systemd/systemd --switched-root"),
    ("kthreadd", "[kthreadd]"),
    ("ksoftirqd/0", "[ksoftirqd/0]"),
    ("systemd-journal", "/usr/lib/systemd/systemd-journald"),
    ("dbus-daemon", "/usr/bin/dbus-daemon --system"),
    ("NetworkManager", "/usr/sbin/NetworkManager --no-daemon"),
    ("sshd", "/usr/sbin/sshd -D"),
    ("crond", "/usr/sbin/crond -n"),
    ("agetty", "/sbin/agetty --noclear tty1 linux"),
    ("bash", "-bash"),
)


class SyscallTap:
    """A hypervisor-installed trap on a class of syscalls."""

    def __init__(self, syscall_name, callback, extra_exit=ExitReason.HYPERCALL):
        self.syscall_name = syscall_name
        self.callback = callback
        self.extra_exit = extra_exit
        self.hits = 0


class Kernel:
    """One operating system kernel."""

    def __init__(self, system):
        self.system = system
        self.table = ProcessTable()
        self.page_cache = {}  # path -> list of pfns
        self.cpu_throttle = 0.0
        #: Added to every syscall while post-copy migration is filling
        #: memory in: expected remote-page-fault latency per operation.
        self.extra_op_latency = 0.0
        self.jitter_rsd = 0.02
        self.syscall_taps = []
        self.booted = False
        self._boot_pfns = []
        #: Filled by VMI subversion (DKSM): when set, introspection sees
        #: this forged view instead of the real process table.
        self.dksm_forged_view = None
        #: Set when hypervisor/kernel code in this system has been
        #: patched (e.g. the §VI-D page-sync evasion) — the tell-tale an
        #: integrity monitor would catch.
        self.hypervisor_code_modified = False
        # Hot-path caches.  The syscall cache maps (name, depth) to the
        # precomputed deterministic cost plus the exit-recording plan;
        # it is keyed to the cost model object so a migration onto a
        # host with a different model rebuilds it.  The jitter cache
        # holds the per-label RNG stream so the per-syscall path skips
        # the registry's name hashing (same streams, same draw order).
        self._syscall_cache = {}
        self._syscall_cache_cm = None
        self._jitter_streams = {}
        # Per-op syscall plans (see syscall_costs): names tuple -> plan,
        # valid while the inputs in _plan_key stay the same.
        self._plans = {}
        self._plan_key = None

    # ------------------------------------------------------------------
    # cost primitives
    # ------------------------------------------------------------------

    @property
    def depth(self):
        return self.system.depth

    @property
    def _cost_model(self):
        return self.system.cost_model

    def _throttled(self, cost):
        if self.cpu_throttle:
            if not 0.0 <= self.cpu_throttle < 1.0:
                raise GuestError(f"bad cpu_throttle {self.cpu_throttle}")
            return cost / (1.0 - self.cpu_throttle)
        return cost

    def _jitter_stream(self, label):
        rng = self._jitter_streams.get(label)
        if rng is None:
            rng = self.system.rng.stream(f"{self.system.name}:{label}")
            self._jitter_streams[label] = rng
        return rng

    def _jitter(self, cost, label):
        if self.jitter_rsd <= 0:
            return cost
        rng = self._jitter_streams.get(label)
        if rng is None:
            rng = self._jitter_stream(label)
        # Same math as RngRegistry.gauss_jitter, minus the per-call
        # stream lookup: one N(cost, rsd*cost) sample floored at 10%.
        sample = rng.gauss(cost, abs(self.jitter_rsd * cost))
        floor = 0.1 * abs(cost)
        return sample if sample >= floor else floor

    def _record_exits(self, reason, count):
        handle = self.system.vm_handle
        if handle is not None:
            handle.record_exit(reason, count)

    def charge_cpu(self, seconds, mem_intensity=0.5, jitter=True):
        """Cost of ``seconds`` of userspace CPU work at this depth.

        Stretched by host CPU contention when more busy vCPUs exist
        than logical cores (co-residence interference — the class of
        effects refs [55, 59] exploit).
        """
        cost = self._cost_model.cpu_cost(seconds, self.depth, mem_intensity)
        cost *= self.system.machine.scheduler.slowdown_factor()
        if jitter:
            cost = self._jitter(cost, "cpu")
        self._record_exits(
            ExitReason.TIMER, seconds * self._cost_model.timer_hz if self.depth else 0
        )
        return self._throttled(cost)

    def _build_syscall_entry(self, name, depth):
        """Precompute the deterministic part of one syscall's cost.

        Returns ``(base_cost, records, label)`` where ``records`` is the
        exit-recording plan: ``(reason, count, trampoline_count)`` per
        exit class, with ``trampoline_count`` the pre-multiplied number
        of PRIV_INSTRUCTION exits the L1 parent absorbs (0 below depth
        2).  The additions happen in the same order as the original
        per-call computation, so the cached scalar is bit-identical.

        Why the parent absorbs them: when a depth>=2 guest exits, the
        privileged instructions that handle the Turtles reflection run
        in the *L1 parent*, so the parent's VM accumulates
        PRIV_INSTRUCTION exits in the host's counters.  That attribution
        is kernel ground truth an attacker cannot scrub, and the
        exit-census detector feeds on it.
        """
        profile = SYSCALL_PROFILES.get(name)
        if profile is None:
            raise GuestError(f"unknown syscall profile: {name!r}")
        cm = self._cost_model
        cost = cm.cpu_cost(profile.cpu_seconds, depth, profile.mem_intensity)
        cost += profile.per_depth_cpu * depth
        cost += cm.syscall_depth_tax * depth
        records = []
        if depth >= 1:
            nested = depth >= 2
            for reason, n in profile.exits.items():
                cost += n * cm.exit_cost(reason, depth)
                ops = cm.nested_priv_ops.get(reason, 0) if nested else 0
                records.append((reason, n, n * ops))
            if nested:
                for reason, n in profile.nested_exits.items():
                    cost += n * cm.exit_cost(reason, depth)
                    ops = cm.nested_priv_ops.get(reason, 0)
                    records.append((reason, n, n * ops))
        return cost, tuple(records), f"sys:{name}"

    def _syscall_entry(self, name, cm, depth):
        """The cached :meth:`_build_syscall_entry` result for ``name``."""
        if cm is not self._syscall_cache_cm:
            self._syscall_cache_cm = cm
            self._syscall_cache = {}
        entry = self._syscall_cache.get((name, depth))
        if entry is None:
            entry = self._build_syscall_entry(name, depth)
            self._syscall_cache[(name, depth)] = entry
        return entry

    def syscall_cost(self, name, jitter=True):
        """Cost of one syscall described by its profile."""
        cm = self.system.cost_model
        depth = self.depth
        cost, records, label = self._syscall_entry(name, cm, depth)
        if records:
            system = self.system
            handle = system.vm_handle
            parent_handle = None
            if depth >= 2 and system.parent is not None:
                parent_handle = system.parent.vm_handle
            for reason, n, trampoline in records:
                if handle is not None:
                    handle.record_exit(reason, n)
                if trampoline and parent_handle is not None:
                    # The Turtles reflection runs in the L1 parent — see
                    # _build_syscall_entry for the attribution rationale.
                    parent_handle.record_exit(
                        ExitReason.PRIV_INSTRUCTION, trampoline
                    )
        if self.syscall_taps:
            for tap in self.syscall_taps:
                if tap.syscall_name == name:
                    tap.hits += 1
                    cost += cm.exit_cost(tap.extra_exit, max(depth, 1))
                    if tap.callback is not None:
                        tap.callback(self.system, name)
        cost += self.extra_op_latency
        if jitter:
            cost = self._jitter(cost, label)
        return self._throttled(cost)

    def syscall_costs(self, names):
        """Costs of the syscalls in the tuple ``names``, in call order.

        Equal bit for bit, side effects included, to
        ``[self.syscall_cost(name) for name in names]``: a workload
        charges one operation's syscalls with one call.  The first call
        for a tuple compiles it into a plan (:meth:`_compile_plan`)
        that later calls replay.  A plan is a function of the cost
        model, the depth, ``vm_handle``, the parent's ``vm_handle``,
        ``jitter_rsd`` and ``extra_op_latency``, so every plan is
        dropped when one of them changes (a CloudSkulk install moves a
        running guest from an L0 VM into an L2 VM).

        A tap, a CPU throttle, ``jitter_rsd <= 0`` or a tracer enabled
        on a VM the syscalls record exits into takes the per-syscall path
        instead: taps must fire once per syscall in order, and the
        tracer's exit sampler must see every recording.
        """
        if self.syscall_taps or self.cpu_throttle or self.jitter_rsd <= 0:
            return [self.syscall_cost(name) for name in names]
        system = self.system
        depth = system.depth
        parent = system.parent
        key = (
            system.cost_model,
            depth,
            system.vm_handle,
            parent.vm_handle if depth >= 2 and parent is not None else None,
            self.jitter_rsd,
            self.extra_op_latency,
        )
        if key != self._plan_key:
            self._plans = {}
            self._plan_key = key
        plan = self._plans.get(names)
        if plan is None:
            plan = self._plans[names] = self._compile_plan(names, key)
        steps, records, tracers = plan
        for tracer in tracers:
            if tracer.enabled:
                return [self.syscall_cost(name) for name in names]
        for counts, reason, count in records:
            counts[reason] = counts.get(reason, 0.0) + count
        costs = []
        for gauss, mean, sigma, floor in steps:
            sample = gauss(mean, sigma)
            costs.append(sample if sample >= floor else floor)
        return costs

    def _compile_plan(self, names, key):
        """Compile ``names`` into ``(steps, records, tracers)`` for ``key``.

        ``steps`` holds, per syscall, the jitter stream's ``gauss`` and
        the mean, sigma and floor :meth:`syscall_cost` hands it: the
        cached base cost plus ``extra_op_latency``, computed as that
        path computes them.  ``records`` holds every exit recording the
        per-syscall path makes for the sequence, in its order, as
        ``(exit_counts, reason, count)`` against the vCPU-0 VMCS dict
        ``KvmVm.record_exit`` bumps; the parent's PRIV_INSTRUCTION
        trampoline records sit right after the record that causes them.
        Replaying them in that order adds the float counts exactly as
        the per-syscall path does.  ``tracers`` are the tracers of the
        VMs the syscalls can record exits into.
        """
        cm, depth, handle, parent_handle, rsd, extra = key
        steps = []
        records = []
        for name in names:
            base, entry_records, label = self._syscall_entry(name, cm, depth)
            mean = base + extra
            steps.append(
                (
                    self._jitter_stream(label).gauss,
                    mean,
                    abs(rsd * mean),
                    0.1 * abs(mean),
                )
            )
            for reason, count, trampoline in entry_records:
                if handle is not None:
                    records.append((handle.vmcs[0].exit_counts, reason, count))
                if trampoline and parent_handle is not None:
                    records.append(
                        (
                            parent_handle.vmcs[0].exit_counts,
                            ExitReason.PRIV_INSTRUCTION,
                            trampoline,
                        )
                    )
        tracers = dict.fromkeys(
            vm._tracer for vm in (handle, parent_handle) if vm is not None
        )
        return tuple(steps), tuple(records), tuple(tracers)

    def charge_syscalls(self, name, times=1):
        """Cost of ``times`` identical syscalls (jitter applied once)."""
        return self.syscall_cost(name) * times

    def write_cost(self, outcome):
        """Cost of a page write given its mechanical outcome."""
        cost = self._cost_model.write_outcome_cost(outcome, self.depth)
        cost = self._jitter(cost, "page-write")
        return self._throttled(cost)

    # ------------------------------------------------------------------
    # memory and page-cache operations
    # ------------------------------------------------------------------

    def alloc_pages(self, n, mergeable=False):
        """Allocate ``n`` fresh pages; returns (pfns, cost)."""
        outcome = WriteOutcome()
        pfns = [
            self.system.memory.alloc_page(outcome, mergeable=mergeable)
            for _ in range(n)
        ]
        cost = n * self._cost_model.minor_fault_cost
        cost += outcome.first_touch_levels * self._cost_model.exit_cost(
            ExitReason.EPT_VIOLATION, self.depth
        ) if self.depth else 0.0
        return pfns, self._throttled(cost)

    def write_page(self, pfn, content):
        """Write one page; returns (outcome, cost).

        This is the primitive the detection module times: the cost of a
        write to a KSM-merged page includes the copy-on-write break.
        """
        outcome = self.system.memory.write(pfn, content)
        return outcome, self.write_cost(outcome)

    def load_file(self, path, mergeable=True):
        """Read a file into the page cache; returns (pfns, cost).

        Idempotent: a second load of a cached path costs only the reads.
        File pages become mergeable candidates from the host's point of
        view, which is what lets KSM merge File-A copies across systems.
        """
        file = self.system.fs.open(path)
        cached = self.page_cache.get(path)
        if cached is not None:
            return cached, self.charge_syscalls("page_cache_read", file.num_pages)
        cost = self.syscall_cost("open")
        pfns = []
        outcome = WriteOutcome()
        for index in range(file.num_pages):
            pfn = self.system.memory.alloc_page(outcome, mergeable=mergeable)
            self.system.memory.write(pfn, file.page_content(index), outcome)
            pfns.append(pfn)
        cost += file.num_pages * (
            DISK_READ_PER_PAGE + self._cost_model.page_write_cost
        )
        cost += self.charge_syscalls("block_io_submit", max(1, file.num_pages // 8))
        if self.depth:
            cost += outcome.first_touch_levels * self._cost_model.exit_cost(
                ExitReason.EPT_VIOLATION, self.depth
            )
        self.page_cache[path] = pfns
        return pfns, self._throttled(cost)

    def evict_file(self, path):
        """Drop a file from the page cache, freeing its pages."""
        pfns = self.page_cache.pop(path, None)
        if pfns is None:
            raise GuestError(f"evict: {path!r} not in page cache")
        for pfn in pfns:
            self.system.memory.free(pfn)

    def write_file_page(self, path, index, content):
        """Modify one page of a file (in the FS and, if cached, in memory).

        Returns the cost.  This is how the detection protocol's guest
        agent turns File-A into File-A-v2.
        """
        file = self.system.fs.open(path)
        file.set_page_content(index, content)
        cost = self.syscall_cost("page_cache_write")
        pfns = self.page_cache.get(path)
        if pfns is not None:
            _outcome, write_cost = self.write_page(pfns[index], content)
            cost += write_cost
        return cost

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def spawn(self, name, cmdline=None, ppid=1, user="root"):
        """Create a process; returns (OsProcess, cost of fork+exec)."""
        proc = self.table.spawn(
            name, cmdline, ppid=ppid, user=user, start_time=self.system.engine.now
        )
        return proc, self.syscall_cost("fork_execve")

    def kill(self, pid):
        """Kill and reap a process; returns the cost."""
        self.table.kill(pid)
        self.table.reap(pid)
        return self.syscall_cost("fork_exit")

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    def boot(self, shared_pages=None, unique_pages=None, bulk_fraction=0.62):
        """Bring the system up; returns the boot cost in seconds.

        Materializes the OS working set: ``shared_pages`` of build-
        identical text/rodata (content keyed by OS name + kernel
        version, hence byte-identical across same-build systems and
        mergeable by KSM), ``unique_pages`` of per-system state, and a
        bulk anonymous footprint of ``bulk_fraction`` of RAM (the
        default models the paper's Fedora 22 *workstation* guests,
        whose desktop stack leaves ~650 MB of a 1 GiB VM resident).
        """
        if self.booted:
            raise GuestError(f"{self.system.name}: already booted")
        system = self.system
        shared = BOOT_SHARED_PAGES if shared_pages is None else shared_pages
        unique = BOOT_UNIQUE_PAGES if unique_pages is None else unique_pages
        build = f"{system.os_name}:{system.kernel_version}"
        outcome = WriteOutcome()
        self._boot_pfns = []
        for index in range(shared):
            pfn = system.memory.alloc_page(outcome, mergeable=True)
            system.memory.write(
                pfn, _os_page_content(build, index), outcome
            )
            self._boot_pfns.append(pfn)
        for index in range(unique):
            pfn = system.memory.alloc_page(outcome, mergeable=True)
            system.memory.write(
                pfn,
                _os_page_content(f"{build}:{system.name}", index),
                outcome,
            )
            self._boot_pfns.append(pfn)
        ram_pages = getattr(system.memory, "total_pages", 0)
        if ram_pages and bulk_fraction:
            system.memory.touch_bulk(int(ram_pages * bulk_fraction))
        for name, cmdline in _INIT_PROCESSES:
            ppid = 0 if name == "systemd" else 1
            self.table.spawn(
                name, cmdline, ppid=ppid, start_time=system.engine.now
            )
        self.booted = True
        # Boot takes tens of seconds of virtual time, stretched by depth.
        base_boot = 14.0 + (shared + unique) * 1.5e-4
        return self.charge_cpu(base_boot, mem_intensity=0.7)

    def reboot(self, **boot_kwargs):
        """Reboot the OS: processes, caches and anonymous memory drop,
        then the kernel boots fresh.  Returns the combined cost.

        Everything *around* this system survives untouched — the VM it
        runs in, the hypervisors below it, their port forwards.  That
        asymmetry is the paper's §VII point: rebooting a CloudSkulked
        victim cannot shake the rootkit, where SubVirt needed the
        reboot and BluePill did not survive one.

        Attacker artifacts *inside* this kernel (DKSM forgeries) are
        rebuilt from clean sources and therefore lost; hypervisor-side
        taps persist (they live below).
        """
        system = self.system
        for path in list(self.page_cache):
            self.evict_file(path)
        for pfn in getattr(self, "_boot_pfns", []):
            system.memory.free(pfn)
        self._boot_pfns = []
        if hasattr(system.memory, "reset_bulk"):
            system.memory.reset_bulk()
        from repro.guest.process import ProcessTable

        self.table = ProcessTable()
        self.dksm_forged_view = None
        self.booted = False
        shutdown_cost = self.charge_cpu(2.5, mem_intensity=0.3)
        return shutdown_cost + self.boot(**boot_kwargs)

    # ------------------------------------------------------------------
    # hypervisor-side controls
    # ------------------------------------------------------------------

    def install_tap(self, tap):
        """Install a syscall trap (requires hypervisor-level control)."""
        self.syscall_taps.append(tap)
        return tap

    def remove_tap(self, tap):
        try:
            self.syscall_taps.remove(tap)
        except ValueError:
            raise ProcessError("tap not installed") from None


@lru_cache(maxsize=None)
def _os_page_content(build, index):
    """Deterministic per-build page content for the OS working set.

    Cached: every reboot of a given build regenerates the identical
    working set, and the 48-byte results are far cheaper to keep than
    to re-derive.  Reusing the same bytes objects also lets the page
    store's content-keyed intern hit Python's cached string hash.
    """
    import hashlib

    return hashlib.blake2b(
        f"os:{build}:{index}".encode("utf-8"), digest_size=48
    ).digest()
