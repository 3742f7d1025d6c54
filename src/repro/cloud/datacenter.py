"""The datacenter: shared engine, switch fabric, host fleet, tenant registry.

One :class:`Datacenter` owns the single discrete-event engine every host
machine runs on, the top-of-rack switch node that inter-host traffic
(live migration streams) crosses, and the authoritative tenant registry
the placement, churn, monitoring, and campaign layers all consult.

Determinism: the datacenter derives every stochastic stream — per-host
machine seeds, churn arrivals, campaign sampling, retry-backoff jitter —
from its one root seed through :class:`~repro.sim.rng.RngRegistry`, so
two fleets built with the same seed replay byte-identically.
"""

from repro.cloud.inventory import Host, heterogeneous_specs
from repro.errors import CloudError
from repro.net.stack import Link, NetworkNode
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

#: Datacenter fabric: 10GbE with ~50us port-to-port latency.
FABRIC_BANDWIDTH_BPS = 10e9
FABRIC_LATENCY_S = 5e-5
#: Deterministic spacing between per-host machine seeds (keeps every
#: host's RngRegistry streams disjoint from its neighbours').
HOST_SEED_STRIDE = 7919


class Datacenter:
    """The fleet substrate every cloud-layer component hangs off."""

    def __init__(
        self,
        specs=None,
        hosts=4,
        seed=1701,
        engine=None,
        overcommit=1.0,
        ksm_pages_to_scan=1250,
    ):
        self.seed = int(seed)
        self.engine = engine if engine is not None else Engine()
        self.rng = RngRegistry(self.seed)
        self.overcommit = overcommit
        self.ksm_pages_to_scan = ksm_pages_to_scan
        self.switch = NetworkNode(self.engine, "dc-switch")
        if specs is None:
            specs = heterogeneous_specs(hosts)
        self.hosts = {}
        for index, spec in enumerate(specs):
            if spec.name in self.hosts:
                raise CloudError(f"duplicate host name {spec.name!r}")
            self.hosts[spec.name] = Host(
                spec, self, seed=self.seed + HOST_SEED_STRIDE * (index + 1)
            )
        #: tenant name -> Tenant, fleet-wide (a tenant lives on exactly
        #: one host at a time; migration moves the registry entry's host
        #: pointer, never the key).
        self.tenants = {}
        #: Shard context (:class:`repro.cloud.sharding.ShardContext`)
        #: when this replica is one worker of a sharded run, else None.
        #: Host-heavy seams (fleet sweeps, campaign installs) check this
        #: one attribute to decide owner-vs-ghost execution.
        self.shard = None

    # -- hosts -------------------------------------------------------------

    def host(self, name):
        try:
            return self.hosts[name]
        except KeyError:
            raise CloudError(f"no such host {name!r}") from None

    @property
    def up_hosts(self):
        return [h for h in self.hosts.values() if h.state == "up"]

    def ensure_up(self, host):
        """Generator: bring ``host`` (a Host or name) up if needed."""
        if isinstance(host, str):
            host = self.host(host)
        if host.state != "up":
            yield from host.bring_up()
        return host

    def crash_host(self, name):
        """Fault-injection convenience: hard-crash one up host."""
        return self.host(name).crash()

    def recover_host(self, name):
        """Fault-injection convenience: restore one crashed host."""
        return self.host(name).recover()

    def attach(self, host):
        """Wire a freshly booted host's NIC into the switch fabric."""
        return Link(
            self.switch,
            host.system.net_node,
            bandwidth_bps=FABRIC_BANDWIDTH_BPS,
            latency_s=FABRIC_LATENCY_S,
            name=f"uplink:{host.name}",
        )

    # -- tenants -----------------------------------------------------------

    def register_tenant(self, tenant):
        if tenant.name in self.tenants:
            raise CloudError(f"tenant {tenant.name!r} already registered")
        self.tenants[tenant.name] = tenant
        tenant.host.tenants[tenant.name] = tenant

    def move_tenant(self, tenant, new_host):
        """Re-home the registry entry after a cross-host migration."""
        old = tenant.host
        if old is not None:
            old.tenants.pop(tenant.name, None)
        tenant.host = new_host
        new_host.tenants[tenant.name] = tenant

    def forget_tenant(self, tenant):
        self.tenants.pop(tenant.name, None)
        if tenant.host is not None:
            tenant.host.tenants.pop(tenant.name, None)

    def running_tenants(self):
        """Running tenants in deterministic (name) order."""
        return [
            self.tenants[name]
            for name in sorted(self.tenants)
            if self.tenants[name].state == "running"
        ]

    def inventory_lines(self):
        """Deterministic per-host status lines (``repro fleet status``)."""
        lines = []
        for name in sorted(self.hosts):
            host = self.hosts[name]
            tenant_names = ",".join(sorted(host.tenants)) or "-"
            lines.append(
                f"  {name}  {host.spec.rack}  {host.state:<8} "
                f"{host.committed_mb:>6}/{host.spec.memory_mb}MB  "
                f"tenants: {tenant_names}"
            )
        return lines

    def __repr__(self):
        up = len(self.up_hosts)
        return (
            f"<Datacenter hosts={len(self.hosts)} up={up} "
            f"tenants={len(self.tenants)} seed={self.seed}>"
        )
