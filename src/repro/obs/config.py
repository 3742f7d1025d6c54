"""Process-wide observability configuration and the live-tracer registry.

Engines are created deep inside scenario helpers (``scenarios.testbed``,
``Datacenter``), far from the CLI flag that asked for a trace — so the
wiring is a process-global default: :func:`configure` flips the defaults
that every *subsequently created* :class:`~repro.obs.trace.Tracer`
adopts, and tracers that come up enabled register themselves here so
the CLI can export one merged trace at exit (``repro detect`` alone
builds two engines — the clean and the compromised host).

The global is deliberately narrow: it only seeds newly built tracers.
Tests and library callers that want tracing on one specific engine
call ``engine.tracer.enable()`` directly and never touch this module.
"""

_SENTINEL = object()


class ObsConfig:
    """Defaults a newly created tracer starts from."""

    __slots__ = ("enabled", "ring_capacity")

    def __init__(self, enabled=False, ring_capacity=None):
        self.enabled = enabled
        self.ring_capacity = ring_capacity


_active = ObsConfig()
_tracers = []


def active_config():
    """The configuration new tracers adopt."""
    return _active


def configure(enabled=_SENTINEL, ring_capacity=_SENTINEL):
    """Update the process-wide defaults; returns the active config."""
    if enabled is not _SENTINEL:
        _active.enabled = enabled
    if ring_capacity is not _SENTINEL:
        _active.ring_capacity = ring_capacity
    return _active


def reset():
    """Restore the disabled defaults and forget registered tracers."""
    global _active
    _active = ObsConfig()
    _tracers.clear()


def register(tracer):
    """Track an enabled tracer for end-of-run export (idempotent)."""
    if tracer not in _tracers:
        _tracers.append(tracer)


def tracers():
    """Enabled tracers in creation order."""
    return list(_tracers)
