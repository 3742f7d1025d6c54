"""The metric registry: named counters, gauges, and latency histograms.

Metrics complement the trace timeline (:mod:`repro.obs.trace`): a trace
answers *when did it happen*, a metric answers *how often and how was it
distributed*.  Every metric is identified by a name plus a sorted label
set (``histogram("detect.write_fault_us", phase="t1")``), so per-VM and
per-host series coexist in one registry without string formatting on
the hot path.

Histograms are log2-bucketed: a recorded value lands in the bucket
whose upper bound is the smallest power of two above it.  That gives
the three-orders-of-magnitude spread of the paper's write-fault
latencies (sub-µs private writes vs hundreds-of-µs CoW breaks, Figs
5/6) a compact fixed-cost representation — recording is one
``frexp`` + dict increment, never a list append.

Everything renders deterministically: ``as_dict`` sorts by metric
key, histogram buckets by bound, so two identical-seed runs dump
byte-identical metrics.
"""

import math


def _label_key(labels):
    """Canonical hashable form of a label dict (sorted item tuple)."""
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def _metric_name(name, label_key):
    if not label_key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def as_value(self):
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def as_value(self):
        return self.value


class Histogram:
    """A log2-bucketed distribution of non-negative samples.

    Bucket ``i`` covers ``(2**(i-1), 2**i]``; zero (and negative,
    clamped) samples land in a dedicated ``0`` bucket.  Alongside the
    buckets the exact ``count``/``total``/``min``/``max`` are kept, so
    medians read off the buckets while sums stay lossless.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self):
        self.buckets = {}
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def record(self, value):
        """Record one sample."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            index = None
        else:
            mantissa, exponent = math.frexp(value)
            # frexp: value = mantissa * 2**exponent with mantissa in
            # [0.5, 1); an exact power of two belongs to its own bucket.
            index = exponent if mantissa != 0.5 else exponent - 1
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def record_many(self, values):
        """Record an iterable of samples."""
        for value in values:
            self.record(value)

    def bucket_bounds(self):
        """Sorted ``(upper_bound, count)`` pairs; bound 0 is the zero
        bucket."""
        pairs = []
        for index, count in self.buckets.items():
            bound = 0.0 if index is None else float(2.0**index)
            pairs.append((bound, count))
        return sorted(pairs)

    def quantile(self, q):
        """Approximate quantile from the buckets (upper-bound biased)."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        target = q * self.count
        seen = 0
        for bound, count in self.bucket_bounds():
            seen += count
            if seen >= target:
                return bound
        return self.max

    def as_value(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {f"le_{bound:g}": n for bound, n in self.bucket_bounds()},
        }


class MetricRegistry:
    """Get-or-create registry of labelled metrics.

    One registry per :class:`~repro.obs.trace.Tracer` (so per engine);
    lookups are a dict get on ``(name, sorted labels)``, cheap enough
    to sit behind the tracer's enabled check on hot paths.
    """

    def __init__(self):
        self._metrics = {}

    def _get(self, factory, name, labels):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name, **labels):
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels)

    def histogram(self, name, **labels):
        return self._get(Histogram, name, labels)

    def values(self, name):
        """All series of one metric name: ``{label_dict_items: value}``.

        Returns sorted ``(labels, value)`` pairs where ``labels`` is the
        canonical sorted item tuple — the matrix runner uses this to
        pull per-tenant series without parsing rendered names.
        """
        return [
            (label_key, metric.as_value())
            for (metric_name, label_key), metric in sorted(
                self._metrics.items()
            )
            if metric_name == name
        ]

    def __len__(self):
        return len(self._metrics)

    def __iter__(self):
        """Yield ``(rendered_name, metric)`` sorted by rendered name."""
        pairs = [
            (_metric_name(name, label_key), metric)
            for (name, label_key), metric in self._metrics.items()
        ]
        return iter(sorted(pairs, key=lambda pair: pair[0]))

    def as_dict(self):
        """Deterministic ``{rendered_name: value}`` dump (JSON-ready)."""
        return {
            name: {"kind": metric.kind, "value": metric.as_value()}
            for name, metric in self
        }
