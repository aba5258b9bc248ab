"""Metrics registry: counters, gauges and histograms with label sets.

The registry unifies the counters that used to be scattered across ad-hoc
dataclasses (``relaynet/stats.py``, ``netsim/stats.py``, the counters bolted
onto :class:`~repro.netsim.simulator.Simulator`) behind one uniform surface that
``snapshot()`` walks.

Design constraints, in order:

* **hot-path increments are O(1)** — ``Counter.inc`` is one attribute add,
  ``Gauge.set`` one store, ``Histogram.observe`` one append plus two adds.
  No locking (the simulator is single-threaded), no string formatting, no
  dict lookups: call sites hold the instrument handle, not the name;
* **disabled telemetry costs nothing** — :data:`NULL_METRICS` is the default
  registry everywhere.  Its instruments are three shared, stateless
  singletons whose methods do nothing and allocate nothing, so instrumented
  code never needs an ``if metrics is not None`` guard;
* **labels are cheap after the first use** — ``instrument.labels(...)``
  caches the child per label-value tuple, so steady-state labelled
  increments are one dict hit plus the O(1) update.

Instruments are created (and idempotently re-fetched) through
:class:`MetricsRegistry`; re-registering a name with a different type or
label set is an error so two subsystems cannot silently share a metric that
means different things.
"""

from __future__ import annotations

from typing import Iterator


class MetricError(Exception):
    """Raised for invalid metric registration or use."""


def _percentile(ordered: list[float], q: float) -> float:
    """The ``q``-th percentile of an already-sorted sample (linear interp)."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = low + 1
    if high >= len(ordered):
        return ordered[-1]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class Counter:
    """A monotonically increasing counter.

    With ``label_names`` declared, the parent is a family: values live on the
    children returned by :meth:`labels`, and incrementing the parent directly
    is an error (it would silently merge every label set into one number).
    """

    __slots__ = ("name", "help", "label_names", "label_values", "value", "_children")

    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        label_values: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self.label_values = label_values
        self.value: float = 0
        self._children: dict[tuple[str, ...], "Counter"] | None = (
            {} if label_names and not label_values else None
        )

    @property
    def is_family(self) -> bool:
        """Whether this instrument holds children instead of a value."""
        return self._children is not None

    def labels(self, *values: object) -> "Counter":
        """The child instrument for one label-value tuple (cached)."""
        if self._children is None:
            raise MetricError(f"{self.name} does not take labels")
        if len(values) != len(self.label_names):
            raise MetricError(
                f"{self.name} expects labels {self.label_names}, got {len(values)} values"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            child = type(self)(self.name, self.help, self.label_names, key)
            self._children[key] = child
        return child

    def children(self) -> Iterator["Counter"]:
        """All labelled children (or the instrument itself when unlabelled)."""
        if self._children is None:
            yield self
        else:
            yield from self._children.values()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (one attribute add — the hot path)."""
        if self._children is not None:
            raise MetricError(f"{self.name} is labelled; use .labels(...) first")
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def set(self, value: float) -> None:
        """Set the absolute value — for scraping an external monotonic counter.

        Collectors (:mod:`repro.telemetry.collect`) mirror counters that
        other subsystems already maintain; forcing them through ``inc`` would
        require the collector to remember the previous scrape.
        """
        if self._children is not None:
            raise MetricError(f"{self.name} is labelled; use .labels(...) first")
        self.value = value


class Gauge(Counter):
    """A value that can go up and down (heap depth, RSS)."""

    __slots__ = ()

    kind = "gauge"

    def inc(self, amount: float = 1) -> None:
        if self._children is not None:
            raise MetricError(f"{self.name} is labelled; use .labels(...) first")
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)


class Histogram:
    """A sampled distribution with exact percentiles.

    Samples are retained (the repository's sample sizes are thousands, not
    millions — span tracing is itself sampled) so ``percentile`` is exact,
    and :meth:`observe` stays at one append plus two adds.
    """

    __slots__ = (
        "name",
        "help",
        "label_names",
        "label_values",
        "count",
        "sum",
        "samples",
        "_children",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        label_values: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self.label_values = label_values
        self.count = 0
        self.sum = 0.0
        self.samples: list[float] = []
        self._children: dict[tuple[str, ...], "Histogram"] | None = (
            {} if label_names and not label_values else None
        )

    @property
    def is_family(self) -> bool:
        """Whether this instrument holds children instead of samples."""
        return self._children is not None

    def labels(self, *values: object) -> "Histogram":
        """The child instrument for one label-value tuple (cached)."""
        if self._children is None:
            raise MetricError(f"{self.name} does not take labels")
        if len(values) != len(self.label_names):
            raise MetricError(
                f"{self.name} expects labels {self.label_names}, got {len(values)} values"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            child = Histogram(self.name, self.help, self.label_names, key)
            self._children[key] = child
        return child

    def children(self) -> Iterator["Histogram"]:
        """All labelled children (or the instrument itself when unlabelled)."""
        if self._children is None:
            yield self
        else:
            yield from self._children.values()

    def observe(self, value: float) -> None:
        """Record one sample."""
        if self._children is not None:
            raise MetricError(f"{self.name} is labelled; use .labels(...) first")
        self.count += 1
        self.sum += value
        self.samples.append(value)

    def percentile(self, q: float) -> float:
        """The exact ``q``-th percentile of the recorded samples."""
        return _percentile(sorted(self.samples), q)

    def summary(self) -> dict[str, float]:
        """Count/sum plus the headline percentiles."""
        ordered = sorted(self.samples)
        return {
            "count": float(self.count),
            "sum": self.sum,
            "min": ordered[0] if ordered else 0.0,
            "p50": _percentile(ordered, 50),
            "p99": _percentile(ordered, 99),
            "max": ordered[-1] if ordered else 0.0,
        }


class MetricsRegistry:
    """Creates, caches and enumerates instruments.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent: asking for an
    existing name returns the existing instrument, so call sites never need
    to coordinate who registers first.  A name re-registered with a
    different type or label set raises.
    """

    #: Hot callers may skip building expensive inputs (label tuples,
    #: derived values) when this is False (see :class:`NullMetrics`).
    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str, labels: tuple[str, ...]):
        metric = self._metrics.get(name)
        if metric is not None:
            if type(metric) is not cls:
                raise MetricError(
                    f"{name} already registered as {metric.kind}, not {cls.kind}"
                )
            if metric.label_names != tuple(labels):
                raise MetricError(
                    f"{name} already registered with labels {metric.label_names}"
                )
            return metric
        metric = cls(name, help, tuple(labels))
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, help, tuple(labels))

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name, help, tuple(labels))

    def histogram(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Histogram:
        """Get or create a histogram."""
        return self._get(Histogram, name, help, tuple(labels))

    def collect(self) -> list[Counter | Gauge | Histogram]:
        """Every registered instrument, in registration order."""
        return list(self._metrics.values())

    def snapshot(self) -> dict[str, object]:
        """A JSON-friendly view: name -> value / {labels: value} / summary."""
        result: dict[str, object] = {}
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                if metric.is_family:
                    result[metric.name] = {
                        ",".join(
                            f"{k}={v}" for k, v in zip(child.label_names, child.label_values)
                        ): child.summary()
                        for child in metric.children()
                    }
                else:
                    result[metric.name] = metric.summary()
            elif metric.is_family:
                result[metric.name] = {
                    ",".join(
                        f"{k}={v}" for k, v in zip(child.label_names, child.label_values)
                    ): child.value
                    for child in metric.children()
                }
            else:
                result[metric.name] = metric.value
        return result


class _NullCounter(Counter):
    """A counter that ignores everything (shared singleton)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("", "")

    def labels(self, *values: object) -> "Counter":
        return self

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass


class _NullGauge(Gauge):
    """A gauge that ignores everything (shared singleton)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("", "")

    def labels(self, *values: object) -> "Gauge":
        return self

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    """A histogram that ignores everything (shared singleton)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("", "")

    def labels(self, *values: object) -> "Histogram":
        return self

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetrics(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op singleton.

    Instrumented code keeps its handles and its ``inc``/``observe`` calls;
    nothing is recorded, nothing is allocated (``labels`` returns the same
    singleton), and :meth:`snapshot` is always empty.  This is the default
    registry on every :class:`~repro.netsim.network.Network`, so telemetry
    is strictly opt-in and the fan-out fast path pays nothing for it.
    """

    enabled = False

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Histogram:
        return _NULL_HISTOGRAM

    def collect(self) -> list[Counter | Gauge | Histogram]:
        return []

    def snapshot(self) -> dict[str, object]:
        return {}


#: Process-wide disabled registry — the default wherever telemetry is optional.
NULL_METRICS = NullMetrics()
