"""Metrics registry: gauges with label sets.

A gauge is created (and idempotently re-fetched) through
:class:`MetricsRegistry`; re-registering a name with a different label set
is an error, so two scrapers cannot silently share a metric that means
different things.  ``instrument.labels(...)`` caches the child per
label-value tuple.
"""

from __future__ import annotations

from typing import Iterator


class MetricError(Exception):
    """Raised for invalid metric registration or use."""


class Gauge:
    """A scraped value, set whole at each scrape.

    With ``label_names`` declared, the parent is a family: values live on the
    children returned by :meth:`labels`, and setting the parent directly is
    an error (it would silently merge every label set into one number).
    """

    __slots__ = ("name", "help", "label_names", "label_values", "value", "_children")

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        label_values: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self.label_values = label_values
        self.value: float = 0
        self._children: dict[tuple[str, ...], Gauge] | None = (
            {} if label_names and not label_values else None
        )

    @property
    def is_family(self) -> bool:
        """Whether this instrument holds children instead of a value."""
        return self._children is not None

    def labels(self, *values: object) -> Gauge:
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
            child = Gauge(self.name, self.help, self.label_names, key)
            self._children[key] = child
        return child

    def children(self) -> Iterator[Gauge]:
        """All labelled children (or the instrument itself when unlabelled)."""
        if self._children is None:
            yield self
        else:
            yield from self._children.values()

    def set(self, value: float) -> None:
        """Store the scraped value."""
        if self._children is not None:
            raise MetricError(f"{self.name} is labelled; use .labels(...) first")
        self.value = value


class MetricsRegistry:
    """Creates, caches and enumerates gauges.

    ``gauge`` is idempotent: asking for an existing name returns the
    existing gauge, so scrapers never need to coordinate who registers
    first.  A name re-registered with a different label set raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Gauge] = {}

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        """Get or create a gauge."""
        labels = tuple(labels)
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Gauge(name, help, labels)
        elif metric.label_names != labels:
            raise MetricError(f"{name} already registered with labels {metric.label_names}")
        return metric

    def snapshot(self) -> dict[str, object]:
        """A JSON-friendly view: name -> value, or {labels: value} for a family."""
        result: dict[str, object] = {}
        for metric in self._metrics.values():
            if metric.is_family:
                result[metric.name] = {
                    ",".join(
                        f"{k}={v}" for k, v in zip(child.label_names, child.label_values)
                    ): child.value
                    for child in metric.children()
                }
            else:
                result[metric.name] = metric.value
        return result
