"""Unified telemetry: metrics registry, span tracing and exporters.

Every :class:`~repro.netsim.network.Network` owns a :class:`Telemetry`
container.  By default it holds :data:`~repro.telemetry.metrics.NULL_METRICS`
(a no-op registry whose instruments record nothing and allocate nothing) and
no span tracer, so instrumented code runs at full speed with zero
observability cost.  Opting in is one object::

    from repro.telemetry import MetricsRegistry, SpanTracer, Telemetry

    telemetry = Telemetry(metrics=MetricsRegistry(), spans=SpanTracer())
    result = run_relay_fanout((1000,), telemetry=telemetry)

and everything the run recorded is available through
:mod:`repro.telemetry.export` (Prometheus text, JSONL trace dump, summary
tables) and :mod:`repro.telemetry.collect` (scrapers that mirror the
simulator/link/QUIC/relay counters into the registry).

The core modules (:mod:`~repro.telemetry.metrics`,
:mod:`~repro.telemetry.spans`) are stdlib-only so :mod:`repro.netsim` can
depend on them without import cycles; only the exporters reach back into
:mod:`repro.experiments.report`, lazily.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullMetrics,
)
from repro.telemetry.spans import ObjectSpan, SpanTracer

__all__ = [
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NullMetrics",
    "ObjectSpan",
    "SpanTracer",
    "Telemetry",
]


class Telemetry:
    """The per-network telemetry bundle: a metrics registry + span tracer.

    ``metrics`` defaults to the shared no-op registry and ``spans`` to None,
    so a default-constructed bundle is free: hot paths check
    ``telemetry.spans is None`` (one attribute load) and hand counters to a
    registry that drops them without allocating.
    """

    __slots__ = ("metrics", "spans")

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        spans: SpanTracer | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.spans = spans

    @property
    def enabled(self) -> bool:
        """Whether anything at all is being recorded."""
        return self.metrics.enabled or self.spans is not None
