"""The end-of-run gauge scrape.

The simulator, links, QUIC connections and relays keep their own counters;
:mod:`repro.telemetry.collect` copies them into a :class:`MetricsRegistry`
of labelled gauges at a measurement point, so one ``snapshot()`` reads them
under one namespace::

    from repro.telemetry import MetricsRegistry
    from repro.telemetry.collect import collect_run

    registry = MetricsRegistry()
    collect_run(registry, network, tree)
    registry.snapshot()["relaynet_subscriber_reattaches"]

The package is stdlib-only and nothing under :mod:`repro` imports it: a run
pays for a scrape only when a caller asks for one.
"""

from __future__ import annotations

from repro.telemetry.metrics import MetricError, MetricsRegistry

__all__ = ["MetricError", "MetricsRegistry"]
