"""Collectors: mirror existing subsystem counters into a metrics registry.

The simulator, links, QUIC connections and relays already keep their own
slotted counters on the hot path (incrementing a plain int attribute is the
cheapest possible instrumentation).  These collectors *scrape*: called at a
measurement point (the end of a benchmark trial), they copy the live
counters into gauges so a ``snapshot()`` sees one uniform namespace.
"""

from __future__ import annotations

from repro.telemetry.metrics import MetricsRegistry


def collect_simulator(metrics: MetricsRegistry, simulator) -> None:
    """Scrape the event-loop counters (heap depth, compactions, clock)."""
    metrics.gauge("sim_virtual_time_seconds", "Simulated clock at scrape time").set(
        simulator.now
    )
    metrics.gauge("sim_events_scheduled", "Events ever scheduled").set(
        simulator.events_scheduled
    )
    metrics.gauge("sim_pending_events", "Live events in the heap (heap depth)").set(
        simulator.pending_events
    )
    metrics.gauge("sim_compactions", "Lazy-deletion heap compactions").set(
        simulator.compactions
    )


def collect_network(metrics: MetricsRegistry, network) -> None:
    """Scrape a network: link totals and the simulator."""
    for name, value in network.total_link_statistics().items():
        metrics.gauge(f"net_{name}", "Aggregate over every link direction").set(value)
    collect_simulator(metrics, network.simulator)
    # Malformed-datagram drops are counted per QUIC endpoint, and endpoints
    # are whatever is bound to a port; other handlers have no such counter.
    malformed = 0
    for host in network.hosts():
        for handler in host.handlers():
            malformed += getattr(handler, "datagrams_malformed", 0)
    metrics.gauge(
        "quic_datagrams_malformed",
        "Datagrams dropped whole by bound QUIC endpoints as not a well-formed packet",
    ).set(malformed)


_QUIC_STAT_FIELDS = (
    "packets_sent",
    "packets_received",
    "bytes_sent",
    "bytes_received",
    "retransmissions",
    "pings_sent",
    "liveness_transitions",
)

#: Congestion-controller state, exported alongside the statistics counters.
#: ``cwnd_bytes`` / ``bytes_in_flight`` are instantaneous gauges summed over
#: the role's connections; ``congestion_events`` is monotonic.  All three are
#: zero under the default Null controller, so the families exist whether or
#: not real congestion control is installed.
_QUIC_CC_FIELDS = (
    "cwnd_bytes",
    "bytes_in_flight",
    "congestion_events",
)

#: ``stream_states`` is the bounded-state gauge: ``QuicStream`` objects held,
#: summed over the role's connections (at most one each, the control stream:
#: a connection closes on any other bidirectional stream, and a data stream
#: arrives whole and holds none).
#: ``inflight_packets`` is the in-flight ledger's size (records awaiting an
#: ACK or a PTO); zero once a run has quiesced, and zero for a closed
#: connection however it ended.
_QUIC_EXPORT_FIELDS = _QUIC_STAT_FIELDS + _QUIC_CC_FIELDS + ("stream_states", "inflight_packets")


def _scrape_quic(totals: dict[str, int], connection) -> None:
    statistics = connection.statistics
    for field in _QUIC_STAT_FIELDS:
        totals[field] += getattr(statistics, field)
    congestion = connection.congestion
    totals["cwnd_bytes"] += congestion.congestion_window
    totals["bytes_in_flight"] += congestion.bytes_in_flight
    totals["congestion_events"] += congestion.congestion_events
    totals["stream_states"] += connection.stream_states
    totals["inflight_packets"] += connection.unacked_packets


def collect_relay_tree(metrics: MetricsRegistry, tree) -> None:
    """Scrape a relay tree: per-tier relay/link counters, the subscriber
    edge, and QUIC transport totals grouped by connection role.

    ``tree`` is anything with ``tiers`` / ``subscribers`` / ``network``
    (a :class:`~repro.relaynet.topology.RelayTopology`).
    """
    network = tree.network
    tier_gauges = {
        name: metrics.gauge(f"relaynet_{name}", help_text, labels=("tier",))
        for name, help_text in (
            ("relays", "Relays ever built in the tier"),
            ("uplink_bytes", "Bytes over the tier's uplinks (fan-out direction)"),
            ("objects_received", "Objects arriving from upstream"),
            ("objects_forwarded", "Object copies sent downstream"),
            ("cache_hits", "FETCHes served from the tier's caches"),
            ("cache_misses", "FETCHes forwarded upstream"),
        )
    }
    quic_totals: dict[str, dict[str, int]] = {
        "relay-uplink": {field: 0 for field in _QUIC_EXPORT_FIELDS},
        "relay-downstream": {field: 0 for field in _QUIC_EXPORT_FIELDS},
        "subscriber": {field: 0 for field in _QUIC_EXPORT_FIELDS},
    }
    recovery_fetches = 0
    recovered_objects = 0
    duplicate_drops = 0
    uplink_failures = 0
    upstream_switches = 0
    admission_rejections = 0
    admission_queue_rejections = 0
    pending_subscribe_high_water = 0
    # Receiver state (relay tracks and subscriber tracks are the same class).
    recovery_buffered = 0
    dedupe_window = 0
    for nodes in tree.tiers:
        if not nodes:
            continue
        tier = nodes[0].tier_name
        uplink_bytes = 0
        objects_received = 0
        objects_forwarded = 0
        cache_hits = 0
        cache_misses = 0
        for node in nodes:
            if network.has_link(node.upstream_host, node.host.address):
                uplink_bytes += network.link(
                    node.upstream_host, node.host.address
                ).statistics.bytes_sent
            statistics = node.relay.statistics
            objects_received += statistics.objects_received
            objects_forwarded += statistics.objects_forwarded
            cache_hits += statistics.fetches_served_from_cache
            cache_misses += statistics.fetches_forwarded_upstream
            recovery_fetches += statistics.recovery_fetches
            recovered_objects += statistics.recovered_objects
            duplicate_drops += statistics.duplicate_objects_dropped
            uplink_failures += statistics.uplink_failures_detected
            upstream_switches += statistics.upstream_switches
            admission_rejections += statistics.admission_rejections
            admission_queue_rejections += statistics.admission_queue_rejections
            if statistics.pending_subscribe_high_water > pending_subscribe_high_water:
                pending_subscribe_high_water = statistics.pending_subscribe_high_water
            for track in node.relay.tracks().values():
                recovery_buffered += len(track.held or ())
                dedupe_window = max(dedupe_window, len(track.seen))
            uplink = node.relay.upstream_quic_connection
            if uplink is not None:
                _scrape_quic(quic_totals["relay-uplink"], uplink)
            for session in node.relay.downstream_sessions():
                _scrape_quic(quic_totals["relay-downstream"], session.connection)
        tier_gauges["relays"].labels(tier).set(len(nodes))
        tier_gauges["uplink_bytes"].labels(tier).set(uplink_bytes)
        tier_gauges["objects_received"].labels(tier).set(objects_received)
        tier_gauges["objects_forwarded"].labels(tier).set(objects_forwarded)
        tier_gauges["cache_hits"].labels(tier).set(cache_hits)
        tier_gauges["cache_misses"].labels(tier).set(cache_misses)
    subscriber_bytes = 0
    subscriber_objects = 0
    duplicates = 0
    gap_fetches = 0
    reattaches = 0
    for subscriber in tree.subscribers:
        if network.has_link(subscriber.leaf.host.address, subscriber.host.address):
            link = network.link(subscriber.leaf.host.address, subscriber.host.address)
            subscriber_bytes += link.statistics.bytes_sent
        subscriber_objects += subscriber.objects_delivered
        duplicates += subscriber.duplicate_objects_dropped
        gap_fetches += subscriber.recovery_fetches
        reattaches += subscriber.reattach_count
        for track in subscriber.tracks:
            recovery_buffered += len(track.held or ())
            dedupe_window = max(dedupe_window, len(track.seen))
        _scrape_quic(quic_totals["subscriber"], subscriber.session.connection)
    metrics.gauge("relaynet_subscribers", "Subscribers attached to the tree").set(
        len(tree.subscribers)
    )
    metrics.gauge(
        "relaynet_subscriber_link_bytes", "Bytes over the subscriber access links"
    ).set(subscriber_bytes)
    metrics.gauge(
        "relaynet_subscriber_objects_delivered",
        "Distinct objects handed to subscriber callbacks",
    ).set(subscriber_objects)
    metrics.gauge(
        "relaynet_duplicates_dropped",
        "Duplicate deliveries suppressed (relays + subscribers)",
    ).set(duplicate_drops + duplicates)
    metrics.gauge("relaynet_recovery_fetches", "Gap FETCHes issued by relays").set(
        recovery_fetches
    )
    metrics.gauge("relaynet_recovered_objects", "Objects recovered via FETCH").set(
        recovered_objects
    )
    metrics.gauge("relaynet_subscriber_gap_fetches", "Gap FETCHes by subscribers").set(
        gap_fetches
    )
    metrics.gauge(
        "relaynet_recovery_buffered",
        "Live objects receivers hold back behind a gap FETCH (relays + subscribers)",
    ).set(recovery_buffered)
    metrics.gauge(
        "relaynet_dedupe_window",
        "Largest delivered-locations dedupe window any receiver holds",
    ).set(dedupe_window)
    metrics.gauge("relaynet_subscriber_reattaches", "Subscriber leaf re-attachments").set(
        reattaches
    )
    metrics.gauge(
        "relaynet_uplink_failures_detected",
        "Uplink deaths noticed through transport liveness",
    ).set(uplink_failures)
    metrics.gauge("relaynet_upstream_switches", "Relay uplink re-parent operations").set(
        upstream_switches
    )
    metrics.gauge(
        "relaynet_admission_rejections",
        "SUBSCRIBEs rejected by the token-bucket rate limit",
    ).set(admission_rejections)
    metrics.gauge(
        "relaynet_admission_queue_rejections",
        "SUBSCRIBEs rejected because the pending-subscribe queue was full",
    ).set(admission_queue_rejections)
    metrics.gauge(
        "relaynet_pending_subscribe_high_water",
        "Largest pending-subscribe queue any relay ever held",
    ).set(pending_subscribe_high_water)
    quic_gauge = {
        field: metrics.gauge(
            f"quic_{field}", "QUIC connection totals by role", labels=("role",)
        )
        for field in _QUIC_EXPORT_FIELDS
    }
    for role, totals in quic_totals.items():
        for field, value in totals.items():
            quic_gauge[field].labels(role).set(value)


def collect_run(metrics: MetricsRegistry, network, tree) -> None:
    """One-call scrape at the end of a run: network (+ simulator) and, unless
    ``tree`` is ``None``, the relay tree with its QUIC transport totals."""
    collect_network(metrics, network)
    if tree is not None:
        collect_relay_tree(metrics, tree)
