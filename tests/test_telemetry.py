"""Tests for the flightdeck telemetry layer.

Covers the metrics registry (idempotent registration, label families, the
zero-cost ``NullMetrics`` default), virtual-time span tracing (sampling,
chain reconstruction, the telescoping-segments invariant), the trace
recorder satellites (O(1) ``count``/``kinds``, ``NullTraceRecorder``
listener rejection), collectors, and the headline determinism
contract: seeded experiment outputs are bit-identical with telemetry enabled
or disabled.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.constrained_tiers import run_constrained_tiers
from repro.experiments.failure_detection import run_failure_detection
from repro.experiments.relay_churn import run_relay_churn
from repro.experiments.relay_fanout import run_relay_fanout
from repro.experiments.topology import SmallTopology
from repro.moqt.objectmodel import Location
from repro.moqt.receiver import DEDUPE_PRUNE_THRESHOLD
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder, TraceRecorder
from repro.telemetry import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullMetrics,
    SpanTracer,
    Telemetry,
)
from repro.telemetry.collect import (
    collect_dns_core,
    collect_network,
    collect_run,
    collect_simulator,
)


class TestMetricsRegistry:
    def test_counter_inc_and_snapshot(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests", "Total requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.snapshot() == {"requests": 5}

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("hits")
        second = registry.counter("hits")
        assert first is second

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")
        with pytest.raises(MetricError):
            registry.histogram("x")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("labelled", labels=("tier",))
        with pytest.raises(MetricError):
            registry.counter("labelled", labels=("role",))

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("mono")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.inc(10)
        gauge.dec(3)
        gauge.set(4)
        assert gauge.value == 4

    def test_labels_cached_per_value_tuple(self):
        registry = MetricsRegistry()
        family = registry.counter("per_tier", labels=("tier",))
        assert family.is_family
        child = family.labels("mid")
        assert family.labels("mid") is child
        assert family.labels("edge") is not child
        child.inc(2)
        assert registry.snapshot() == {"per_tier": {"tier=mid": 2, "tier=edge": 0}}

    def test_family_parent_rejects_direct_inc(self):
        family = MetricsRegistry().counter("fam", labels=("a",))
        with pytest.raises(MetricError):
            family.inc()

    def test_unlabelled_rejects_labels(self):
        counter = MetricsRegistry().counter("plain")
        with pytest.raises(MetricError):
            counter.labels("x")

    def test_wrong_label_arity_raises(self):
        family = MetricsRegistry().counter("fam", labels=("a", "b"))
        with pytest.raises(MetricError):
            family.labels("only-one")

    def test_histogram_percentiles(self):
        hist = MetricsRegistry().histogram("lat")
        for value in (0.05, 0.2, 0.5, 2.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(2.75)
        assert hist.percentile(0) == pytest.approx(0.05)
        assert hist.percentile(100) == pytest.approx(2.0)
        assert hist.percentile(50) == pytest.approx(0.35)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["min"] == pytest.approx(0.05)
        assert summary["max"] == pytest.approx(2.0)

    def test_snapshot_summarises_histograms_and_survives_json(self):
        registry = MetricsRegistry()
        registry.counter("plain").inc(3)
        registry.gauge("per_tier", labels=("tier",)).labels("mid").set(7)
        latency = registry.histogram("lat")
        latency.observe(0.05)
        latency.observe(0.2)
        hops = registry.histogram("hop", labels=("tier", "role"))
        hops.labels("edge", "relay").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["plain"] == 3
        assert snapshot["per_tier"] == {"tier=mid": 7}
        assert snapshot["lat"] == latency.summary()
        assert snapshot["lat"]["count"] == 2
        assert snapshot["lat"]["sum"] == pytest.approx(0.25)
        assert snapshot["hop"] == {"tier=edge,role=relay": hops.labels("edge", "relay").summary()}
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_collect_preserves_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert [m.name for m in registry.collect()] == ["a", "b", "c"]
        assert [m.kind for m in registry.collect()] == ["counter", "gauge", "histogram"]


class TestNullMetrics:
    def test_singleton_instruments(self):
        null = NullMetrics()
        assert null.counter("a") is null.counter("b")
        assert null.gauge("a") is null.gauge("b")
        assert null.histogram("a") is null.histogram("b")
        assert null.counter("x").labels("anything") is null.counter("x")
        assert not null.enabled
        assert null.collect() == []
        assert null.snapshot() == {}

    def test_null_instruments_record_nothing(self):
        counter = NULL_METRICS.counter("c")
        counter.inc(100)
        counter.set(7)
        assert counter.value == 0
        hist = NULL_METRICS.histogram("h")
        hist.observe(1.0)
        assert hist.count == 0 and hist.samples == []

    def test_disabled_path_allocates_nothing(self):
        """The hot-path cost of disabled telemetry is zero allocations."""
        counter = NULL_METRICS.counter("c")
        gauge = NULL_METRICS.gauge("g")
        hist = NULL_METRICS.histogram("h")
        spins = list(range(1000))
        tracemalloc.start()
        for _ in spins:
            counter.inc()
            counter.labels("tier").inc()
            gauge.set(5)
            hist.observe(1.0)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert current == 0
        assert peak <= 512  # transient interpreter noise only

    def test_network_defaults_to_disabled_telemetry(self):
        network = Network(Simulator(seed=1))
        assert isinstance(network.telemetry, Telemetry)
        assert not network.telemetry.enabled
        assert network.telemetry.metrics is NULL_METRICS
        assert network.telemetry.spans is None


class TestSpanTracer:
    def _traced_delivery(self) -> SpanTracer:
        """Origin -> mid -> edge -> subscriber with known timestamps."""
        tracer = SpanTracer()
        loc = Location(group_id=2, object_id=0)
        tracer.record_push(loc, 1.0)
        tracer.record_hop(loc, "mid", "relay-mid-0", "origin", 1.02)
        tracer.record_hop(loc, "edge", "relay-edge-0", "relay-mid-0", 1.03)
        tracer.record_delivery(loc, "relay-edge-0", 0, 1.035)
        return tracer

    def test_segments_telescope_to_end_to_end(self):
        tracer = self._traced_delivery()
        (record,) = tracer.delivery_breakdowns()
        assert record["segments"] == pytest.approx(
            {"mid": 0.02, "edge": 0.01, "subscribers": 0.005}
        )
        assert sum(record["segments"].values()) == pytest.approx(record["end_to_end"])
        assert record["end_to_end"] == pytest.approx(0.035)

    def test_tier_breakdown_rows(self):
        rows = self._traced_delivery().tier_breakdown()
        by_tier = {row["tier"]: row for row in rows}
        assert set(by_tier) == {"mid", "edge", "subscribers", "end_to_end"}
        assert by_tier["end_to_end"]["p50_ms"] == pytest.approx(35.0)
        assert by_tier["mid"]["count"] == 1

    def test_group_sampling_stride(self):
        tracer = SpanTracer(sample_every=10)
        for group in range(25):
            tracer.record_push(Location(group_id=group, object_id=0), float(group))
        assert tracer.span_count == 3  # groups 0, 10, 20
        # Hops and deliveries for unsampled groups fall through silently.
        tracer.record_hop(Location(group_id=3, object_id=0), "mid", "r", "o", 3.1)
        tracer.record_delivery(Location(group_id=3, object_id=0), "r", 0, 3.2)
        assert tracer.delivery_count == 0

    def test_subscriber_sampling_stride(self):
        tracer = SpanTracer(subscriber_sample_every=3)
        loc = Location(group_id=0, object_id=0)
        tracer.record_push(loc, 0.0)
        for index in range(9):
            tracer.record_delivery(loc, "leaf", index, 0.5)
        assert tracer.delivery_count == 3  # indices 0, 3, 6

    def test_max_spans_flight_recorder_cap(self):
        tracer = SpanTracer(max_spans=2)
        for group in range(5):
            tracer.record_push(Location(group_id=group, object_id=0), 0.0)
        assert tracer.span_count == 2
        assert tracer.dropped_spans == 3
        tracer.clear()
        assert tracer.span_count == 0 and tracer.dropped_spans == 0

    def test_duplicate_push_keeps_first_timeline(self):
        tracer = SpanTracer()
        loc = Location(group_id=0, object_id=0)
        tracer.record_push(loc, 1.0)
        tracer.record_push(loc, 9.0)
        assert tracer.spans()[0].push_time == 1.0

    def test_first_hop_per_host_wins(self):
        tracer = SpanTracer()
        loc = Location(group_id=0, object_id=0)
        tracer.record_push(loc, 0.0)
        tracer.record_hop(loc, "mid", "relay", "origin", 0.5)
        tracer.record_hop(loc, "mid", "relay", "origin", 0.9)
        assert tracer.spans()[0].hops["relay"] == ("mid", "origin", 0.5)

    def test_unreconstructable_chain_skipped(self):
        """A delivery whose leaf has no hop record yields no breakdown."""
        tracer = SpanTracer()
        loc = Location(group_id=0, object_id=0)
        tracer.record_push(loc, 0.0)
        tracer.record_delivery(loc, "never-forwarded", 0, 1.0)
        assert tracer.delivery_breakdowns() == []

    def test_invalid_strides_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(sample_every=0)
        with pytest.raises(ValueError):
            SpanTracer(subscriber_sample_every=0)

    def test_summary_shape(self):
        summary = self._traced_delivery().summary()
        assert summary["spans"] == 1
        assert summary["deliveries"] == 1
        assert summary["dropped_spans"] == 0
        assert any(row["tier"] == "end_to_end" for row in summary["tiers"])


class TestTraceRecorderSatellites:
    def test_count_is_incremental(self):
        recorder = TraceRecorder(Simulator(seed=1))
        for _ in range(5):
            recorder.record("datagram-sent", size=10)
        recorder.record("subscribe-ok")
        assert recorder.count("datagram-sent") == 5
        assert recorder.count("subscribe-ok") == 1
        assert recorder.count("missing") == 0
        assert recorder.count() == 6

    def test_kinds_in_first_occurrence_order(self):
        recorder = TraceRecorder(Simulator(seed=1))
        recorder.record("b")
        recorder.record("a")
        recorder.record("b")
        assert recorder.kinds() == ["b", "a"]

    def test_clear_resets_counts(self):
        recorder = TraceRecorder(Simulator(seed=1))
        recorder.record("x")
        recorder.clear()
        assert recorder.count("x") == 0
        assert recorder.kinds() == []

    def test_null_recorder_rejects_listeners(self):
        recorder = NullTraceRecorder(Simulator(seed=1))
        with pytest.raises(RuntimeError):
            recorder.subscribe(lambda event: None)

    def test_null_recorder_drops_events(self):
        recorder = NullTraceRecorder(Simulator(seed=1))
        recorder.record("anything")
        assert recorder.count() == 0


class TestCollectors:
    def test_collect_is_noop_when_disabled(self):
        network = Network(Simulator(seed=1))
        collect_run(NULL_METRICS, network)
        assert NULL_METRICS.snapshot() == {}

    def test_collect_simulator_gauges(self):
        simulator = Simulator(seed=1)
        simulator.call_later(1.0, lambda: None)
        simulator.run(until=2.0)
        metrics = MetricsRegistry()
        collect_simulator(metrics, simulator)
        snapshot = metrics.snapshot()
        assert snapshot["sim_virtual_time_seconds"] == pytest.approx(2.0)
        assert snapshot["sim_events_scheduled"] >= 1

    def test_collect_network_scrapes_links_and_trace(self):
        simulator = Simulator(seed=1)
        network = Network(simulator, trace=TraceRecorder(simulator))
        network.trace.record("custom-kind")
        metrics = MetricsRegistry()
        collect_network(metrics, network)
        snapshot = metrics.snapshot()
        assert "net_datagrams_sent" in snapshot
        assert not [name for name in snapshot if name.startswith("pool_")]
        assert snapshot["trace_events"] == {"kind=custom-kind": 1}

    @staticmethod
    def _dns_chain_run(metrics):
        """Lookup + zone change on the small DNS chain, scraped into ``metrics``."""
        topology = SmallTopology()
        key = DnsQuestionKey(qname=Name.from_text(topology.config.domain), qtype=RecordType.A)
        answers = []
        topology.forwarder.resolve(key, lambda message, version: answers.append(version))
        topology.run(5.0)
        answers.append(topology.update_record("203.0.113.4"))
        topology.run(5.0)
        nodes = {
            "forwarder": topology.forwarder,
            "recursive": topology.moqt_recursive,
            "auth": topology.moqt_auth,
        }
        for role, node in nodes.items():
            collect_dns_core(metrics, role, node)
        summaries = {role: node.state_summary() for role, node in nodes.items()}
        return answers, topology.simulator.events_scheduled, summaries

    def test_collect_dns_core_mirrors_state_summary_and_changes_nothing(self):
        metrics = MetricsRegistry()
        on = self._dns_chain_run(metrics)
        assert on == self._dns_chain_run(NULL_METRICS)
        assert NULL_METRICS.snapshot() == {}
        snapshot = metrics.snapshot()
        _, _, summaries = on
        for role, summary in summaries.items():
            for key, value in summary.items():
                assert snapshot[f"dns_core_{key}"][f"role={role}"] == value
        # One gauge per state_summary() key, nothing per role in the collector.
        assert {name for name in snapshot if name.startswith("dns_core_")} == {
            f"dns_core_{key}" for summary in summaries.values() for key in summary
        }
        assert snapshot["dns_core_records"] == {"role=forwarder": 1, "role=recursive": 3}
        assert snapshot["dns_core_inflight_lookups"] == {"role=forwarder": 0, "role=recursive": 0}
        assert snapshot["dns_core_downstream_subscribers"] == {"role=recursive": 1}
        assert snapshot["dns_core_subscribers"] == {"role=auth": 1}


def _fanout_fingerprint(result):
    return [
        (
            sample.subscribers,
            sample.measured_origin_objects,
            sample.measured_tier_bytes,
            sample.measured_tier_objects,
            sample.delivered_objects,
            sample.events_scheduled,
        )
        for sample in result.samples
    ]


def _assert_receivers_quiesced(telemetry, still_probing=None):
    """After a run drains, no receiver holds anything back, every dedupe
    window is inside its prune threshold and no connection has a packet
    outstanding — except ``still_probing``: ``{role: packets}`` a live node
    is still re-sending to a silently crashed peer it has not given up on."""
    snapshot = telemetry.metrics.snapshot()
    assert snapshot["relaynet_recovery_buffered"] == 0
    assert 0 < snapshot["relaynet_dedupe_window"] <= DEDUPE_PRUNE_THRESHOLD
    still_probing = still_probing or {}
    for role, packets in snapshot["quic_inflight_packets"].items():
        assert packets == still_probing.get(role, 0), role
    assert set(snapshot["quic_bytes_in_flight"].values()) == {0}


class TestDeterminismContract:
    """Seeded outputs must be bit-identical with telemetry on or off."""

    def test_e11_identical_with_telemetry(self):
        baseline = run_relay_fanout(subscriber_counts=(10, 100))
        telemetry = Telemetry(metrics=MetricsRegistry(), spans=SpanTracer())
        traced = run_relay_fanout(subscriber_counts=(10, 100), telemetry=telemetry)
        assert _fanout_fingerprint(baseline) == _fanout_fingerprint(traced)
        # The E11 acceptance canaries (see ROADMAP): 20 origin objects and
        # 6560 origin-egress bytes, independent of subscriber count.
        first = baseline.samples[0]
        assert first.measured_origin_objects == 20
        assert first.measured_tier_bytes[0] == 6560
        _assert_receivers_quiesced(telemetry)

    def test_e11_breakdowns_telescope(self):
        telemetry = Telemetry(metrics=MetricsRegistry(), spans=SpanTracer())
        run_relay_fanout(subscriber_counts=(10,), telemetry=telemetry)
        breakdowns = telemetry.spans.delivery_breakdowns()
        assert breakdowns
        for record in breakdowns:
            assert sum(record["segments"].values()) == pytest.approx(
                record["end_to_end"], abs=1e-12
            )

    def test_e11_metrics_collected(self):
        telemetry = Telemetry(metrics=MetricsRegistry(), spans=SpanTracer())
        result = run_relay_fanout(subscriber_counts=(10,), telemetry=telemetry)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["relaynet_subscribers"] == 10
        assert (
            snapshot["relaynet_subscriber_objects_delivered"]
            == result.samples[-1].delivered_objects
        )
        assert result.samples[-1].latency is not None

    def test_e12_identical_with_telemetry(self):
        baseline = run_relay_churn(subscribers=200)
        telemetry = Telemetry(
            metrics=MetricsRegistry(), spans=SpanTracer(subscriber_sample_every=7)
        )
        traced = run_relay_churn(subscribers=200, telemetry=telemetry)
        assert baseline.delivery_sequences == traced.delivery_sequences
        assert [
            (kill.killed, kill.at, kill.latencies_by_tier) for kill in baseline.kills
        ] == [(kill.killed, kill.at, kill.latencies_by_tier) for kill in traced.kills]
        assert baseline.gapless and traced.gapless
        assert telemetry.metrics.snapshot()["relaynet_subscriber_reattaches"] > 0
        _assert_receivers_quiesced(telemetry)

    def test_e13_identical_with_telemetry(self):
        baseline = run_failure_detection(subscribers=200)
        telemetry = Telemetry(
            metrics=MetricsRegistry(), spans=SpanTracer(subscriber_sample_every=7)
        )
        traced = run_failure_detection(subscribers=200, telemetry=telemetry)
        assert [
            (s.killed, s.detected_via, s.detection_latency) for s in baseline.samples
        ] == [(s.killed, s.detected_via, s.detection_latency) for s in traced.samples]
        assert baseline.delivery_sequences == traced.delivery_sequences
        assert baseline.delivered_objects == traced.delivered_objects
        # The E13 acceptance canary: PTO-path detection at 544.277 ms.
        assert round(baseline.samples[0].detection_latency * 1000, 3) == 544.277
        # Scraped before every connection to a crashed relay has timed out:
        # relay-mid-0 still holds its downstream connection to the silently
        # crashed relay-edge-0 open (suspect, neither idle-timed-out nor given
        # up) and keeps re-sending it the six updates pushed after the crash.
        # Every other connection, closed ones included, has nothing in flight.
        _assert_receivers_quiesced(telemetry, still_probing={"role=relay-downstream": 6})

    def test_e15_identical_with_telemetry(self):
        kwargs = dict(subscribers=40, mid_relays=2, edge_per_mid=2)
        baseline = run_constrained_tiers(**kwargs)
        telemetry = Telemetry(
            metrics=MetricsRegistry(), spans=SpanTracer(subscriber_sample_every=7)
        )
        traced = run_constrained_tiers(telemetry=telemetry, **kwargs)
        assert baseline.rows() == traced.rows()
        assert baseline.loss_sample == traced.loss_sample
        assert baseline.summary_row() == traced.summary_row()
        assert [sample.events_scheduled for sample in baseline.samples] == [
            sample.events_scheduled for sample in traced.samples
        ]
        # Every run of the sweep was traced (spans cleared per run, so what is
        # left is the last one's) and scraped; the gauges left standing are
        # the lossy run's, and loss repair left nothing held back or in flight.
        assert baseline.loss_sample.retransmissions > 0
        assert telemetry.spans.summary()["deliveries"] > 0
        assert telemetry.metrics.snapshot()["relaynet_subscribers"] == 40
        _assert_receivers_quiesced(telemetry)
