"""Tests for the end-of-run gauge scrape (``repro.telemetry``).

Covers the metrics registry (idempotent gauge registration, label families,
the ``MetricError`` checks), the trace recorder (O(1) ``count``/``kinds``,
filtering, listeners, ``NullTraceRecorder`` listener rejection), the
collectors against the counters they copy (a scrape only reads), the names
the end-to-end benchmark reads from a scrape, and what the scrape shows of
the E11, E12, E13 and E15 runs: every receiver and connection quiesced.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro.experiments.constrained_tiers as e15
import repro.experiments.failure_detection as e13
import repro.experiments.origin_failover as e14
import repro.experiments.relay_churn as e12
import repro.experiments.relay_fanout as e11
from repro.moqt.receiver import DEDUPE_PRUNE_THRESHOLD
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address, Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder, TraceRecorder
from repro.relaynet import RelayTreeSpec
from repro.relaynet.scenario import Scenario, ScenarioRun, build_scenario
from repro.telemetry import MetricError, MetricsRegistry
from repro.telemetry.collect import (
    _QUIC_EXPORT_FIELDS,
    collect_network,
    collect_run,
    collect_simulator,
)
from scenario_runs import captured_runs, scrape

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
#: The name prefixes of what ``collect_run`` scrapes.
SCRAPED = ("sim_", "net_", "pool_", "relaynet_", "quic_")
#: Scraped names the benchmark reads that nothing emits, so they read 0:
#: the constant ``link_batch_fallback_waves`` (ROADMAP 0(a)) and the retired
#: datagram pool's counters (ROADMAP 0(d)).
READ_AS_ZERO = {"net_link_batch_fallback_waves", "pool_datagrams_allocated", "pool_datagrams_reused"}


class TestMetricsRegistry:
    def test_gauge_set_and_snapshot(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("requests", "Total requests")
        gauge.set(5)
        assert gauge.value == 5
        assert registry.snapshot() == {"requests": 5}

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.gauge("hits", "") is registry.gauge("hits", "")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.gauge("labelled", "", labels=("tier",))
        with pytest.raises(MetricError):
            registry.gauge("labelled", "", labels=("role",))
        with pytest.raises(MetricError):
            registry.gauge("labelled", "")

    def test_labels_cached_per_value_tuple(self):
        registry = MetricsRegistry()
        family = registry.gauge("per_tier", "", labels=("tier",))
        assert family.is_family
        child = family.labels("mid")
        assert family.labels("mid") is child
        assert family.labels("edge") is not child
        child.set(2)
        assert registry.snapshot() == {"per_tier": {"tier=mid": 2, "tier=edge": 0}}

    def test_family_parent_rejects_direct_set(self):
        family = MetricsRegistry().gauge("fam", "", labels=("a",))
        with pytest.raises(MetricError):
            family.set(1)

    def test_unlabelled_rejects_labels(self):
        gauge = MetricsRegistry().gauge("plain", "")
        with pytest.raises(MetricError):
            gauge.labels("x")

    def test_wrong_label_arity_raises(self):
        family = MetricsRegistry().gauge("fam", "", labels=("a", "b"))
        with pytest.raises(MetricError):
            family.labels("only-one")

    def test_snapshot_survives_json(self):
        registry = MetricsRegistry()
        registry.gauge("plain", "").set(3)
        registry.gauge("hop", "", labels=("tier", "role")).labels("edge", "relay").set(0.5)
        snapshot = registry.snapshot()
        assert snapshot == {"plain": 3, "hop": {"tier=edge,role=relay": 0.5}}
        assert json.loads(json.dumps(snapshot)) == snapshot


    def test_snapshot_preserves_registration_order(self):
        registry = MetricsRegistry()
        for name in ("c", "a", "b"):
            registry.gauge(name, "")
        assert list(registry.snapshot()) == ["c", "a", "b"]

    def test_set_replaces_the_value(self):
        gauge = MetricsRegistry().gauge("scraped", "")
        gauge.set(5)
        gauge.set(3)
        assert gauge.value == 3

    def test_label_values_are_stringified(self):
        registry = MetricsRegistry()
        family = registry.gauge("per_index", "", labels=("index",))
        assert family.labels(1) is family.labels("1")
        family.labels(1).set(4)
        assert registry.snapshot() == {"per_index": {"index=1": 4}}

    def test_family_registration_is_idempotent_for_any_label_sequence(self):
        registry = MetricsRegistry()
        family = registry.gauge("fam", "", labels=("tier",))
        assert registry.gauge("fam", "", labels=["tier"]) is family

    def test_first_help_text_stays(self):
        registry = MetricsRegistry()
        registry.gauge("hits", "first")
        assert registry.gauge("hits", "second").help == "first"

    def test_empty_registry_and_empty_family(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {}
        registry.gauge("fam", "", labels=("a",))
        assert registry.snapshot() == {"fam": {}}

    def test_children_in_first_use_order(self):
        family = MetricsRegistry().gauge("fam", "", labels=("a",))
        for value in ("z", "x", "y", "x"):
            family.labels(value)
        assert [child.label_values for child in family.children()] == [("z",), ("x",), ("y",)]

    def test_child_rejects_further_labels(self):
        child = MetricsRegistry().gauge("fam", "", labels=("a",)).labels("x")
        assert not child.is_family
        with pytest.raises(MetricError):
            child.labels("y")


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


    def test_events_filtered_by_kind_and_predicate(self):
        recorder = TraceRecorder(Simulator(seed=1))
        recorder.record("sent", size=10)
        recorder.record("lost", size=20)
        recorder.record("sent", size=30)
        assert [event.attribute("size") for event in recorder.events("sent")] == [10, 30]
        assert len(recorder.events()) == 3
        big = recorder.filter(lambda event: event.attribute("size") > 15)
        assert [event.kind for event in big] == ["lost", "sent"]

    def test_events_carry_virtual_time_and_sorted_attributes(self):
        simulator = Simulator(seed=1)
        recorder = TraceRecorder(simulator)
        simulator.call_later(0.25, lambda: recorder.record("tick", b=2, a=1))
        simulator.run()
        (event,) = recorder.events()
        assert event.time == pytest.approx(0.25)
        assert event.attributes == (("a", 1), ("b", 2))
        assert event.attribute("missing", "default") == "default"
        assert event.as_dict() == {"time": event.time, "kind": "tick", "a": 1, "b": 2}

    def test_listeners_see_every_later_event(self):
        recorder = TraceRecorder(Simulator(seed=1))
        recorder.record("before")
        seen = []
        recorder.subscribe(lambda event: seen.append(event.kind))
        recorder.record("after")
        recorder.record("again")
        assert seen == ["after", "again"]


class TestCollectors:
    def test_collect_simulator_gauges(self):
        simulator = Simulator(seed=1)
        simulator.call_later(1.0, lambda: None)
        simulator.run(until=2.0)
        metrics = MetricsRegistry()
        collect_simulator(metrics, simulator)
        snapshot = metrics.snapshot()
        assert snapshot["sim_virtual_time_seconds"] == pytest.approx(2.0)
        assert snapshot["sim_events_scheduled"] >= 1

    def test_collect_network_scrapes_links_and_not_the_trace(self):
        simulator = Simulator(seed=1)
        network = Network(simulator, trace=TraceRecorder(simulator))
        network.trace.record("custom-kind")
        metrics = MetricsRegistry()
        collect_network(metrics, network)
        snapshot = metrics.snapshot()
        assert "net_datagrams_sent" in snapshot
        assert snapshot["quic_datagrams_malformed"] == 0
        assert not [name for name in snapshot if name.startswith(("pool_", "trace_"))]


    def test_collect_simulator_counts_live_events(self):
        simulator = Simulator(seed=1)
        for delay in (1.0, 2.0, 3.0):
            simulator.call_later(delay, lambda: None)
        simulator.run(until=1.5)
        metrics = MetricsRegistry()
        collect_simulator(metrics, simulator)
        snapshot = metrics.snapshot()
        assert snapshot["sim_pending_events"] == simulator.pending_events == 2
        assert snapshot["sim_events_scheduled"] == simulator.events_scheduled
        assert snapshot["sim_compactions"] == simulator.compactions

    def test_collect_network_mirrors_the_link_totals(self):
        simulator = Simulator(seed=1)
        network = Network(simulator)
        for name in ("a", "b"):
            network.add_host(name)
        network.connect("a", "b", LinkConfig())
        network.host("b").bind(7, _Sink())
        for payload in (b"123", b"4567"):
            network.route(Datagram(Address("a", 1), Address("b", 7), payload))
        simulator.run()
        metrics = MetricsRegistry()
        collect_network(metrics, network)
        snapshot = metrics.snapshot()
        totals = network.total_link_statistics()
        assert {name: snapshot[f"net_{name}"] for name in totals} == totals
        assert snapshot["net_datagrams_delivered"] == 2
        assert snapshot["net_bytes_delivered"] == 7

    def test_collect_network_sums_the_bound_endpoints_malformed_drops(self):
        network = Network(Simulator(seed=1))
        for name in ("a", "b"):
            network.add_host(name)
        network.host("a").bind(1, _Sink(malformed=2))
        network.host("b").bind(1, _Sink(malformed=3))
        network.host("b").bind(2, _Sink())
        metrics = MetricsRegistry()
        collect_network(metrics, network)
        assert metrics.snapshot()["quic_datagrams_malformed"] == 5

    def test_collect_run_without_a_tree_scrapes_no_tree_gauges(self):
        network = Network(Simulator(seed=1))
        metrics = MetricsRegistry()
        collect_run(metrics, network, None)
        names = set(metrics.snapshot())
        assert names and not [name for name in names if name.startswith("relaynet_")]
        assert names == {name for name in names if name.startswith(("sim_", "net_", "quic_"))}


class _Sink:
    """A port handler that keeps nothing; ``malformed`` stands in for a QUIC
    endpoint's drop counter."""

    def __init__(self, malformed: int | None = None) -> None:
        if malformed is not None:
            self.datagrams_malformed = malformed

    def datagram_received(self, datagram) -> None:
        pass


def _small_cdn_run() -> ScenarioRun:
    """Two mid relays, four edge relays, eight subscribers, three updates."""
    run = build_scenario(Scenario(spec=RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2), seed=7))
    run.topology.attach_subscribers(8)
    run.record_deliveries()
    run.advance(1.0)
    run.push(3)
    run.advance(1.0)
    return run


@pytest.fixture(scope="module")
def cdn_run() -> ScenarioRun:
    return _small_cdn_run()


class TestRelayTreeScrape:
    """``collect_relay_tree``'s gauges against the counters they copy."""

    def test_every_tier_is_labelled_with_its_relay_count(self, cdn_run):
        snapshot = scrape(cdn_run)
        assert snapshot["relaynet_relays"] == {"tier=mid": 2, "tier=edge": 4}

    def test_uplink_bytes_per_tier_match_the_links(self, cdn_run):
        network = cdn_run.network
        expected = {
            f"tier={nodes[0].tier_name}": sum(
                network.link(node.upstream_host, node.host.address).statistics.bytes_sent
                for node in nodes
            )
            for nodes in cdn_run.topology.tiers
        }
        uplink_bytes = scrape(cdn_run)["relaynet_uplink_bytes"]
        assert uplink_bytes == expected
        assert all(value > 0 for value in uplink_bytes.values())

    def test_tier_object_counts_sum_the_relays(self, cdn_run):
        snapshot = scrape(cdn_run)
        for nodes in cdn_run.topology.tiers:
            label = f"tier={nodes[0].tier_name}"
            statistics = [node.relay.statistics for node in nodes]
            assert snapshot["relaynet_objects_received"][label] == sum(
                s.objects_received for s in statistics
            )
            assert snapshot["relaynet_objects_forwarded"][label] == sum(
                s.objects_forwarded for s in statistics
            )
        # Each edge relay forwards every update to each of its two subscribers.
        assert snapshot["relaynet_objects_forwarded"]["tier=edge"] >= 8 * 3

    def test_subscriber_gauges_sum_the_subscribers(self, cdn_run):
        snapshot = scrape(cdn_run)
        subscribers = cdn_run.topology.subscribers
        assert snapshot["relaynet_subscribers"] == len(subscribers) == 8
        assert snapshot["relaynet_subscriber_objects_delivered"] == sum(
            sub.objects_delivered for sub in subscribers
        )
        assert snapshot["relaynet_subscriber_link_bytes"] == sum(
            cdn_run.network.link(sub.leaf.host.address, sub.host.address).statistics.bytes_sent
            for sub in subscribers
        )
        assert snapshot["relaynet_subscriber_reattaches"] == 0

    def test_recovery_gauges_match_the_recovery_counters(self, cdn_run):
        snapshot = scrape(cdn_run)
        counters = cdn_run.recovery_counters()
        assert snapshot["relaynet_duplicates_dropped"] == (
            counters.relay_duplicates_dropped + counters.subscriber_duplicates_dropped
        )
        assert snapshot["relaynet_recovery_fetches"] == counters.recovery_fetches
        assert snapshot["relaynet_recovered_objects"] == counters.recovered_objects
        assert snapshot["relaynet_subscriber_gap_fetches"] == counters.subscriber_gap_fetches
        assert snapshot["relaynet_uplink_failures_detected"] == counters.uplink_failures_detected

    def test_quic_role_totals_sum_the_connections(self, cdn_run):
        snapshot = scrape(cdn_run)
        nodes = cdn_run.topology.nodes()
        by_role = {
            "role=subscriber": [sub.session.connection for sub in cdn_run.topology.subscribers],
            "role=relay-uplink": [node.relay.upstream_quic_connection for node in nodes],
            "role=relay-downstream": [
                session.connection for node in nodes for session in node.relay.downstream_sessions()
            ],
        }
        for role, connections in by_role.items():
            sent = sum(connection.statistics.bytes_sent for connection in connections)
            assert snapshot["quic_bytes_sent"][role] == sent > 0, role

    def test_the_scrape_reads_and_never_writes(self, cdn_run):
        scheduled = cdn_run.simulator.events_scheduled
        now = cdn_run.simulator.now
        first = scrape(cdn_run)
        assert scrape(cdn_run) == first
        assert cdn_run.simulator.events_scheduled == scheduled
        assert cdn_run.simulator.now == now

    def test_a_rescrape_into_one_registry_updates_every_value(self):
        run = _small_cdn_run()
        registry = MetricsRegistry()
        collect_run(registry, run.network, run.topology)
        before = registry.snapshot()
        run.push(2)
        run.advance(1.0)
        collect_run(registry, run.network, run.topology)
        after = registry.snapshot()
        assert after == scrape(run)
        assert list(after) == list(before)
        assert after["relaynet_subscriber_objects_delivered"] == (
            before["relaynet_subscriber_objects_delivered"] + 8 * 2
        )

    def test_a_scrape_mid_run_changes_nothing_after_it(self):
        scraped, plain = _small_cdn_run(), _small_cdn_run()
        scrape(scraped)
        for run in (scraped, plain):
            run.push(2)
            run.advance(1.0)
        assert scraped.received == plain.received
        assert scraped.simulator.events_scheduled == plain.simulator.events_scheduled
        assert scrape(scraped) == scrape(plain)


def benchmark_reads() -> set[str]:
    """The scraped names ``benchmarks/e2e`` reads: ``get("...")`` in
    ``layers.py::count_metrics`` and ``after["..."]`` in ``workloads.py``."""
    names = set()
    for file in ("layers.py", "workloads.py"):
        for node in ast.walk(ast.parse((BENCHMARK / file).read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "get" and node.args:
                key = node.args[0]
            elif isinstance(node, ast.Subscript):
                key = node.slice
            else:
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.add(key.value)
    return {name for name in names if name.startswith(SCRAPED)}


def test_the_scrape_emits_every_name_the_benchmark_reads():
    """``layers.py::count_metrics`` reads an absent name as 0, so a gauge the
    scrape stopped emitting would zero a per-layer metric without a word."""
    run = build_scenario(Scenario(spec=RelayTreeSpec.star(relays=2), seed=7))
    run.topology.attach_subscribers(4)
    run.record_deliveries()
    run.advance(1.0)
    run.push(2)
    run.advance(1.0)
    snapshot = scrape(run)
    reads = benchmark_reads()
    print(f"benchmark reads {len(reads)} scraped names; read as 0: {sorted(reads - set(snapshot))}")
    assert {
        "sim_events_scheduled", "sim_compactions", "net_datagrams_sent", "net_datagrams_dropped",
        "relaynet_subscriber_reattaches", "relaynet_pending_subscribe_high_water",
    } <= reads
    assert reads - set(snapshot) == READ_AS_ZERO
    roles = {"role=relay-uplink", "role=relay-downstream", "role=subscriber"}
    for field in _QUIC_EXPORT_FIELDS:
        assert set(snapshot[f"quic_{field}"]) == roles, field
    assert snapshot["quic_packets_sent"]["role=subscriber"] > 0
    assert snapshot["relaynet_subscriber_objects_delivered"] == 4 * 2


def _assert_receivers_quiesced(snapshot, still_probing=None):
    """After a run drains, no receiver holds anything back, every dedupe
    window is inside its prune threshold and no connection has a packet
    outstanding — except ``still_probing``: ``{role: packets}`` a live node
    is still re-sending to a silently crashed peer it has not given up on."""
    assert snapshot["relaynet_recovery_buffered"] == 0
    assert 0 < snapshot["relaynet_dedupe_window"] <= DEDUPE_PRUNE_THRESHOLD
    still_probing = still_probing or {}
    for role, packets in snapshot["quic_inflight_packets"].items():
        assert packets == still_probing.get(role, 0), role
    assert set(snapshot["quic_bytes_in_flight"].values()) == {0}


class TestRunsQuiesce:
    """The scrape of each driver's last run, taken as the benchmark takes it."""

    def test_e11(self, monkeypatch):
        runs = captured_runs(monkeypatch, e11)
        result = e11.run_relay_fanout(subscriber_counts=(10, 100), updates=5)
        # The E11 acceptance canaries (see ROADMAP): 20 origin objects and
        # 6560 origin-egress bytes, independent of subscriber count.
        first = result.samples[0]
        assert first.measured_origin_objects == 20
        assert first.measured_tier_bytes[0] == 6560
        snapshot = scrape(runs[-1])
        assert snapshot["relaynet_subscribers"] == 100
        assert snapshot["relaynet_subscriber_objects_delivered"] == result.samples[-1].delivered_objects
        _assert_receivers_quiesced(snapshot)

    def test_e12(self, monkeypatch):
        runs = captured_runs(monkeypatch, e12)
        result = e12.run_relay_churn(subscribers=200)
        assert result.gapless
        snapshot = scrape(runs[-1])
        assert snapshot["relaynet_subscriber_reattaches"] > 0
        _assert_receivers_quiesced(snapshot)

    def test_e13(self, monkeypatch):
        runs = captured_runs(monkeypatch, e13)
        result = e13.run_failure_detection(subscribers=200)
        # The E13 acceptance canaries: PTO-path detection at 544.277 ms and
        # idle-path detection at 1285.0 ms.
        assert round(result.samples[0].detection_latency * 1000, 3) == 544.277
        assert round(result.samples[1].detection_latency * 1000, 3) == 1285.0
        # Scraped before every connection to a crashed relay has timed out:
        # relay-mid-0 still holds its downstream connection to the silently
        # crashed relay-edge-0 open (suspect, neither idle-timed-out nor given
        # up) and keeps re-sending it the six updates pushed after the crash.
        # Every other connection, closed ones included, has nothing in flight.
        _assert_receivers_quiesced(scrape(runs[-1]), still_probing={"role=relay-downstream": 6})

    def test_e14(self, monkeypatch):
        runs = captured_runs(monkeypatch, e14)
        result = e14.run_origin_failover(subscribers=200)
        # The E14 acceptance canary: the standby is promoted 696.958 ms after
        # the active origin's silent crash.
        assert round(result.promotion_latency * 1000, 3) == 696.958
        assert result.gapless
        _assert_receivers_quiesced(scrape(runs[-1]))

    def test_e15(self, monkeypatch):
        runs = captured_runs(monkeypatch, e15)
        result = e15.run_constrained_tiers()
        # The last run is the lossy one: loss repair left nothing held back
        # or in flight.
        assert result.loss_sample.retransmissions > 0
        snapshot = scrape(runs[-1])
        assert snapshot["relaynet_subscribers"] == e15.SUBSCRIBERS
        _assert_receivers_quiesced(snapshot)
