"""Tests for links, hosts and routing in the network simulator."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from repro.netsim.link import Link, LinkConfig
from repro.netsim.network import Network, NoRouteError, UnknownHostError
from repro.netsim.node import Host, HostNotAttachedError, PortInUseError
from repro.netsim.packet import Address, Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.stats import SummaryStatistics
from repro.netsim.trace import TraceRecorder
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.telemetry import MetricsRegistry
from repro.telemetry.collect import collect_network

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

class _Collector:
    """A port handler that records delivered datagrams with timestamps."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.received: list[tuple[float, Datagram]] = []

    def datagram_received(self, datagram: Datagram) -> None:
        self.received.append((self.simulator.now, datagram))


class TestLinkConfig:
    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            LinkConfig(delay=-1.0)

    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ValueError):
            LinkConfig(loss_rate=1.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            LinkConfig(bandwidth=0)


def _send(simulator: Simulator, link: Link, datagram: Datagram) -> None:
    """One datagram on ``link``: a one-entry wave."""
    Link.transmit_many(simulator, [(link, datagram)], Network(simulator))


class TestLink:
    def test_delivers_after_propagation_delay(self, simulator):
        delivered = []
        link = Link(LinkConfig(delay=0.25), lambda d: delivered.append(simulator.now))
        _send(simulator, link, _datagram(b"x" * 10))
        simulator.run()
        assert delivered == [0.25]

    def test_serialisation_delay_applies_with_bandwidth(self, simulator):
        delivered = []
        # 8000 bits at 8000 bps -> 1 second serialisation + 0.5 propagation.
        link = Link(
            LinkConfig(delay=0.5, bandwidth=8000),
            lambda d: delivered.append(simulator.now),
        )
        _send(simulator, link, _datagram(b"a" * 1000))
        simulator.run()
        assert delivered == [pytest.approx(1.5)]

    def test_fifo_serialisation_queues_back_to_back(self, simulator):
        delivered = []
        link = Link(
            LinkConfig(delay=0.0, bandwidth=8000),
            lambda d: delivered.append(simulator.now),
        )
        _send(simulator, link, _datagram(b"a" * 1000))
        _send(simulator, link, _datagram(b"b" * 1000))
        simulator.run()
        assert delivered == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_loss_drops_datagrams_and_counts_them(self, simulator):
        delivered = []
        link = Link(LinkConfig(delay=0.01, loss_rate=0.999999), lambda d: delivered.append(d))
        for _ in range(20):
            _send(simulator, link, _datagram(b"y"))
        simulator.run()
        assert delivered == []
        assert link.statistics.datagrams_dropped == 20

    def test_statistics_track_bytes(self, simulator):
        link = Link(LinkConfig(delay=0.01), lambda d: None)
        _send(simulator, link, _datagram(b"abcd"))
        simulator.run()
        assert link.statistics.bytes_sent == 4
        assert link.statistics.bytes_delivered == 4


class TestHost:
    def test_bind_and_deliver(self, simulator):
        # A host delivers through the one body every link calls: itself.
        host = Network(simulator).add_host("h1")
        collector = _Collector(simulator)
        address = host.bind(53, collector)
        assert address == Address("h1", 53)
        host(_datagram(b"q", destination=address))
        assert len(collector.received) == 1

    def test_double_bind_rejected(self, simulator):
        host = Host(simulator, "h1")
        host.bind(53, _Collector(simulator))
        with pytest.raises(PortInUseError):
            host.bind(53, _Collector(simulator))

    def test_ephemeral_ports_are_unique(self, simulator):
        host = Host(simulator, "h1")
        first = host.bind_ephemeral(_Collector(simulator))
        second = host.bind_ephemeral(_Collector(simulator))
        assert first.port != second.port

    def test_handlers_are_a_read_only_view_in_bind_order(self, simulator):
        # One port, then a second (the table turns into a dict), one unbound,
        # one bound again: delivery and the view follow the table.
        host = Network(simulator).add_host("h1")
        first, second, third = (_Collector(simulator) for _ in range(3))
        host.bind(53, first)
        assert host.handlers() == (first,)
        host.bind(443, second)
        host.bind(80, third)
        host.unbind(443)
        assert host.handlers() == (first, third) and host.bound_ports() == [53, 80]
        host.bind(443, second)
        assert host.handlers() == (first, third, second)
        host(_datagram(b"q", destination=Address("h1", 443)))
        assert len(second.received) == 1 and not first.received and not third.received

    def test_unbound_port_drops_silently(self, simulator):
        host = Network(simulator).add_host("h1")
        host(_datagram(b"q", destination=Address("h1", 9)))  # no exception

    def test_send_requires_attachment(self, simulator):
        host = Host(simulator, "h1")
        with pytest.raises(Exception):
            host.send(_datagram(b"q"))


class TestBulkTopologyHelpers:
    def test_add_hosts_names_sequentially(self, simulator):
        network = Network(simulator)
        hosts = network.add_hosts("edge", 3)
        assert [host.address for host in hosts] == ["edge-0", "edge-1", "edge-2"]
        assert network.host("edge-1") is hosts[1]
        with pytest.raises(ValueError):
            network.add_hosts("edge", -1)

    def test_connect_star_wires_every_peripheral_to_the_hub(self, simulator):
        network = Network(simulator)
        hub = network.add_host("hub")
        peripherals = network.add_hosts("leaf", 4)
        network.connect_star(hub, peripherals, LinkConfig(delay=0.005))
        for leaf in peripherals:
            assert network.has_link("hub", leaf.address)
            assert network.has_link(leaf.address, "hub")
            assert network.link("hub", leaf.address).config.delay == 0.005


class TestNetworkRouting:
    def test_direct_link_delivery_and_latency(self, simulator, two_host_network):
        network = two_host_network
        collector = _Collector(simulator)
        network.host("10.0.0.2").bind(7, collector)
        network.host("10.0.0.1").send(
            Datagram(Address("10.0.0.1", 1000), Address("10.0.0.2", 7), b"ping")
        )
        simulator.run()
        assert [time for time, _ in collector.received] == [pytest.approx(0.010)]

    def test_loopback_delivery(self, simulator):
        network = Network(simulator)
        network.add_host("solo")
        collector = _Collector(simulator)
        network.host("solo").bind(5, collector)
        network.host("solo").send(
            Datagram(Address("solo", 9), Address("solo", 5), b"self")
        )
        simulator.run()
        assert len(collector.received) == 1

    def test_multi_hop_routing_uses_shortest_delay_path(self, simulator):
        network = Network(simulator)
        for name in ("a", "b", "c"):
            network.add_host(name)
        network.connect("a", "b", LinkConfig(delay=0.01))
        network.connect("b", "c", LinkConfig(delay=0.02))
        collector = _Collector(simulator)
        network.host("c").bind(80, collector)
        network.host("a").send(Datagram(Address("a", 1), Address("c", 80), b"via-b"))
        simulator.run()
        assert [time for time, _ in collector.received] == [pytest.approx(0.03)]
        assert network.shortest_path("a", "c") == ["a", "b", "c"]

    def test_transit_hop_shares_the_link_fifo(self, simulator):
        # 1000 B at 1 Mbit/s is 8 ms on the wire: back-to-back datagrams must
        # leave the a->b hop one after the other, multi-hop or direct.
        network = Network(simulator)
        for name in ("a", "b", "c"):
            network.add_host(name)
        network.connect("a", "b", LinkConfig(delay=0.01, bandwidth=1e6))
        network.connect("b", "c", LinkConfig(delay=0.02))
        at_c, at_b = _Collector(simulator), _Collector(simulator)
        network.host("c").bind(80, at_c)
        network.host("b").bind(80, at_b)
        for destination in ("c", "c", "b"):
            network.host("a").send(
                Datagram(Address("a", 1), Address(destination, 80), bytes(1000))
            )
        simulator.run()
        assert [time for time, _ in at_c.received] == [
            pytest.approx(0.008 + 0.01 + 0.02),
            pytest.approx(0.016 + 0.01 + 0.02),
        ]
        # The link's direct traffic queues behind the transit datagrams.
        assert [time for time, _ in at_b.received] == [pytest.approx(0.024 + 0.01)]
        assert network.link("a", "b").statistics.datagrams_delivered == 3

    def test_transit_hop_is_not_a_delivery_at_the_intermediate_host(self, simulator):
        # A transit datagram reaches "b" at the same instant as a direct one.
        # b's handler on the same port never sees it and nothing is recorded
        # at b for it, and on b -> c (1000 B = 8 ms on the wire) it queues
        # ahead of what b's handler sends in reply to the direct datagram.
        network = Network(simulator, trace=TraceRecorder(simulator))
        for name in ("a", "b", "c"):
            network.add_host(name)
        network.connect("a", "b", LinkConfig(delay=0.01))
        network.connect("b", "c", LinkConfig(delay=0.02, bandwidth=1e6))

        class Reply(_Collector):
            def datagram_received(self, datagram):
                super().datagram_received(datagram)
                network.route(Datagram(Address("b", 80), Address("c", 80), bytes(1000)))

        at_b, at_c = Reply(simulator), _Collector(simulator)
        network.host("b").bind(80, at_b)
        network.host("c").bind(80, at_c)
        network.route(Datagram(Address("a", 1), Address("c", 80), bytes(1000), protocol="hops"))
        network.route(Datagram(Address("a", 1), Address("b", 80), b"direct", protocol="direct"))
        simulator.run()
        assert [datagram.payload for _, datagram in at_b.received] == [b"direct"]
        assert [(time, datagram.source) for time, datagram in at_c.received] == [
            (pytest.approx(0.01 + 0.008 + 0.02), Address("a", 1)),
            (pytest.approx(0.01 + 0.016 + 0.02), Address("b", 80)),
        ]
        delivered = [
            (event.attribute("source"), event.attribute("destination"))
            for event in network.trace.events("datagram-delivered")
        ]
        assert delivered == [("a:1", "b:80"), ("a:1", "c:80"), ("b:80", "c:80")]
        assert network.link("b", "c").statistics.datagrams_sent == 2

    def test_unknown_destination_raises(self, simulator, two_host_network):
        with pytest.raises(UnknownHostError):
            two_host_network.host("10.0.0.1").send(
                Datagram(Address("10.0.0.1", 1), Address("nowhere", 1), b"x")
            )

    def test_no_route_raises(self, simulator):
        network = Network(simulator)
        network.add_host("a")
        network.add_host("b")
        with pytest.raises(NoRouteError):
            network.shortest_path("a", "b")

    def test_duplicate_host_rejected(self, simulator):
        network = Network(simulator)
        network.add_host("a")
        with pytest.raises(ValueError):
            network.add_host("a")

    def test_total_link_statistics_aggregate(self, simulator, two_host_network):
        network = two_host_network
        collector = _Collector(simulator)
        network.host("10.0.0.2").bind(7, collector)
        network.host("10.0.0.1").send(
            Datagram(Address("10.0.0.1", 1), Address("10.0.0.2", 7), b"12345")
        )
        simulator.run()
        totals = network.total_link_statistics()
        assert totals["datagrams_delivered"] == 1
        assert totals["bytes_delivered"] == 5

    def test_trace_records_send_and_delivery(self, simulator):
        network = Network(simulator, trace=TraceRecorder(simulator))
        for host in ("10.0.0.1", "10.0.0.2"):
            network.add_host(host)
        network.connect("10.0.0.1", "10.0.0.2", LinkConfig(delay=0.010))
        collector = _Collector(simulator)
        network.host("10.0.0.2").bind(7, collector)
        network.host("10.0.0.1").send(
            Datagram(Address("10.0.0.1", 1), Address("10.0.0.2", 7), b"x", protocol="test")
        )
        simulator.run()
        assert network.trace.count("datagram-sent") == 1
        assert network.trace.count("datagram-delivered") == 1
        event = network.trace.events("datagram-sent")[0]
        assert event.attribute("protocol") == "test"


def test_datagram_recording_is_opt_in(simulator, two_host_network):
    """A default network keeps no per-datagram trace: on the DNS chain the
    recording default was the largest single allocation of a run
    (``tests/test_question_footprint.py``'s ``netsim`` row)."""
    network = two_host_network
    assert network.trace.enabled is False
    network.host("10.0.0.2").bind(7, _Collector(simulator))
    network.route(Datagram(Address("10.0.0.1", 1), Address("10.0.0.2", 7), b"x"))
    simulator.run()
    assert network.total_link_statistics()["datagrams_delivered"] == 1
    assert network.trace.count() == 0 and network.trace.kinds() == []
    metrics = MetricsRegistry()
    collect_network(metrics, network)
    snapshot = metrics.snapshot()
    assert "net_datagrams_sent" in snapshot and "trace_events" not in snapshot


class TestRouteOrder:
    """``Network.route`` probes the direct-link table first; every input must
    still take the branch the old unknown-host / loopback / link / multi-hop
    order gave it (``docs/datagram-handoff.md``)."""

    def _abc(self, simulator):
        network = Network(simulator, trace=TraceRecorder(simulator))
        for name in ("a", "b", "c"):
            network.add_host(name)
        network.connect("a", "b", LinkConfig(delay=0.01))
        network.connect("b", "c", LinkConfig(delay=0.02))
        return network

    def test_unknown_destination_raises_before_anything_is_recorded(self, simulator):
        network = self._abc(simulator)
        with pytest.raises(UnknownHostError):
            network.route(Datagram(Address("a", 1), Address("nowhere", 1), b"x"))
        assert network.trace.count() == 0
        assert simulator.pending_events == 0

    def test_loopback_is_delivered_by_the_next_event_not_synchronously(self, simulator):
        network = self._abc(simulator)
        collector = _Collector(simulator)
        network.host("a").bind(5, collector)
        simulator.run(until=0.5)
        network.route(Datagram(Address("a", 9), Address("a", 5), b"self"))
        assert collector.received == [] and simulator.pending_events == 1
        assert simulator.run() == 1
        assert [time for time, _ in collector.received] == [0.5]
        assert network.link("a", "b").statistics.datagrams_sent == 0

    def test_a_host_cannot_be_linked_to_itself(self, simulator):
        # route() reads a direct-link hit as "another host": a self-link would
        # take loopback traffic off the next-event path.
        network = self._abc(simulator)
        with pytest.raises(ValueError):
            network.connect("a", "a", LinkConfig())
        assert not network.has_link("a", "a")

    def test_trace_records_are_the_same_for_every_kind_of_route(self, simulator):
        network = self._abc(simulator)
        for host in ("a", "b", "c"):
            network.host(host).bind(80, _Collector(simulator))
        direct = Datagram(Address("a", 1), Address("b", 80), b"12", protocol="direct")
        loopback = Datagram(Address("a", 1), Address("a", 80), b"123", protocol="loop")
        multi_hop = Datagram(Address("a", 1), Address("c", 80), b"1234", protocol="hops")
        unbound = Datagram(Address("a", 1), Address("b", 81), b"12345", protocol="drop")
        for datagram in (direct, loopback, multi_hop, unbound):
            network.route(datagram)
        simulator.run()
        records = [
            (
                event.time,
                event.kind,
                event.attribute("source"),
                event.attribute("destination"),
                event.attribute("protocol"),
                event.attribute("size"),
            )
            for event in network.trace.events()
        ]
        assert records == [
            (0.0, "datagram-sent", "a:1", "b:80", "direct", 2),
            (0.0, "datagram-sent", "a:1", "a:80", "loop", 3),
            (0.0, "datagram-sent", "a:1", "c:80", "hops", 4),
            (0.0, "datagram-sent", "a:1", "b:81", "drop", 5),
            (0.0, "datagram-delivered", "a:1", "a:80", "loop", 3),
            (0.01, "datagram-delivered", "a:1", "b:80", "direct", 2),
            # Delivery to an unbound port is recorded, then dropped silently.
            (0.01, "datagram-delivered", "a:1", "b:81", "drop", 5),
            # One record at the final host; the transit hop at "b" has none.
            (0.03, "datagram-delivered", "a:1", "c:80", "hops", 4),
        ]


class TestDeliveryOwnsTheNetworksReference:
    """Once a datagram is delivered or dropped the network holds no reference
    to it: what the consumer keeps is all that keeps it alive, which is the
    state an explicit ``release()`` of the network's reference used to reach."""

    @staticmethod
    def _datagram():
        return Datagram(Address("10.0.0.1", 1), Address("10.0.0.2", 7), b"wire-bytes", "test")

    @pytest.mark.parametrize("retains", [0, 1, 2])
    @pytest.mark.parametrize("bound", [True, False])
    def test_drop_after_delivery_equals_release(self, simulator, two_host_network, retains, bound):
        network = two_host_network
        kept = []

        class Keeper:
            def datagram_received(self, datagram):
                kept.extend([datagram] * retains)

        if bound:
            network.host("10.0.0.2").bind(7, Keeper())
        datagram = self._datagram()
        network.route(datagram)
        simulator.run()
        assert len(kept) == (retains if bound else 0)  # unbound: silent drop
        assert all(entry is datagram for entry in kept)

        # A datagram that never left this test, held as often as the consumer
        # holds the delivered one, has exactly as many references.
        reference = self._datagram()
        held = [reference] * len(kept)
        assert sys.getrefcount(datagram) == sys.getrefcount(reference)
        assert datagram.payload == b"wire-bytes" and len(held) == len(kept)

    @pytest.mark.parametrize("path", ["route", "transmit_many"])
    def test_a_datagram_lost_on_the_link_is_not_kept(self, simulator, path):
        network = Network(simulator)
        network.add_host("10.0.0.1")
        network.add_host("10.0.0.2")
        network.connect("10.0.0.1", "10.0.0.2", LinkConfig(delay=0.01, loss_rate=0.999999))
        link = network.link("10.0.0.1", "10.0.0.2")
        datagram = self._datagram()
        if path == "route":
            network.route(datagram)
        else:
            Link.transmit_many(simulator, [(link, datagram)], network)
        simulator.run()
        assert link.statistics.datagrams_delivered == 0
        assert link.statistics.datagrams_dropped == 1
        reference = self._datagram()
        assert sys.getrefcount(datagram) == sys.getrefcount(reference)


class TestPlainDatagrams:
    """Every datagram is four plain fields; the stateless ``datagram_pool``
    remnant builds one and nothing in the library calls it."""

    def test_a_datagram_is_four_fields_and_nothing_else(self):
        assert Datagram.__slots__ == ("source", "destination", "payload", "protocol")
        for retired in ("retain", "release", "reply", "metadata", "size"):
            assert not hasattr(Datagram, retired), retired
        datagram = Datagram(Address("a", 1), Address("b", 2), b"x")
        assert datagram.protocol == "udp"
        assert not hasattr(datagram, "__dict__")

    def test_the_pool_remnant_builds_a_fresh_plain_datagram(self, simulator, two_host_network):
        network = two_host_network
        collector = _Collector(simulator)
        network.host("10.0.0.2").bind(7, collector)
        source, destination = Address("10.0.0.1", 1), Address("10.0.0.2", 7)
        first = network.datagram_pool.acquire(source, destination, b"one")
        second = network.datagram_pool.acquire(source, destination, b"two", "quic")
        assert type(first) is Datagram and type(second) is Datagram and first is not second
        assert (first.source, first.destination, first.payload, first.protocol) == (
            source, destination, b"one", "udp",
        )
        assert second.protocol == "quic"
        network.route(first)
        network.route(second)
        simulator.run()
        assert [datagram for _, datagram in collector.received] == [first, second]

    def test_the_pool_remnant_keeps_no_state(self, simulator):
        network = Network(simulator)
        before = dict(vars(network.datagram_pool))
        for index in range(100):
            network.datagram_pool.acquire(Address("a", 1), Address("b", 2), bytes([index]))
        assert vars(network.datagram_pool) == before == {"acquire": Datagram}

    def test_the_library_never_calls_the_pool_remnant(self):
        readers = [
            f"{path}:{node.lineno}"
            for path, node in _library_nodes()
            if isinstance(node, ast.Attribute)
            and node.attr == "datagram_pool"
            and isinstance(node.ctx, ast.Load)
        ]
        assert readers == []

    def test_no_pool_machinery_is_left_in_the_library(self):
        retired = {"DatagramPool", "_POOL_FREE_LIST_CAP", "_reclaim", "acquire_buffer",
                   "_acquire_buffer", "collect_datagram_pool", "pool_counters"}
        found = []
        for path, node in _library_nodes():
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            if name in retired:
                found.append(f"{path}:{node.lineno}: {name}")
        assert found == []


def _library_nodes():
    """Every ``ast`` node of every module under ``src/repro``, with its path."""
    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(file.read_text())):
            yield path, node


class TestEndpointAttachment:
    def test_endpoint_on_an_unattached_host_is_refused(self, simulator):
        host = Host(simulator, "lonely")
        with pytest.raises(HostNotAttachedError):
            QuicEndpoint(host)
        assert host.bound_ports() == []  # nothing half-constructed left behind

    def test_stub_network_without_a_pool_gets_plain_datagrams(self, simulator):
        class StubNetwork:
            def __init__(self):
                self.routed = []

            def route(self, datagram):
                self.routed.append(datagram)

        network = StubNetwork()
        host = Host(simulator, "stub-host")
        host.attach(network)
        endpoint = QuicEndpoint(host)
        endpoint.connect(Address("peer", 443), ConnectionConfig())
        (initial,) = network.routed
        assert type(initial) is Datagram
        assert type(initial.payload) is bytes and initial.protocol == "quic"
        assert (initial.source, initial.destination) == (endpoint.address, Address("peer", 443))


class TestTraceRecorder:
    def test_filter_and_kinds(self, simulator):
        trace = TraceRecorder(simulator)
        trace.record("a", value=1)
        trace.record("b", value=2)
        trace.record("a", value=3)
        assert trace.kinds() == ["a", "b"]
        assert len(trace.filter(lambda e: e.attribute("value", 0) >= 2)) == 2
        trace.clear()
        assert trace.count() == 0

    def test_listeners_invoked(self, simulator):
        trace = TraceRecorder(simulator)
        seen = []
        trace.subscribe(lambda event: seen.append(event.kind))
        trace.record("x")
        assert seen == ["x"]


class TestStatisticsHelpers:

    def test_summary_statistics_percentiles(self):
        stats = SummaryStatistics()
        stats.extend(range(1, 101))
        assert stats.count == 100
        assert stats.mean == pytest.approx(50.5)
        assert stats.percentile(50) == pytest.approx(50.5)
        assert stats.percentile(90) == pytest.approx(90.1)
        assert stats.minimum == 1 and stats.maximum == 100
        assert stats.median == stats.percentile(50)

    def test_summary_statistics_empty_safe(self):
        stats = SummaryStatistics()
        assert stats.mean == 0.0
        assert stats.percentile(99) == 0.0

    def test_percentile_out_of_range_rejected(self):
        stats = SummaryStatistics()
        stats.add(1.0)
        with pytest.raises(ValueError):
            stats.percentile(101)


def _datagram(payload: bytes, destination: Address | None = None) -> Datagram:
    return Datagram(
        source=Address("src", 1),
        destination=destination if destination is not None else Address("dst", 2),
        payload=payload,
    )
