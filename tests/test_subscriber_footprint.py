"""What one attached subscriber holds (``docs/state.md``).

Per-peer state follows the role the peer plays: a table exists once its role
is played, reads never branch on whether it does, and the in-flight ledger is
the one answer to "is this packet outstanding".  Pinned here:

* (a) what one attached, SUBSCRIBE_OK'd, idle subscriber keeps — live bytes
  and blocks per layer, the attach wave's ``tracemalloc`` peak and the census
  of GC-tracked objects by type (``docs/state.md`` rule 8, no callable of its
  own) — are rows of the exact-cost ledger (``tests/exact/``); pinned here,
  every subscriber of the measured stars is active;
* (b) structure — which containers a fresh connection / session pair owns,
  and which tables are still the shared empty one after SUBSCRIBE_OK (the
  dedupe window until the first object, the SETUP queue, the control
  parser's buffer, a stream's reorder table);
* (c) the shared empty table refuses writes (``tests/conftest.py`` checks it
  is still empty after *every* test of the suite, the hostile-close paths of
  ``tests/test_publisher_fanout.py`` included);
* (d) the ledger invariant under random send / wait / ack / ack-ranges / PTO
  / 0-RTT-reject schedules, with and without NewReno;
* (e) a closed connection keeps no ledger record, however it ended;
* (f) a moved subscriber keeps one port and one endpoint, however often it
  moved.

Source mutations, each tried when this file was written and each failing a
test: any of the six ``MoqtSession`` insert sites skipping the install of a
table of its own (``_UnusedTable`` raises in ``tests/test_moqt_session.py``); a drained
``_pending_incoming_subscribes`` kept instead of handed back, and a drained
``_peer_uni_above`` kept (b); the RTT sampled from another record than the
acknowledged one, ``sent_at`` not stored, ``wire_size`` filed from the
admission estimate or not at all, a DATAGRAM-frame record re-sent on PTO or
not filed under a controller, rejected 0-RTT records keeping their bytes, the
loss timer re-armed with nothing outstanding (d); the ledger kept, or the
controller not told, on close (e); a drained reorder table kept (b);
``_move`` not unbinding the port it left (f).  The mutants the ledger's
``subscriber.*`` rows kill are listed in ``tests/exact/collect.py``.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.relay_fanout import run_relay_fanout
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.moqt.receiver import _NOTHING_SEEN, DedupeWindow
from repro.moqt.session import _UNUSED, MoqtSession
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder
from repro.quic.congestion import NewRenoCongestionController
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.frames import (
    AckFrame,
    AckRangesFrame,
    CryptoFrame,
    HandshakeDoneFrame,
)
from repro.quic.endpoint import QuicEndpoint
from repro.quic.packet import Packet, PacketType
from repro.quic.stream import QuicStream
from repro.quic.tls import ServerHello, SessionTicket, SessionTicketStore
from repro.relaynet import RelayTreeBuilder, RelayTreeSpec

from connection_delegate import delegate_to


def _star():
    simulator = Simulator(seed=3)
    network = Network(simulator)
    publisher = build_origin(network)
    tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(
        RelayTreeSpec.star(1)
    )
    return simulator, network, publisher, tree


# ------------------------------------------------------------ (a) measured
def test_every_subscriber_of_the_measured_stars_is_active(exact_costs):
    """The ledger's stars (``tests/exact/collect.py``) price attached,
    SUBSCRIBE_OK'd subscribers: every subscription of every one is active."""
    rows, _ = exact_costs
    for scenario in ("deliver", "attach", "subscriber"):
        assert rows[f"{scenario}.active_share"] == 1.0, scenario


# --------------------------------------------------------------- (b) structure
#: Containers that may be empty on a connection / session that has done
#: nothing yet.  Each is written within the first round trip of every
#: connection (the first packet sent, the first packet received, the first
#: request queued behind SETUP), so creating them lazily would buy nothing.
MAY_BE_EMPTY = {"_unacked", "_received_ranges", "_pending_until_ready"}


def _empty_containers(instance) -> set[str]:
    return {
        name
        for name in type(instance).__slots__
        if type(getattr(instance, name, None)) in (dict, set, list)
        and not getattr(instance, name)
    }


def _bare_connection(simulator, sent, config=None, ticket_store=None, is_client=True):
    return QuicConnection(
        simulator=simulator,
        send_datagram=lambda payload, destination: sent.append(bytes(payload)),
        local_address=Address("local", 1),
        peer_address=Address("peer", 2),
        connection_id=77,
        is_client=is_client,
        config=config or ConnectionConfig(),
        ticket_store=ticket_store,
    )


class TestStateFollowsRole:
    def test_a_fresh_pair_owns_no_empty_container_outside_the_allow_list(self):
        for is_client in (True, False):
            connection = _bare_connection(Simulator(), [], is_client=is_client)
            assert _empty_containers(connection) <= MAY_BE_EMPTY
            session = MoqtSession(connection, is_client=is_client)
            assert _empty_containers(connection) | _empty_containers(session) <= MAY_BE_EMPTY
        # Nothing is lost by it: the gauges over the absent tables read zero.
        assert connection.stream_reorder_backlog == 0
        assert connection.cwnd_blocked_packets == 0
        assert connection.keepalive_deadline is None
        assert session.subscriptions() == [] and session.publisher_subscriptions() == []

    def test_tables_a_configured_role_needs_exist_from_the_start(self):
        simulator = Simulator()
        connection = _bare_connection(
            simulator,
            [],
            ConnectionConfig(
                keepalive_interval=2.0, congestion_controller=NewRenoCongestionController
            ),
        )
        assert connection.keepalive_deadline == 2.0
        assert connection._cwnd_blocked == [] and connection.cwnd_blocked_packets == 0

    def test_after_subscribe_ok_each_side_still_shares_the_other_roles_tables(self):
        simulator, _, publisher, tree = _star()
        subscribers = tree.attach_subscribers(5)
        tree.subscribe_all(TRACK)
        simulator.run(until=simulator.now + 3.0)
        # Nothing delivered yet: every receiver shares the one empty window.
        assert all(subscriber.tracks[0].seen is _NOTHING_SEEN for subscriber in subscribers)
        publisher.push(MoqtObject(group_id=2, object_id=0, payload=b"x" * 300))
        simulator.run(until=simulator.now + 1.0)
        assert all(subscriber.objects_delivered == 1 for subscriber in subscribers)
        for subscriber in subscribers:
            assert type(subscriber.tracks[0].seen) is DedupeWindow and len(subscriber.tracks[0].seen) == 1
            session = subscriber.session
            assert len(session._subscriptions) == len(session._subscriptions_by_alias) == 1
            for table in (
                session._fetches,
                session._publisher_subscriptions,
                session._pending_incoming_subscribes,
                session._pending_incoming_fetches,
            ):
                assert table is _UNUSED
            assert session.connection._peer_uni_above is None
        (leaf,) = tree.leaves()
        downstream = leaf.relay.downstream_sessions()
        assert len(downstream) == 5
        for session in [*downstream, *(subscriber.session for subscriber in subscribers)]:
            # SETUP handed the queue back; no message straddles two chunks.
            assert session._pending_until_ready == () and session._control_parser._buffer == b""
            control_stream = session.connection._stream
            assert control_stream is session._control_stream
            assert control_stream._segments is None  # it arrived in order: no reorder table
        for session in downstream:
            assert len(session._publisher_subscriptions) == 1
            for table in (
                session._subscriptions,
                session._subscriptions_by_alias,
                session._fetches,
                # Held one SUBSCRIBE for the instant the relay took to answer.
                session._pending_incoming_subscribes,
                session._pending_incoming_fetches,
            ):
                assert table is _UNUSED

    def test_a_stream_reorders_through_a_table_it_builds_and_drops(self):
        stream = QuicStream(0)
        assert stream.receive(0, b"ab", False) == (b"ab", False)
        assert stream._segments is None  # in order: no table
        assert stream.receive(4, b"ef", True) is None
        assert stream._segments == {4: b"ef"}
        assert stream.receive(2, b"cd", False) == (b"cdef", True)
        assert stream._segments is None and stream.receive_closed
        assert stream.receive(2, b"cd", False) is None  # a late copy builds nothing
        assert stream._segments is None

    def test_a_stream_arriving_out_of_order_builds_the_set_and_draining_drops_it(self):
        delivered = []
        connection = _bare_connection(Simulator(), [], is_client=False)
        connection.handshake_complete = True
        delegate_to(
            connection, on_stream_data=lambda stream_id, data, fin: delivered.append(stream_id)
        )
        first, second, third = (2 + (sequence << 2) for sequence in range(3))
        connection._on_stream_frame(int(PacketType.ONE_RTT), third, 0, b"c", True)
        assert connection.stream_reorder_backlog == 1
        connection._on_stream_frame(int(PacketType.ONE_RTT), third, 0, b"c", True)  # duplicate
        connection._on_stream_frame(int(PacketType.ONE_RTT), first, 0, b"a", True)
        assert connection.stream_reorder_backlog == 1
        connection._on_stream_frame(int(PacketType.ONE_RTT), second, 0, b"b", True)
        assert connection.stream_reorder_backlog == 0 and connection._peer_uni_above is None
        connection._on_stream_frame(int(PacketType.ONE_RTT), second, 0, b"b", True)  # late copy
        assert delivered == [third, first, second]


# ------------------------------------------------------- (c) the shared empty
class TestSharedEmptyTable:
    def test_every_way_of_writing_is_refused(self):
        with pytest.raises(TypeError):
            _UNUSED[1] = "leak"
        with pytest.raises(TypeError):
            _UNUSED.setdefault(1, "leak")
        with pytest.raises(TypeError):
            _UNUSED.update({1: "leak"})
        with pytest.raises(TypeError):
            table = _UNUSED
            table |= {1: "leak"}
        assert len(_UNUSED) == 0

    def test_reads_are_those_of_an_empty_dict(self):
        assert _UNUSED.get(1) is None and _UNUSED.pop(1, None) is None
        assert 1 not in _UNUSED and not _UNUSED and list(_UNUSED.values()) == []
        _UNUSED.clear()
        assert _UNUSED == {}

    def test_still_empty_after_an_e11_run(self):
        run_relay_fanout(subscriber_counts=(10,), updates=3)
        assert len(_UNUSED) == 0


# ------------------------------------------------------ (d) ledger invariant
SERVER_NAME = "peer"
_STEP = st.one_of(
    st.just(("stream",)),
    st.just(("control",)),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 0.01, 0.03, 0.07, 0.2, 0.6])),
    st.tuples(st.just("ack"), st.integers(min_value=-1, max_value=3)),
    st.tuples(st.just("ack_ranges"), st.integers(min_value=1, max_value=31)),
    st.tuples(st.just("server_hello"), st.booleans()),
)


class _LedgerOracle:
    """A client connection offering 0-RTT, its wire capture and an RTT model.

    Everything the connection sends is decoded again, so the oracle knows
    each packet's send instant and encoded size without asking the ledger.
    """

    def __init__(self, congestion_control: bool) -> None:
        self.simulator = Simulator()
        self.sent_at: dict[int, float] = {}
        self.wire_size: dict[int, int] = {}
        tickets = SessionTicketStore()
        tickets.put(SessionTicket(server_name=SERVER_NAME, alpn="moq-00", issued_at=0.0, ticket_id=3))
        self.connection = _bare_connection(
            self.simulator,
            self,
            ConnectionConfig(
                initial_rtt=0.05,
                idle_timeout=1e6,
                congestion_controller=NewRenoCongestionController if congestion_control else None,
            ),
            ticket_store=tickets,
        )
        self.controlled = congestion_control
        self.smoothed_rtt = 0.05
        self.peer_packet_number = 0
        self.hello_seen = False
        self.connection.start_handshake()
        assert self.connection.used_0rtt
        self.stream = self.connection.open_stream()

    def append(self, payload: bytes) -> None:
        """The connection's ``send_datagram``: file what leaves, when it leaves."""
        packet = Packet.decode(payload)
        self.sent_at[packet.packet_number] = self.simulator.now
        self.wire_size[packet.packet_number] = len(payload)

    def receive(self, packet_type: PacketType, *frames) -> None:
        self.connection.datagram_received(
            Packet(packet_type, 77, self.peer_packet_number, tuple(frames)).encode()
        )
        self.peer_packet_number += 1

    def expect_acked(self, acked: list[int]) -> None:
        for packet_number in sorted(acked):
            sample = self.simulator.now - self.sent_at[packet_number]
            self.smoothed_rtt = 0.875 * self.smoothed_rtt + 0.125 * sample

    def step(self, step: tuple) -> None:
        connection = self.connection
        if connection.closed:
            return  # enough unanswered probe timeouts in a row: given up
        outstanding = sorted(connection._unacked)
        kind = step[0]
        if kind == "stream":
            connection.send_encoded_stream(b"chunk" * 20)
        elif kind == "control":
            connection.send_stream_data(self.stream, b"control" * 3)
        elif kind == "wait":
            # Waits straddle the probe timeout (0.125 s and its backoff), so
            # PTOs fire with zero, one and several packets outstanding.
            self.simulator.run(until=self.simulator.now + step[1])
        elif kind == "ack":
            largest = max(0, (outstanding[0] if outstanding else connection._next_packet_number) + step[1])
            self.expect_acked([pn for pn in outstanding if pn <= largest])
            self.receive(PacketType.ONE_RTT, AckFrame(largest, 0))
        elif kind == "ack_ranges":
            chosen = [pn for bit, pn in enumerate(outstanding[:5]) if step[1] >> bit & 1]
            if not chosen:
                return
            self.expect_acked(chosen)
            ranges = tuple((pn, pn) for pn in chosen)
            self.receive(PacketType.ONE_RTT, AckRangesFrame(chosen[-1], 0, ranges))
        elif kind == "server_hello" and not self.hello_seen:
            # Accepting keeps the early packets in flight; rejecting requeues
            # every ZERO_RTT record and re-sends its frames as 1-RTT data.
            self.hello_seen = True
            hello = ServerHello(alpn="moq-00", accepts_early_data=step[1], new_ticket_id=9)
            self.receive(PacketType.HANDSHAKE, CryptoFrame(hello.to_bytes()), HandshakeDoneFrame())

    def check(self) -> None:
        connection = self.connection
        ledger = connection._unacked
        assert connection.unacked_packets == len(ledger)
        for packet_number, record in ledger.items():
            assert record.sent_at == self.sent_at[packet_number]
            assert record.wire_size == self.wire_size[packet_number]
        in_flight = sum(record.wire_size for record in ledger.values())
        assert connection.congestion.bytes_in_flight == (in_flight if self.controlled else 0)
        assert connection.smoothed_rtt == self.smoothed_rtt
        assert all(record.frames for record in ledger.values())
        assert connection.loss_deadline is not None or not ledger


class TestLedgerInvariant:
    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.lists(_STEP, max_size=40))
    def test_ledger_is_what_is_outstanding_and_what_the_controller_counts(
        self, congestion_control, steps
    ):
        oracle = _LedgerOracle(congestion_control)
        oracle.check()
        for step in steps:
            oracle.step(step)
            oracle.check()
        # Quiesce: acknowledge everything; nothing may stay behind.
        connection = oracle.connection
        for _ in range(20):
            if not connection.unacked_packets and not connection.cwnd_blocked_packets:
                break
            oracle.step(("ack", 10_000))
            oracle.check()
        assert connection.unacked_packets == 0
        assert connection.congestion.bytes_in_flight == 0
        # With nothing outstanding nothing is ever re-sent.
        packets = connection.statistics.packets_sent
        oracle.step(("wait", 5.0))
        assert connection.statistics.packets_sent == packets

    @pytest.mark.parametrize("congestion_control", [False, True])
    def test_a_lost_stream_frame_is_declared_lost_and_resent(self, congestion_control):
        oracle = _LedgerOracle(congestion_control)
        oracle.step(("server_hello", True))
        oracle.step(("ack", 10_000))
        connection = oracle.connection
        assert connection.unacked_packets == 0
        oracle.step(("stream",))
        oracle.check()
        assert connection.unacked_packets == 1
        assert (connection.congestion.bytes_in_flight > 0) == congestion_control
        retransmissions = connection.statistics.retransmissions
        oracle.step(("wait", 0.15))  # past the probe timeout: never acknowledged
        oracle.check()
        # The frame went out again in a new packet, filed in the ledger.
        assert connection.statistics.retransmissions > retransmissions
        assert connection.unacked_packets >= 1
        assert connection.loss_deadline is not None
        oracle.step(("ack", 10_000))
        oracle.check()
        assert connection.unacked_packets == 0
        assert connection.congestion.bytes_in_flight == 0
        assert connection.loss_deadline is None


# ------------------------------------------- (e) a dead connection keeps nothing
def _all_connections(network):
    for host in network.hosts():
        for handler in host.handlers():
            yield from getattr(handler, "connections", lambda: ())()


class TestClosedConnectionsEmptyTheLedger:
    @pytest.mark.parametrize("end", ["close", "abandon"])
    @pytest.mark.parametrize("congestion_control", [False, True])
    def test_close_and_abandon_drop_the_records_and_release_the_bytes(
        self, end, congestion_control
    ):
        connection = _bare_connection(
            Simulator(),
            [],
            ConnectionConfig(
                congestion_controller=NewRenoCongestionController if congestion_control else None
            ),
        )
        connection.handshake_complete = True
        for _ in range(3):
            connection.send_encoded_stream(b"chunk" * 20)
        assert connection.unacked_packets == 3
        getattr(connection, end)()
        assert connection.unacked_packets == 0
        assert connection.congestion.bytes_in_flight == 0

    def test_connections_of_a_crashed_relay_and_to_it_end_up_empty(self):
        # The schedule that found it: pushes in flight towards a leaf that
        # crashes silently.  Its own connections are abandoned, its parent's
        # and its subscribers' connections to it idle out or give up — and
        # every one of them used to keep its unacknowledged records (each
        # pinning a stream chunk) for as long as the endpoint listed it.
        simulator = Simulator(seed=5)
        network = Network(simulator, trace=NullTraceRecorder(simulator))
        publisher = build_origin(network)
        tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(
            RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        )
        tree.attach_subscribers(40)
        tree.subscribe_all(TRACK)
        simulator.run(until=simulator.now + 3.0)
        group = 2

        def push(count):
            nonlocal group
            for _ in range(count):
                publisher.push(MoqtObject(group_id=group, object_id=0, payload=b"x" * 300))
                group += 1
                simulator.run(until=simulator.now + 0.25)

        push(3)
        tree.crash_relay(tree.leaves()[0])
        push(8)
        simulator.run(until=simulator.now + 60.0)
        connections = list(_all_connections(network))
        closed = [connection for connection in connections if connection.closed]
        assert len(closed) >= 10  # the crashed leaf's, and those that detected it
        assert sum(connection.unacked_packets for connection in closed) == 0
        # Quiesced: the survivors have nothing outstanding either.
        assert sum(connection.unacked_packets for connection in connections) == 0


# ------------------------------------ (f) a moved subscriber keeps one endpoint
class TestMovedSubscriberReleasesItsEndpoint:
    def test_remove_relay_rounds_leave_one_port_and_one_endpoint_per_subscriber(self):
        # Every placement, spill and failover re-attach opens the new session
        # on a fresh client endpoint.  The one it left kept its port binding,
        # and through it its closed connection and session: after three
        # rounds the most ports bound on one subscriber host went 1 → 4 and
        # the live QuicEndpoints 53 → 97.
        simulator = Simulator(seed=5)
        network = Network(simulator, trace=NullTraceRecorder(simulator))
        build_origin(network)
        tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(
            RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        )
        tree.attach_subscribers(40)
        tree.subscribe_all(TRACK)
        simulator.run(until=simulator.now + 3.0)

        def ports_and_endpoints() -> tuple[int, int]:
            gc.collect()
            ports = max(len(subscriber.host.bound_ports()) for subscriber in tree.subscribers)
            return ports, sum(isinstance(obj, QuicEndpoint) for obj in gc.get_objects())

        assert ports_and_endpoints() == (1, 53)
        reattached = 0
        for _ in range(3):
            leaving = next(node for node in tree.leaves() if node.alive)
            reattached += sum(subscriber.leaf is leaving for subscriber in tree.subscribers)
            tree.remove_relay(leaving)
            simulator.run(until=simulator.now + 3.0)
            assert ports_and_endpoints() == (1, 53)
        # Each round moved the leaving leaf's subscribers, some of them twice
        # or three times, and every one of them is served again.
        assert reattached == sum(subscriber.reattach_count for subscriber in tree.subscribers)
        assert all(
            subscriber.session.ready and not subscriber.session.closed
            for subscriber in tree.subscribers
        )
