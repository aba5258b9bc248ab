"""Tests pinned to the megafan overhaul (allocation-free macro-scale fan-out).

Covers the netsim layer (link-batch delivery via ``Link.transmit_many``,
network batching regions, payloads a consumer keeps), the QUIC
preassembled send path (wire identity with the ``Packet`` oracle, loss
recovery, the one-shot receive path), MoQT publishing (``publish`` golden
bytes, shared decode memos) and the simulator's event and compaction counters.

The two headline guarantees:

* a real CDN tree's deliveries, link counters, final clock and event count
  are pinned for one seed (the determinism canary below);
* a payload a consumer keeps never changes under later sends — datagram
  and object payloads are immutable ``bytes`` (hypothesis property below).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro.moqt.datastream import (
    decode_complete_datastream,
    encode_subgroup_object,
    encode_subgroup_stream_chunk,
)
from repro.moqt.errors import ProtocolViolation
from repro.moqt.messages import ControlMessage, ControlStreamParser
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.moqt.session import MoqtSession
from repro.netsim.link import Link, LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address, Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.endpoint import QuicEndpoint
from repro.quic.frames import AckFrame, CryptoFrame, HandshakeDoneFrame, StreamFrame
from repro.quic.packet import Packet, PacketType
from repro.quic.tls import ServerHello
from repro.relaynet import RelayTreeBuilder, RelayTreeSpec

from connection_delegate import delegate_to
from test_congestion import small_window_controller
from decode_counts import count_decodes
from link_reference import transmit

SRC = Address("src-host", 1000)
DST = Address("dst-host", 2000)


def _make_connection(sent, handshake_complete=True, is_client=True, config=None):
    simulator = Simulator()
    connection = QuicConnection(
        simulator=simulator,
        send_datagram=lambda payload, destination: sent.append(bytes(payload)),
        local_address=Address("client", 1),
        peer_address=Address("server", 2),
        connection_id=(3 << 48) | 424242,
        is_client=is_client,
        config=config or ConnectionConfig(),
    )
    connection.handshake_complete = handshake_complete
    return simulator, connection


def _stream_packet(connection, packet_number, stream_id, chunk, packet_type=PacketType.ONE_RTT):
    """The codec's encoding of a one-shot stream packet (the oracle)."""
    frame = StreamFrame(stream_id, 0, chunk, True)
    return Packet(packet_type, connection.connection_id, packet_number, (frame,)).encode()


# ---------------------------------------------------------------------------
# netsim: link-batch delivery
# ---------------------------------------------------------------------------
class TestTransmitMany:
    def _links(self, count, config, delivered):
        links = []
        for index in range(count):
            links.append(
                Link(
                    config,
                    lambda datagram, index=index: delivered.append((index, datagram)),
                )
            )
        return links

    def test_uniform_batch_is_one_event_with_order_preserved(self):
        simulator = Simulator()
        delivered: list[tuple[int, Datagram]] = []
        links = self._links(8, LinkConfig(delay=0.01), delivered)
        entries = [
            (link, Datagram(SRC, DST, bytes([index]))) for index, link in enumerate(links)
        ]
        before = simulator.events_scheduled
        Link.transmit_many(simulator, entries, Network(simulator))
        assert simulator.events_scheduled == before + 1  # one event for all 8
        simulator.run()
        assert [index for index, _ in delivered] == list(range(8))
        assert simulator.now == pytest.approx(0.01)
        for link in links:
            assert link.statistics.datagrams_sent == 1
            assert link.statistics.datagrams_delivered == 1

    def test_mixed_delays_get_one_event_per_delay(self):
        simulator = Simulator()
        delivered: list[tuple[int, Datagram]] = []
        fast = self._links(2, LinkConfig(delay=0.01), delivered)
        slow = self._links(2, LinkConfig(delay=0.05), delivered)
        entries = [(link, Datagram(SRC, DST, b"x")) for link in (fast + slow)]
        before = simulator.events_scheduled
        Link.transmit_many(simulator, entries, Network(simulator))
        assert simulator.events_scheduled == before + 2
        simulator.run()
        assert len(delivered) == 4

    def test_matches_sequential_transmit_behaviour(self):
        results = []
        for batched in (False, True):
            simulator = Simulator(seed=5)
            delivered = []
            links = self._links(6, LinkConfig(delay=0.02), delivered)
            entries = [
                (link, Datagram(SRC, DST, bytes([index])))
                for index, link in enumerate(links)
            ]
            if batched:
                Link.transmit_many(simulator, entries, Network(simulator))
            else:
                for link, datagram in entries:
                    transmit(simulator, link, datagram)
            simulator.run()
            results.append(
                [(index, bytes(datagram.payload), simulator.now) for index, datagram in delivered]
            )
        assert results[0] == results[1]


class TestNetworkBatching:
    def _network(self):
        simulator = Simulator()
        network = Network(simulator, trace=NullTraceRecorder(simulator))
        network.add_host("a")
        network.add_host("b")
        network.add_host("c")
        network.connect("a", "b", LinkConfig(delay=0.01))
        network.connect("a", "c", LinkConfig(delay=0.01))
        return simulator, network

    def test_batch_region_collects_and_flushes_once(self):
        simulator, network = self._network()
        before = simulator.events_scheduled
        network.begin_batch()
        network.route(Datagram(Address("a", 1), Address("b", 1), b"one"))
        network.route(Datagram(Address("a", 1), Address("c", 1), b"two"))
        assert simulator.events_scheduled == before  # nothing scheduled yet
        network.end_batch()
        assert simulator.events_scheduled == before + 1
        simulator.run()
        assert network.link("a", "b").statistics.datagrams_delivered == 1
        assert network.link("a", "c").statistics.datagrams_delivered == 1

    def test_nested_regions_flush_at_outermost_exit(self):
        simulator, network = self._network()
        network.begin_batch()
        network.begin_batch()
        network.route(Datagram(Address("a", 1), Address("b", 1), b"x"))
        network.end_batch()
        assert simulator.events_scheduled == 0
        network.end_batch()
        assert simulator.events_scheduled == 1

    def test_what_a_delivery_sends_leaves_as_one_wave(self):
        """Two packets a host sends to one peer while handling one datagram
        share one arrival event, in the order they were sent."""
        simulator, network = self._network()
        received = []

        class Echo:
            def datagram_received(self, datagram):
                for suffix in (b"-1", b"-2"):
                    network.route(Datagram(Address("b", 7), Address("a", 7), datagram.payload + suffix))

        class Collect:
            def datagram_received(self, datagram):
                received.append((simulator.now, datagram.payload))

        network.host("b").bind(7, Echo())
        network.host("a").bind(7, Collect())
        network.route(Datagram(Address("a", 7), Address("b", 7), b"ping"))
        simulator.run()
        assert simulator.events_scheduled == 2  # the ping's arrival, the replies' arrival
        assert received == [(pytest.approx(0.02), b"ping-1"), (pytest.approx(0.02), b"ping-2")]
        assert network.link("b", "a").statistics.datagrams_delivered == 2


# ---------------------------------------------------------------------------
# netsim: payloads a consumer keeps
# ---------------------------------------------------------------------------
class _KeepingEndpoint(QuicEndpoint):
    """Keeps every delivered datagram's payload beside a copy taken on delivery."""

    def datagram_received(self, datagram):
        self.kept.append((datagram.payload, bytearray(datagram.payload)))
        super().datagram_received(datagram)


@given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=10))
@settings(max_examples=25, deadline=None)
def test_kept_payloads_never_change_under_later_sends(payloads):
    """A consumer that keeps ``datagram.payload`` and a MoQT object's payload
    beyond the delivery callback, with no call to make, still sees the bytes
    it was handed after many later sends, and both are immutable ``bytes``."""
    simulator = Simulator(seed=3)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    publisher = build_origin(network)
    network.add_host("subscriber")
    network.connect(ORIGIN_HOST, "subscriber", LinkConfig(delay=0.005))
    endpoint = _KeepingEndpoint(network.host("subscriber"))
    endpoint.kept = []
    session = MoqtSession(
        endpoint.connect(Address(ORIGIN_HOST, ORIGIN_PORT), ConnectionConfig()), is_client=True
    )
    objects = []
    session.subscribe(
        TRACK, on_object=lambda obj: objects.append((obj.payload, bytearray(obj.payload)))
    )
    simulator.run(until=1.0)
    scribbles = [b"\xee" * (len(payload) + 3) for payload in payloads]
    for group, payload in enumerate(payloads + scribbles, start=2):
        publisher.push(MoqtObject(group_id=group, object_id=0, payload=payload))
        simulator.run(until=simulator.now + 0.05)
    assert [bytes(copy) for _, copy in objects] == payloads + scribbles
    assert len(endpoint.kept) > len(objects)
    for payload, copy in endpoint.kept + objects:
        assert type(payload) is bytes and payload == copy


class _RoutingLog(Network):
    """A network that remembers every datagram handed to ``route``."""

    def __init__(self, simulator):
        super().__init__(simulator, trace=NullTraceRecorder(simulator))
        self.routed = []

    def route(self, datagram):
        self.routed.append(datagram)
        super().route(datagram)


@pytest.mark.parametrize("loss_rate", [0.0, 0.2])
def test_every_send_path_routes_a_plain_datagram_of_bytes(loss_rate):
    """Handshake, control, data and ACK packets — first sends and
    retransmissions alike — each leave an endpoint as one plain
    :class:`Datagram` whose payload is the packet's immutable ``bytes``."""
    simulator = Simulator(seed=11)
    network = _RoutingLog(simulator)
    publisher = build_origin(network)
    network.add_host("subscriber")
    network.connect(ORIGIN_HOST, "subscriber", LinkConfig(delay=0.005, loss_rate=loss_rate))
    endpoint = QuicEndpoint(network.host("subscriber"))
    session = MoqtSession(
        endpoint.connect(Address(ORIGIN_HOST, ORIGIN_PORT), ConnectionConfig()), is_client=True
    )
    groups = []
    session.subscribe(TRACK, on_object=lambda obj: groups.append(obj.group_id))
    simulator.run(until=2.0)
    for group in range(2, 12):
        publisher.push(MoqtObject(group_id=group, object_id=0, payload=bytes([group]) * 40))
        simulator.run(until=simulator.now + 0.1)
    simulator.run(until=simulator.now + 5.0)
    assert sorted(set(groups)) == list(range(2, 12))

    frame_kinds = set()
    for datagram in network.routed:
        assert type(datagram) is Datagram and type(datagram.payload) is bytes
        assert datagram.protocol == "quic"
        frame_kinds.update(type(frame) for frame in Packet.decode(datagram.payload).frames)
    assert {CryptoFrame, StreamFrame, AckFrame} <= frame_kinds
    if loss_rate:
        assert network.total_link_statistics()["datagrams_dropped"] > 0


# ---------------------------------------------------------------------------
# QUIC: preassembled one-shot streams
# ---------------------------------------------------------------------------
class TestSendEncodedStream:
    def _chunk(self, alias=1):
        obj = MoqtObject(group_id=4, object_id=2, payload=b"fan-out-payload")
        return encode_subgroup_stream_chunk(alias, obj, encode_subgroup_object(obj))

    def test_wire_identical_to_packet_oracle(self):
        # Every varint the hand-assembled packet writes, on both sides of its
        # 1→2 and 2→4 byte width boundaries.  Server unidirectional stream
        # ids are 4n+3, so sequences 15/16 and 4095/4096 give 63/67 and
        # 16383/16387.
        edges = (63, 64, 16383, 16384)
        for sequence in (15, 16, 4095, 4096):
            for packet_number in edges:
                for length in edges:
                    sent = []
                    _, connection = _make_connection(sent, is_client=False)
                    connection._next_uni_sequence = sequence
                    connection._next_packet_number = packet_number
                    chunk = bytes(length)
                    stream_id = connection.send_encoded_stream(chunk)
                    assert stream_id == (sequence << 2) | 0x3
                    assert sent == [_stream_packet(connection, packet_number, stream_id, chunk)]
                    assert connection.statistics.packets_sent == 1
                    assert connection.statistics.bytes_sent == len(sent[0])
                    assert connection.stream_states == 0

    def test_queued_or_rejected_early_stream_is_resent_as_one_rtt(self):
        # Before the handshake completes the stream is either queued (no
        # ticket) or leaves as 0-RTT data; a ServerHello that rejects early
        # data requeues it.  Both end as the same ONE_RTT oracle packet.
        chunk = self._chunk()
        hello = Packet(
            PacketType.HANDSHAKE,
            0,
            0,
            (CryptoFrame(ServerHello("moq-00", False, 1).to_bytes()), HandshakeDoneFrame()),
        )
        for early in (False, True):
            sent = []
            _, connection = _make_connection(sent, handshake_complete=False)
            connection.used_0rtt = connection.early_data_accepted = early
            stream_id = connection.send_encoded_stream(chunk)
            assert stream_id == 2
            early_packets = (
                [_stream_packet(connection, 0, 2, chunk, PacketType.ZERO_RTT)] if early else []
            )
            assert sent == early_packets
            connection.datagram_received(hello.encode())
            assert connection.handshake_complete
            # The resent stream, then the ACK of the ServerHello.
            assert sent[:-1] == early_packets + [
                _stream_packet(connection, len(early_packets), 2, chunk)
            ]
            assert connection.stream_states == 0

    def test_cwnd_blocked_streams_leave_in_fifo_order(self):
        sent = []
        config = ConnectionConfig(
            congestion_controller=small_window_controller
        )
        _, connection = _make_connection(sent, config=config)
        chunks = [bytes([index]) * 1000 for index in range(5)]
        stream_ids = [connection.send_encoded_stream(chunk) for chunk in chunks]
        assert stream_ids == [2, 6, 10, 14, 18]  # allocated at call time
        assert len(sent) == 2 and connection.cwnd_blocked_packets == 3
        ack = Packet(PacketType.ONE_RTT, connection.connection_id, 0, (AckFrame(largest=1),))
        connection.datagram_received(ack.encode())
        assert connection.cwnd_blocked_packets == 0
        assert sent == [
            _stream_packet(connection, number, stream_id, chunk)
            for number, (stream_id, chunk) in enumerate(zip(stream_ids, chunks))
        ]

    def test_unacked_packet_is_retransmitted_with_identical_frames(self):
        chunk = self._chunk()
        sent = []
        simulator, connection = _make_connection(sent)
        connection.send_encoded_stream(chunk)
        first = Packet.decode(sent[0])
        simulator.run(until=connection.probe_timeout + 0.001)
        assert connection.statistics.retransmissions == 1
        retransmitted = Packet.decode(sent[1])
        assert retransmitted.packet_number > first.packet_number
        assert retransmitted.frames == first.frames
        assert retransmitted.packet_type is PacketType.ONE_RTT

    def test_falls_back_to_general_path_before_handshake(self):
        sent = []
        _, connection = _make_connection(sent, handshake_complete=False)
        connection.used_0rtt = True
        connection.early_data_accepted = True
        connection.send_encoded_stream(self._chunk())
        packet = Packet.decode(sent[-1])
        assert packet.packet_type is PacketType.ZERO_RTT


class TestOneShotReceivePath:
    def test_complete_uni_stream_needs_no_stream_state(self):
        sent = []
        received = []
        _, sender = _make_connection(sent)
        _, receiver = _make_connection([], is_client=False)
        receiver.handshake_complete = True
        delegate_to(
            receiver,
            on_stream_data=lambda sid, data, fin: received.append((sid, bytes(data), fin)),
        )
        sender.send_encoded_stream(b"stream-payload")
        receiver.datagram_received(sent[0])
        assert received == [(2, b"stream-payload", True)]
        assert receiver.stream_states == 0  # no QuicStream materialised

    def test_retransmitted_duplicate_is_suppressed(self):
        sent = []
        received = []
        simulator, sender = _make_connection(sent)
        _, receiver = _make_connection([], is_client=False)
        receiver.handshake_complete = True
        delegate_to(receiver, on_stream_data=lambda sid, data, fin: received.append(bytes(data)))
        sender.send_encoded_stream(b"once-only")
        simulator.run(until=sender.probe_timeout + 0.001)  # force a retransmit
        assert len(sent) == 2
        for payload in sent:
            receiver.datagram_received(payload)
        assert received == [b"once-only"]

    def test_held_back_and_retransmitted_streams_arrive_whole(self):
        # The window's FIFO and the PTO resend carry each stream as it was
        # queued, one offset-0 FIN frame: the receiver completes every one
        # without stream state and has nothing to refuse.
        sent = []
        config = ConnectionConfig(
            congestion_controller=small_window_controller
        )
        simulator, sender = _make_connection(sent, config=config)
        received = []
        _, receiver = _make_connection([], is_client=False)
        delegate_to(
            receiver, on_stream_data=lambda sid, data, fin: received.append((sid, data, fin))
        )
        chunks = [bytes([index]) * 1000 for index in range(5)]
        stream_ids = [sender.send_encoded_stream(chunk) for chunk in chunks]
        assert sender.cwnd_blocked_packets == 3
        ack = Packet(PacketType.ONE_RTT, sender.connection_id, 0, (AckFrame(largest=1),))
        sender.datagram_received(ack.encode())  # releases the three held back
        simulator.run(until=simulator.now + 3 * sender.probe_timeout)
        assert sender.statistics.retransmissions > 0
        for payload in sent:
            receiver.datagram_received(payload)
        assert received == [(sid, chunk, True) for sid, chunk in zip(stream_ids, chunks)]
        assert not receiver.closed and receiver.stream_states == 0


# ---------------------------------------------------------------------------
# MoQT: publish and shared decode memos
# ---------------------------------------------------------------------------
class TestPublishWire:
    def _session_pair(self):
        """A publisher-side session whose connection records what it sends."""
        from repro.moqt.session import MoqtSession, PublisherSubscription

        sent = []
        _, connection = _make_connection(sent, is_client=False)
        session = MoqtSession(connection, is_client=False)
        subscription = PublisherSubscription(request_id=1, track_alias=7, full_track_name=TRACK)
        return session, subscription, sent

    def test_golden_bytes(self):
        obj = MoqtObject(group_id=3, object_id=1, payload=b"record-update")
        session, subscription, sent = self._session_pair()
        encoded = {}
        session.publish(subscription, obj, encoded)
        session.publish(subscription, obj)  # no memo: same payload bytes
        assert sent[0].hex() == (
            "03" "c003000000067932" "00" "1b"  # ONE_RTT, cid, pn 0, 27 bytes of frames
            "08" "03" "00" "01" "16"  # STREAM id 3, offset 0, fin, 22 bytes
            "04" "07" "03" "00" "80"  # subgroup header: alias 7, group 3, subgroup 0, priority
            "01" "00" "0d" + b"record-update".hex() + "00"  # object 1, no extensions, status
        )
        assert sent[1] == _stream_packet(session.connection, 1, 7, encoded[7])
        assert encoded == {7: encode_subgroup_stream_chunk(7, obj)}
        assert session.statistics.objects_sent == subscription.objects_sent == 2

    def test_respects_forward_flag(self):
        obj = MoqtObject(group_id=3, object_id=1, payload=b"x")
        session, subscription, sent = self._session_pair()
        subscription.forward = False
        session.publish(subscription, obj, {})
        assert sent == []
        assert session.statistics.objects_sent == 0


def _decoded_per_session(monkeypatch, run) -> list[tuple[MoqtSession, object]]:
    """``(session, value)`` for every control message a session handled and
    every subscribed object it delivered while ``run()`` ran."""
    seen = []
    for name in ("_handle_control_message", "_deliver_subscribed_object"):
        handler = getattr(MoqtSession, name)

        def recording(session, *args, handler=handler):
            seen.append((session, args[-1]))
            return handler(session, *args)

        monkeypatch.setattr(MoqtSession, name, recording)
    run()
    monkeypatch.undo()
    return seen


class TestDecodeMemos:
    """Every session decodes through its simulation's memo (``Simulator.memos``)."""

    def test_sessions_of_one_simulation_share_one_decode(self, monkeypatch):
        instances: dict[object, set[int]] = {}
        sessions: dict[object, set[int]] = {}
        for session, value in _decoded_per_session(monkeypatch, _run_canary_tree):
            instances.setdefault(value, set()).add(id(value))
            sessions.setdefault(value, set()).add(id(session))
        shared = [value for value in instances if len(sessions[value]) > 1]
        assert any(isinstance(value, MoqtObject) for value in shared)
        assert any(isinstance(value, ControlMessage) for value in shared)
        assert all(len(instances[value]) == 1 for value in shared)

    def test_two_simulations_do_not_share_decodes(self, monkeypatch):
        first, second = (
            {value: value for _, value in _decoded_per_session(monkeypatch, _run_canary_tree)}
            for _ in range(2)
        )
        assert first.keys() == second.keys()
        assert all(second[value] is not decoded for value, decoded in first.items())

    def test_a_simulation_decodes_the_same_whatever_ran_before_it(self, monkeypatch):
        """The run-order check: the canary tree (A), another tree (B), A
        again, in one process.  A parses the same bytes both times."""
        counts = count_decodes(monkeypatch)
        runs = []
        for run in (_run_canary_tree, lambda: _run_canary_tree(subscribers=3), _run_canary_tree):
            counts.clear()
            run()
            runs.append(dict(counts))
        print(f"\ndecodes per run (canary A, 3-subscriber tree B, canary A): {runs}")
        assert runs[0] == runs[2] == {"control": 4, "stream": 4}

    def test_truncated_stream_yields_no_header(self):
        with pytest.raises(ProtocolViolation):
            decode_complete_datastream(b"")

    def test_a_memo_hit_cannot_be_mutated(self):
        """Every session gets the same decoded instance for the same bytes, so
        no field of it, however deep, may change under another session."""
        from repro.moqt.messages import ClientSetup, decode_control_message
        from repro.moqt.parameters import Parameter, Parameters

        wire = ClientSetup(parameters=Parameters((Parameter(0x1, b"/dns"),))).encode()
        decoded = Simulator().memos["moqt.control"]
        (first,) = ControlStreamParser(decoded).feed(wire)
        (second,) = ControlStreamParser(decoded).feed(bytes(wire))
        assert second is first
        for target, name in ((first, "parameters"), (first.parameters, "entries")):
            with pytest.raises(FrozenInstanceError):
                setattr(target, name, ())
        assert type(first.parameters.entries) is tuple and not hasattr(first.parameters, "add")
        assert decode_control_message(wire)[0].parameters.get(0x1).value == b"/dns"


# ---------------------------------------------------------------------------
# determinism canary: a CDN tree pinned for one seed
# ---------------------------------------------------------------------------
def _run_canary_tree(subscribers: int = 25):
    simulator = Simulator(seed=11)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    publisher = build_origin(network)
    tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(
        RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
    )
    tree.attach_subscribers(subscribers)
    sequences: dict[int, list[tuple[int, int]]] = {index: [] for index in range(subscribers)}
    tree.subscribe_all(
        TRACK,
        on_object=lambda subscriber, obj: sequences[subscriber.index].append(
            (obj.group_id, obj.object_id)
        ),
    )
    simulator.run(until=simulator.now + 3.0)
    for update in range(4):
        publisher.push(
            MoqtObject(group_id=update + 2, object_id=0, payload=b"canary" * 20)
        )
        simulator.run(until=simulator.now + 0.25)
    simulator.run(until=simulator.now + 3.0)
    return sequences, network.total_link_statistics(), simulator.now, simulator.events_scheduled


class TestDeliveryDeterminismCanary:
    def test_canary_tree_is_pinned(self):
        """Every subscriber gets every update in order, over the same bytes on
        every link, in the same virtual time and the same number of heap
        events as when a per-datagram send ran beside the link wave (411
        events: its per-datagram mode scheduled 984)."""
        sequences, link_totals, now, events = _run_canary_tree()
        assert sequences == {index: [(2, 0), (3, 0), (4, 0), (5, 0)] for index in range(25)}
        assert link_totals == {
            "datagrams_sent": 620,
            "datagrams_delivered": 620,
            "datagrams_dropped": 0,
            "bytes_sent": 28752,
            "bytes_delivered": 28752,
        }
        assert now == 7.0
        assert events == 411


# ---------------------------------------------------------------------------
# simulator counters
# ---------------------------------------------------------------------------
class TestSimulatorCounters:
    def test_events_scheduled_counts_every_call_at(self):
        simulator = Simulator()
        assert simulator.events_scheduled == 0
        simulator.call_later(0.1, lambda: None)
        simulator.call_soon(lambda: None)
        assert simulator.events_scheduled == 2
        simulator.run()
        assert simulator.events_scheduled == 2  # running does not schedule

    def test_compactions_counter_tracks_heap_rebuilds(self):
        simulator = Simulator()
        events = [simulator.call_later(1.0, lambda: None) for _ in range(200)]
        assert simulator.compactions == 0
        for event in events[:150]:
            event.cancel()
        assert simulator.compactions >= 1
