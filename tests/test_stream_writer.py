"""The control leg's writers against the ``Packet`` codec (``docs/quic-send.md`` § The control leg).

``QuicConnection._send_stream`` hand-assembles "one STREAM frame in one
ONE_RTT packet" for control-stream writes and one-shot data streams alike;
``_send_packet`` encodes everything else (CRYPTO, PING, the pre-handshake
queue, 0-RTT, the congestion-window flush, PTO retransmissions,
CONNECTION_CLOSE) without building a ``Packet``.  ``Packet.encode`` is on
neither path, which makes it the oracle here:

* a hypothesis differential over drawn ``(cid, pn, stream_id, offset, data,
  fin)`` with the 1/2/4/8-byte varint boundaries over-sampled, and one over
  drawn frame lists for the generic writer;
* one batch of control messages down each route a STREAM frame can take —
  direct, queued before the handshake, 0-RTT accepted, 0-RTT rejected and
  requeued, held by the congestion window then flushed (NewReno), lost then
  PTO-retransmitted — arriving once, in order, every datagram byte-identical
  to the codec's encoding of what it decodes to.

Mutation list — each guard below was removed from ``src/`` in turn and this
file, ``test_moqt_wire.py``, ``test_megafan.py``, ``test_quic_connection.py``
and ``test_datagram_handoff.py`` run against it (PR 23); every mutant dies, and
these are the tests of this file (or, where named, another) that kill it:

* ``_send_stream`` without the ``not handshake_complete`` branch —
  ``test_route[queued]``, ``[zero_rtt_accepted]``, ``[zero_rtt_rejected]``;
* ``_send_stream`` without the congestion-window gate — ``test_route[cwnd_blocked]``,
  ``test_congestion_gate_is_asked_about_the_exact_wire_size``; the gate's size
  off by one — the latter;
* ``_send_stream`` writes the fin byte as a constant 1, or the offset always
  as one byte — ``test_stream_writer_matches_the_codec``,
  ``test_send_stream_data_frames_each_write_at_the_stream_offset``,
  ``test_route[direct]``, ``[cwnd_blocked]``, ``[lost]``;
* an inline varint width ``< 16384`` becomes ``<= 16384`` (stream id, offset
  or length) — ``test_stream_writer_matches_the_codec``;
* the ledger record forgets ``offset`` or ``fin`` (``frames`` replays 0 /
  ``True``) — ``test_stream_writer_matches_the_codec``, ``test_route[lost]``;
* ``_send_packet`` appends the header after the frames —
  ``test_generic_writer_matches_the_codec`` and every route;
* ``_send_packet`` files a ledger record for the ``final`` packet —
  ``test_connection_close_files_no_record_and_arms_no_timer``;
* ``_send_packet`` files no record for a packet that is not ``final`` —
  ``test_generic_writer_matches_the_codec`` (and the liveness / 0-RTT tests of
  ``test_quic_connection.py``);
* ``send_stream_data`` or ``send_encoded_stream`` without the ``closed``
  guard — ``test_no_send_puts_a_packet_on_the_wire_after_close``;
* ``ControlMessage.encode`` does not patch the length in —
  ``test_moqt_wire.py::TestGoldenControlMessages`` (all 24 images);
* ``decode_control_message`` assumes a one-byte type —
  ``test_moqt_wire.py::TestGoldenControlMessages`` (the four SETUP images);
* ``ControlStreamParser.feed`` drops an incomplete tail —
  ``test_parser_holds_over_only_an_incomplete_tail``,
  ``test_any_fragmentation_yields_the_same_messages``.

(A chunk that fails to decode is no longer kept by the parser: the session
closes with ``PROTOCOL_VIOLATION`` and the parser is not fed again, and
``test_moqt_hostile.py`` holds the mutants of that path.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.memo import Memo
from repro.moqt.messages import (
    ControlStreamParser,
    Fetch,
    FetchType,
    Goaway,
    Subscribe,
    SubscribeOk,
    Unsubscribe,
)
from repro.moqt.track import FullTrackName
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.congestion import NewRenoCongestionController
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.errors import QuicConnectionError
from repro.quic.frames import (
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    PingFrame,
    StreamFrame,
)
from repro.quic.packet import Packet, PacketType
from repro.quic.tls import ServerTlsContext, SessionTicket, SessionTicketStore

from connection_delegate import delegate_to
from test_congestion import small_window_controller

#: Both sides of every varint width boundary, plus the extremes.
_EDGES = (0, 1, 63, 64, 16383, 16384, (1 << 30) - 1, 1 << 30, (1 << 62) - 1)
varints = st.one_of(st.sampled_from(_EDGES), st.integers(min_value=0, max_value=(1 << 62) - 1))
#: Data lengths on both sides of the one- and two-byte length boundaries.
payloads = st.one_of(
    st.sampled_from((0, 1, 63, 64, 16383, 16384)).map(bytes),
    st.binary(max_size=200),
)


def _connection(sent, connection_id=77, *, config=None, simulator=None):
    connection = QuicConnection(
        simulator=simulator or Simulator(),
        send_datagram=lambda payload, destination: sent.append(payload),
        local_address=Address("local", 1),
        peer_address=Address("peer", 2),
        connection_id=connection_id,
        is_client=True,
        config=config or ConnectionConfig(),
    )
    connection.handshake_complete = True
    return connection


class _RecordingNewReno(NewRenoCongestionController):
    def __init__(self) -> None:
        super().__init__()
        self.sent: list[tuple[int, int]] = []

    def on_packet_sent(self, packet_number: int, size: int) -> None:
        self.sent.append((packet_number, size))
        super().on_packet_sent(packet_number, size)


# ------------------------------------------------------------- the differential
class TestWriterDifferential:
    @settings(max_examples=300, deadline=None)
    @given(varints, varints, varints, varints, payloads, st.booleans())
    def test_stream_writer_matches_the_codec(
        self, connection_id, packet_number, stream_id, offset, data, fin
    ):
        sent: list[bytes] = []
        connection = _connection(sent, connection_id)
        connection._next_packet_number = packet_number
        connection._send_stream(stream_id, offset, data, fin)
        frame = StreamFrame(stream_id, offset, data, fin)
        assert sent == [Packet(PacketType.ONE_RTT, connection_id, packet_number, (frame,)).encode()]
        assert type(sent[0]) is bytes  # each packet leaves as one immutable bytes
        # The ledger record replays exactly that frame, and knows its size.
        (record,) = connection._unacked.values()
        assert record.frames == (frame,) and record.packet_type is PacketType.ONE_RTT
        assert record.wire_size == len(sent[0]) == connection.statistics.bytes_sent

    @settings(max_examples=100, deadline=None)
    @given(varints, varints, st.integers(min_value=0, max_value=1 << 40), payloads)
    def test_send_stream_data_frames_each_write_at_the_stream_offset(
        self, connection_id, packet_number, offset, data
    ):
        sent: list[bytes] = []
        connection = _connection(sent, connection_id)
        connection._next_packet_number = packet_number
        stream = connection.open_stream()
        stream._send_offset = offset
        connection.send_stream_data(stream, data)
        frame = StreamFrame(stream.stream_id, offset, data, False)
        assert sent == [Packet(PacketType.ONE_RTT, connection_id, packet_number, (frame,)).encode()]

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(PacketType)),
        varints,
        varints,
        st.lists(
            st.one_of(
                st.builds(CryptoFrame, st.binary(max_size=80)),
                st.just(PingFrame()),
                st.just(HandshakeDoneFrame()),
                st.builds(StreamFrame, varints, varints, payloads, st.booleans()),
                st.builds(ConnectionCloseFrame, varints, st.text(max_size=20)),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_generic_writer_matches_the_codec(self, packet_type, connection_id, packet_number, frames):
        sent: list[bytes] = []
        connection = _connection(sent, connection_id)
        connection._next_packet_number = packet_number
        connection._send_packet(packet_type, frames)
        assert sent == [Packet(packet_type, connection_id, packet_number, tuple(frames)).encode()]
        assert type(sent[0]) is bytes
        (record,) = connection._unacked.values()
        assert tuple(record.frames) == tuple(frames) and record.packet_type is packet_type
        assert record.wire_size == len(sent[0])

    @settings(max_examples=100, deadline=None)
    @given(varints, varints, varints, varints, payloads)
    def test_congestion_gate_is_asked_about_the_exact_wire_size(
        self, connection_id, packet_number, stream_id, offset, data
    ):
        asked: list[int] = []

        class Controller(_RecordingNewReno):
            def can_send(self, size: int) -> bool:
                asked.append(size)
                return True

        sent: list[bytes] = []
        config = ConnectionConfig(congestion_controller=Controller)
        connection = _connection(sent, connection_id, config=config)
        connection._next_packet_number = packet_number
        connection._send_stream(stream_id, offset, data, False)
        assert asked == [len(sent[0])] and connection.congestion.sent == [(packet_number, asked[0])]


# ------------------------------------------------------------ close and closed
class TestCloseAndClosed:
    @pytest.mark.parametrize("controller", [None, _RecordingNewReno])
    @pytest.mark.parametrize("handshake_complete", [True, False])
    def test_connection_close_files_no_record_and_arms_no_timer(
        self, controller, handshake_complete
    ):
        # CONNECTION_CLOSE goes through the generic writer but is nobody's to
        # repair or to count: a loss timer armed for it would consume a heap
        # sequence number and shift every seeded same-instant tie after it.
        simulator = Simulator()
        sent: list[bytes] = []
        config = ConnectionConfig(congestion_controller=controller)
        connection = _connection(sent, 300, config=config, simulator=simulator)
        connection.handshake_complete = handshake_complete
        connection._next_packet_number = 9
        scheduled = simulator.events_scheduled
        connection.close(reason="bye ✓")
        packet_type = PacketType.ONE_RTT if handshake_complete else PacketType.INITIAL
        assert sent == [
            Packet(packet_type, 300, 9, (ConnectionCloseFrame(0, "bye ✓"),)).encode()
        ]
        assert simulator.events_scheduled == scheduled
        assert connection.unacked_packets == 0 and connection.loss_deadline is None
        if controller is not None:
            assert connection.congestion.sent == [] and connection.congestion.bytes_in_flight == 0
        assert connection.statistics.packets_sent == 1
        assert connection.statistics.bytes_sent == len(sent[0])

    @pytest.mark.parametrize("end", ["close", "abandon"])
    def test_no_send_puts_a_packet_on_the_wire_after_close(self, end):
        sent: list[bytes] = []
        connection = _connection(sent)
        stream = connection.open_stream()
        getattr(connection, end)()
        on_the_wire = len(sent)
        before = (connection.statistics.packets_sent, connection.statistics.bytes_sent)
        for send in (
            lambda: connection.send_stream_data(stream, b"late"),
            lambda: connection.send_encoded_stream(b"late"),
        ):
            with pytest.raises(QuicConnectionError):
                send()
        assert len(sent) == on_the_wire
        assert before == (connection.statistics.packets_sent, connection.statistics.bytes_sent)


# -------------------------------------------------------------------- the routes
CONNECTION_ID = 300
PIPE_DELAY = 0.01
SERVER_NAME = "server"
TRACK = FullTrackName.of(["dns", "q"], b"\x03www\x07example\x03com\x00")

#: A batch of real control messages; the GOAWAY is long enough that two of
#: them fill NewReno's two-packet initial window.
MESSAGES = (
    Subscribe(request_id=0, track_alias=1, full_track_name=TRACK),
    Fetch(request_id=2, fetch_type=FetchType.RELATIVE_JOINING, joining_request_id=0, joining_start=1),
    Goaway("moqt://elsewhere/" + "x" * 1100),
    Unsubscribe(request_id=0),
    SubscribeOk(request_id=1, content_exists=True, largest_group_id=70_000),
)
WIRES = tuple(message.encode() for message in MESSAGES)


class _Pair:
    """A client and a server connection joined by a fixed-delay FIFO pipe.

    Every datagram either side puts on the wire is recorded; ``drop`` holds
    the ordinals (among client -> server datagrams) the pipe loses.
    """

    def __init__(self, *, ticket=False, accept_early_data=True, controller=None, drop=()):
        self.simulator = Simulator(seed=1)
        self.to_server: list[bytes] = []
        self.to_client: list[bytes] = []
        self.drop = set(drop)
        self.delivered: list[tuple[int, bytes, bool]] = []
        self.written: list[bytes] = []
        store = SessionTicketStore()
        if ticket:
            store.put(SessionTicket(SERVER_NAME, "moq-00", issued_at=0.0, ticket_id=5))
        self.client = self._side(
            is_client=True,
            config=ConnectionConfig(initial_rtt=4 * PIPE_DELAY, congestion_controller=controller),
            ticket_store=store,
        )
        self.server = self._side(
            is_client=False,
            config=ConnectionConfig(initial_rtt=4 * PIPE_DELAY),
            server_tls=ServerTlsContext(("moq-00",), accept_early_data=accept_early_data),
        )
        delegate_to(
            self.server,
            on_stream_data=lambda stream_id, data, fin: self.delivered.append(
                (stream_id, data, fin)
            ),
        )
        self.stream = self.client.open_stream()

    def _side(self, *, is_client, **kwargs):
        log = self.to_server if is_client else self.to_client

        def send(payload, destination):
            ordinal = len(log)
            log.append(bytes(payload))
            if is_client and ordinal in self.drop:
                return
            receiver = self.server if is_client else self.client
            self.simulator.call_later(PIPE_DELAY, receiver.datagram_received, log[ordinal])

        return QuicConnection(
            simulator=self.simulator,
            send_datagram=send,
            local_address=Address("client" if is_client else SERVER_NAME, 1),
            peer_address=Address(SERVER_NAME if is_client else "client", 1),
            connection_id=CONNECTION_ID,
            is_client=is_client,
            server_name=SERVER_NAME,
            **kwargs,
        )

    def send(self, wires=WIRES):
        for wire in wires:
            self.client.send_stream_data(self.stream, wire)
            self.written.append(wire)

    def run(self, seconds=2.0):
        self.simulator.run(until=self.simulator.now + seconds)

    def stream_packets(self):
        """Client -> server packets that carry a STREAM frame, as the codec
        decodes them: ``(packet type, packet number, frames)``."""
        packets = [Packet.decode(wire) for wire in self.to_server]
        return [
            (packet.packet_type, packet.packet_number, packet.frames)
            for packet in packets
            if any(isinstance(frame, StreamFrame) for frame in packet.frames)
        ]


def _frames(wires=WIRES, start=0):
    """The STREAM frames the control stream (id 0) cuts ``wires`` into."""
    frames, offset = [], start
    for wire in wires:
        frames.append(StreamFrame(0, offset, wire, False))
        offset += len(wire)
    return frames


def _direct(pair):
    pair.client.start_handshake()
    pair.run()
    first = pair.client._next_packet_number
    pair.send()
    pair.run()
    # One hand-assembled packet per message.
    return [(PacketType.ONE_RTT, first + index, (frame,)) for index, frame in enumerate(_frames())]


def _queued(pair):
    pair.send()  # before the first flight: nothing may leave yet
    assert pair.to_server == []
    pair.client.start_handshake()
    pair.run()
    # The whole queue leaves in one packet once the ServerHello lands.
    return [(PacketType.ONE_RTT, 1, tuple(_frames()))]


def _zero_rtt_accepted(pair):
    pair.client.start_handshake()
    pair.send()
    pair.run()
    assert pair.client.early_data_accepted and pair.client.handshake_rtts == 0.0
    return [(PacketType.ZERO_RTT, 1 + index, (frame,)) for index, frame in enumerate(_frames())]


def _zero_rtt_rejected(pair):
    pair.client.start_handshake()
    pair.send()
    pair.run()
    assert not pair.client.early_data_accepted
    early = [(PacketType.ZERO_RTT, 1 + index, (frame,)) for index, frame in enumerate(_frames())]
    # The server drops the early packets; the client requeues their frames
    # and re-sends them as one 1-RTT packet.
    return early + [(PacketType.ONE_RTT, 1 + len(WIRES), tuple(_frames()))]


def _cwnd_blocked(pair):
    pair.client.start_handshake()
    pair.run()
    first = pair.client._next_packet_number
    wires = (WIRES[2], WIRES[2], WIRES[2], *WIRES)  # two fill the window, the third blocks the rest
    pair.send(wires)
    assert pair.client.cwnd_blocked_packets == len(wires) - 2
    pair.run()
    assert pair.client.cwnd_blocked_packets == 0
    # Two leave through the stream writer, the rest through the flush — the
    # same bytes, in FIFO order.
    return [
        (PacketType.ONE_RTT, first + index, (frame,)) for index, frame in enumerate(_frames(wires))
    ]


def _lost(pair):
    pair.client.start_handshake()
    pair.run()
    first = pair.client._next_packet_number
    pair.drop.add(len(pair.to_server) + 1)  # the second message's packet
    pair.send()
    pair.run()
    assert pair.client.statistics.retransmissions == 1
    frames = _frames()
    sent = [(PacketType.ONE_RTT, first + index, (frame,)) for index, frame in enumerate(frames)]
    return sent + [(PacketType.ONE_RTT, first + len(frames), (frames[1],))]


ROUTES = {
    "direct": (_direct, {}),
    "queued": (_queued, {}),
    "zero_rtt_accepted": (_zero_rtt_accepted, {"ticket": True}),
    "zero_rtt_rejected": (_zero_rtt_rejected, {"ticket": True, "accept_early_data": False}),
    "cwnd_blocked": (
        _cwnd_blocked,
        {"controller": small_window_controller},
    ),
    "lost": (_lost, {}),
}


@pytest.mark.parametrize("route", ROUTES)
def test_route(route):
    drive, options = ROUTES[route]
    pair = _Pair(**options)
    expected = drive(pair)
    # What left carrying a STREAM frame is exactly the predicted packets ...
    assert pair.stream_packets() == expected
    # ... every datagram, either way, is byte for byte the codec's encoding ...
    for wire in (*pair.to_server, *pair.to_client):
        assert Packet.decode(wire).encode() == wire
    # ... and the control stream arrives once, in order, nothing left in flight.
    assert {stream_id for stream_id, _, _ in pair.delivered} == {0}
    assert b"".join(data for _, data, _ in pair.delivered) == b"".join(pair.written)
    parser = ControlStreamParser(Memo())
    decoded = [message for _, data, _ in pair.delivered for message in parser.feed(data)]
    assert [message.encode() for message in decoded] == pair.written
    assert pair.client.unacked_packets == 0 and pair.server.unacked_packets == 0


# ----------------------------------------------------------- the stream parser
class TestControlStreamParser:
    def test_whole_chunks_are_parsed_where_they_lie(self):
        parser = ControlStreamParser(Memo())
        assert [m.encode() for m in parser.feed(b"".join(WIRES))] == list(WIRES)
        assert parser._buffer == b""

    @pytest.mark.parametrize("cut", [1, 2, 3, 10, len(WIRES[0]) - 1])
    def test_parser_holds_over_only_an_incomplete_tail(self, cut):
        parser = ControlStreamParser(Memo())
        first = parser.feed(WIRES[3] + WIRES[0][:cut])
        assert [m.encode() for m in first] == [WIRES[3]]
        assert parser._buffer == WIRES[0][:cut]
        second = parser.feed(WIRES[0][cut:] + WIRES[1])
        assert [m.encode() for m in second] == [WIRES[0], WIRES[1]]
        assert parser._buffer == b""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=40), max_size=30))
    def test_any_fragmentation_yields_the_same_messages(self, sizes):
        stream = b"".join(WIRES[:2] + WIRES[3:])
        parser = ControlStreamParser(Memo())
        messages, offset = [], 0
        for size in sizes:
            messages += parser.feed(stream[offset: offset + size])
            offset += size
        messages += parser.feed(stream[offset:])
        assert [m.encode() for m in messages] == list(WIRES[:2] + WIRES[3:])
