"""The QUIC receive loop against its oracle, and against hostile bytes.

``QuicConnection.receive_packet`` walks a packet's frames in place and calls
one handler per frame with scalars; ``Packet.decode`` is no longer on the
receive path but stays the public codec, which makes it an independent
oracle.  These tests pin the two together:

* differential: for random valid packets the walker drives a recording
  connection through exactly the handler calls the oracle's frames imply;
* mutation: for damaged packets the walker rejects exactly what the oracle
  rejects, and a rejected datagram touches nothing (all-or-nothing);
* the bounded duplicate-suppression record for one-shot streams.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address, Datagram
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.endpoint import QuicEndpoint
from repro.quic.errors import TransportErrorCode
from repro.quic.frames import (
    AckFrame,
    AckRangesFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    PacketDecodeError,
    PaddingFrame,
    PingFrame,
    StreamFrame,
)
from repro.quic.packet import Packet, PacketType
from repro.quic.tls import ServerTlsContext
from repro.quic.varint import MAX_VARINT, varint_size
from repro.telemetry.collect import collect_network
from repro.telemetry.metrics import MetricsRegistry

from connection_delegate import delegate_to

SERVER = "9.9.9.9"
CLIENT = "10.0.0.1"


# --------------------------------------------------------------- the oracle
def oracle_calls(datagram: bytes) -> list[tuple]:
    """Handler calls a well-formed ``datagram`` must produce, via ``Packet.decode``.

    Raises whatever ``Packet.decode`` raises (``KeyError`` or a
    ``ValueError``) for a datagram the receive path must reject.
    """
    packet = Packet.decode(datagram)
    calls: list[tuple] = [("accepted", packet.packet_number, len(datagram))]
    for frame in packet.frames:
        if isinstance(frame, StreamFrame):
            calls.append(
                (
                    "stream",
                    int(packet.packet_type),
                    frame.stream_id,
                    frame.offset,
                    frame.data,
                    frame.fin,
                )
            )
        elif isinstance(frame, AckFrame):
            calls.append(("ack", frame.largest))
        elif isinstance(frame, AckRangesFrame):
            calls.append(("ack_ranges", frame.largest, frame.ranges))
        elif isinstance(frame, CryptoFrame):
            calls.append(("crypto", frame.data))
        elif isinstance(frame, ConnectionCloseFrame):
            calls.append(("close", frame.error_code, frame.reason, False))
        else:
            assert isinstance(frame, (PaddingFrame, PingFrame, HandshakeDoneFrame))
    if packet.is_ack_eliciting:
        calls.append(("send_ack",))
    return calls


ORACLE_REJECTS = (KeyError, ValueError)


class RecordingConnection(QuicConnection):
    """A connection whose frame handlers only record how they were called."""

    def __init__(self) -> None:
        super().__init__(
            simulator=Simulator(),
            send_datagram=lambda payload, destination: None,
            local_address=Address("client", 1),
            peer_address=Address("server", 2),
            connection_id=77,
            is_client=True,
            config=ConnectionConfig(),
        )
        self.calls: list[tuple] = []

    def _packet_accepted(self, packet_number, wire_size):
        self.calls.append(("accepted", packet_number, wire_size))

    def _on_stream_frame(self, packet_type, stream_id, offset, data, fin):
        assert type(data) is bytes  # sliced out, or copied from a memoryview
        self.calls.append(("stream", packet_type, stream_id, offset, data, fin))

    def _on_ack(self, largest):
        self.calls.append(("ack", largest))

    def _on_ack_ranges(self, largest, ranges):
        self.calls.append(("ack_ranges", largest, ranges))

    def _on_crypto(self, data):
        assert type(data) is bytes
        self.calls.append(("crypto", data))

    def _handle_close(self, code, reason, send_close):
        self.calls.append(("close", code, reason, send_close))

    def _send_ack(self):
        self.calls.append(("send_ack",))


def walker_calls(datagram: bytes, pooled: bool) -> list[tuple] | None:
    """What the walker does with ``datagram``; None when it rejects it."""
    connection = RecordingConnection()
    data = memoryview(bytearray(datagram)) if pooled else datagram
    try:
        connection.datagram_received(data)
    except PacketDecodeError:
        assert connection.calls == []  # rejected whole: no handler ran
        return None
    return connection.calls


def oracle_or_none(datagram: bytes) -> list[tuple] | None:
    try:
        return oracle_calls(datagram)
    except ORACLE_REJECTS:
        return None


# --------------------------------------------------- test-local wire builder
_PREFIX = {1: 0, 2: 1, 4: 2, 8: 3}


def vint(value: int, width: int = 1) -> bytes:
    """``value`` as a varint of at least ``width`` bytes (non-minimal allowed)."""
    width = max(width, varint_size(value))
    return ((_PREFIX[width] << (8 * width - 2)) | value).to_bytes(width, "big")


widths = st.sampled_from((1, 2, 4, 8))
varint_values = st.one_of(
    st.integers(0, 63),
    st.integers(64, 16383),
    st.integers(16384, (1 << 30) - 1),
    st.integers(1 << 30, MAX_VARINT),
)
FRAME_KINDS = (
    "stream",
    "ack",
    "ack_ranges",
    "crypto",
    "close",
    "ping",
    "handshake_done",
    "padding",
)


@st.composite
def frame_wire(draw, kinds=FRAME_KINDS) -> bytes:
    """One well-formed frame, every varint at a random (maybe padded) width."""

    def v(values=varint_values) -> bytes:
        return vint(draw(values), draw(widths))

    def const(value: int) -> bytes:
        return vint(value, draw(widths))

    kind = draw(st.sampled_from(kinds))
    if kind == "stream":
        data = draw(st.binary(max_size=70))
        fin = draw(st.sampled_from((0, 1, 1, 2, 64)))
        return const(0x08) + v() + v() + const(fin) + const(len(data)) + data
    if kind == "ack":
        return const(0x02) + v() + v()
    if kind == "ack_ranges":
        count = draw(st.integers(0, 4))
        body = b"".join(v() + v() for _ in range(count))
        return const(0x03) + v() + v() + const(count) + body
    if kind == "crypto":
        data = draw(st.binary(max_size=70))
        return const(0x06) + const(len(data)) + data
    if kind == "close":
        reason = draw(st.text(max_size=20)).encode("utf-8")
        return const(0x1C) + v() + const(len(reason)) + reason
    if kind == "ping":
        return const(0x01)
    if kind == "handshake_done":
        return const(0x1E)
    return const(0x00) + bytes(draw(st.integers(0, 5)))  # a PADDING run


@dataclasses.dataclass
class PacketParts:
    """A packet kept in pieces so mutations can lie about its lengths."""

    packet_type: int
    connection_id: bytes
    packet_number: bytes
    length_width: int
    payload: bytes
    trailing: bytes = b""

    def assemble(self, payload: bytes | None = None, declared_length: int | None = None) -> bytes:
        payload = self.payload if payload is None else payload
        declared = len(payload) if declared_length is None else declared_length
        return (
            bytes([self.packet_type])
            + self.connection_id
            + self.packet_number
            + vint(declared, self.length_width)
            + payload
            + self.trailing
        )


@st.composite
def packet_parts(draw, kinds=FRAME_KINDS, max_frames=4) -> PacketParts:
    frames = draw(st.lists(frame_wire(kinds), min_size=0, max_size=max_frames))
    return PacketParts(
        packet_type=draw(st.integers(0, 3)),
        connection_id=vint(draw(varint_values), draw(widths)),
        packet_number=vint(draw(varint_values), draw(widths)),
        length_width=draw(widths),
        payload=b"".join(frames),
        # Bytes after the declared payload are not part of the packet.
        trailing=draw(st.binary(max_size=6)),
    )


# ------------------------------------------------------- (a) differential
@settings(max_examples=300, deadline=None)
@given(packet_parts(), st.booleans())
def test_walker_matches_oracle_on_valid_packets(parts, pooled):
    datagram = parts.assemble()
    expected = oracle_calls(datagram)  # generated packets are well formed
    assert walker_calls(datagram, pooled) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_walker_matches_oracle_on_codec_encoded_packets(data):
    """Packets as the senders build them (``Packet.encode``, minimal varints)."""
    frame = st.one_of(
        st.builds(
            StreamFrame,
            stream_id=varint_values,
            offset=varint_values,
            data=st.binary(max_size=70),
            fin=st.booleans(),
        ),
        st.builds(AckFrame, largest=varint_values, delay_us=varint_values),
        st.builds(CryptoFrame, st.binary(max_size=40)),
        st.builds(ConnectionCloseFrame, error_code=varint_values, reason=st.text(max_size=12)),
        st.just(PingFrame()),
        st.just(HandshakeDoneFrame()),
        st.just(AckRangesFrame(largest=20, delay_us=0, ranges=((0, 3), (7, 7), (15, 20)))),
    )
    packet = Packet(
        packet_type=data.draw(st.sampled_from(list(PacketType))),
        connection_id=data.draw(varint_values),
        packet_number=data.draw(varint_values),
        frames=tuple(data.draw(st.lists(frame, max_size=4))),
    )
    datagram = packet.encode()
    assert walker_calls(datagram, data.draw(st.booleans())) == oracle_calls(datagram)


def test_single_frame_hot_shapes_match_oracle():
    """The two packets the workloads are made of: one STREAM, one ACK."""
    stream = Packet(
        PacketType.ONE_RTT, (3 << 48) | 99, 4242, (StreamFrame(402, 0, bytes(300), True),)
    ).encode()
    ack = Packet(PacketType.ONE_RTT, (3 << 48) | 99, 4243, (AckFrame(4242),)).encode()
    for datagram in (stream, ack):
        for pooled in (False, True):
            assert walker_calls(datagram, pooled) == oracle_calls(datagram)
    assert oracle_calls(stream)[-1] == ("send_ack",)
    assert oracle_calls(ack)[-1] == ("ack", 4242)  # ACK-only: nothing to acknowledge


# ----------------------------------------------------- (b) mutation fuzzing
@st.composite
def mutated_datagram(draw) -> bytes:
    parts = draw(packet_parts())
    datagram = parts.assemble()
    kind = draw(
        st.sampled_from(
            ("truncate", "short_length", "long_length", "replace", "insert", "packet_type", "append")
        )
    )
    if kind == "truncate":
        return datagram[: draw(st.integers(0, len(datagram)))]
    if kind == "short_length":
        # Frames run past the declared payload end but stay inside the buffer.
        return parts.assemble(declared_length=draw(st.integers(0, len(parts.payload))))
    if kind == "long_length":
        return parts.assemble(declared_length=len(parts.payload) + draw(st.integers(1, 1 << 20)))
    if kind == "packet_type":
        return bytes([draw(st.integers(4, 255))]) + datagram[1:]
    if kind == "append":
        # Garbage after valid frames, inside the declared payload.
        return parts.assemble(payload=parts.payload + draw(st.binary(min_size=1, max_size=8)))
    index = draw(st.integers(0, max(0, len(datagram) - 1)))
    if kind == "replace":
        return datagram[:index] + bytes([draw(st.integers(0, 255))]) + datagram[index + 1 :]
    return datagram[:index] + draw(st.binary(min_size=1, max_size=4)) + datagram[index:]


@settings(max_examples=600, deadline=None)
@given(mutated_datagram(), st.booleans())
def test_walker_rejects_exactly_what_the_oracle_rejects(datagram, pooled):
    assert walker_calls(datagram, pooled) == oracle_or_none(datagram)


CORPUS = (
    # Every frame type, single-frame and mixed; multi-byte varints included.
    (StreamFrame(402, 0, b"one-shot-object-payload", True),),
    (AckFrame(4242, 17),),
    (AckRangesFrame(largest=300, delay_us=0, ranges=((0, 3), (70, 70), (290, 300))),),
    (CryptoFrame(b"SH|moq-00|1|12"), HandshakeDoneFrame()),
    (PingFrame(),),
    (ConnectionCloseFrame(0x100, "going away ✓"),),
    (
        StreamFrame(6, 70000, b"x" * 70, False),
        PaddingFrame(3),
        AckFrame(9),
        StreamFrame(10, 0, b"", True),
    ),
    (),
)


def _corpus_packets() -> list[PacketParts]:
    packets = []
    for frames in CORPUS:
        encoded = Packet(PacketType.ONE_RTT, 77, 1000, frames).encode()
        payload = b"".join(frame.encode() for frame in frames)
        assert encoded.endswith(payload)
        packets.append(
            PacketParts(
                packet_type=int(PacketType.ONE_RTT),
                connection_id=vint(77),
                packet_number=vint(1000),
                length_width=2,
                payload=payload,
            )
        )
    return packets


def _structural_mutations(parts: PacketParts) -> list[bytes]:
    """Truncation at every offset (three ways), bad lengths, unknown types."""
    datagram = parts.assemble()
    payload = parts.payload
    mutations = [datagram]
    mutations += [datagram[:cut] for cut in range(len(datagram))]
    for cut in range(len(payload)):
        mutations.append(parts.assemble(payload=payload[:cut]))  # consistent, frames cut
        mutations.append(parts.assemble(declared_length=cut))  # rest stays in the buffer
    mutations.append(parts.assemble(declared_length=len(payload) + 1))
    mutations.append(parts.assemble(declared_length=MAX_VARINT))
    for packet_type in (4, 0x40, 0xFF):
        mutations.append(bytes([packet_type]) + datagram[1:])
    for frame_type in (0x04, 0x07, 0x1D, 0x3F):
        mutations.append(parts.assemble(payload=vint(frame_type) + payload))
        mutations.append(parts.assemble(payload=payload + vint(frame_type)))
    mutations.append(parts.assemble(payload=vint(0x4321, 2) + payload))
    # Trailing garbage after the valid frames, still inside the payload.
    for garbage in (b"\x08", b"\x08\x02\x00\x01\x05ab", b"\x1c\x00\x02\xff\xfe", b"\x03\x05\x00\x09"):
        mutations.append(parts.assemble(payload=payload + garbage))
    return mutations


def test_structural_mutations_reject_exactly_what_the_oracle_rejects():
    rejected = accepted = 0
    for parts in _corpus_packets():
        for datagram in _structural_mutations(parts):
            expected = oracle_or_none(datagram)
            for pooled in (False, True):
                assert walker_calls(datagram, pooled) == expected, datagram.hex()
            if expected is None:
                rejected += 1
            else:
                accepted += 1
    assert rejected > 300 and accepted > 30  # the corpus exercises both sides


@pytest.mark.parametrize(
    "reason", [b"\xff", b"\xc3", b"ok\x80", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]
)
def test_non_utf8_close_reason_is_a_decode_error(reason):
    payload = vint(0x1C) + vint(0) + vint(len(reason)) + reason
    datagram = bytes([3]) + vint(77) + vint(5) + vint(len(payload)) + payload
    with pytest.raises(UnicodeDecodeError):
        Packet.decode(datagram)
    assert walker_calls(datagram, pooled=False) is None
    # ... also when it is not the first frame (the pre-scan finds it).
    payload = vint(0x01) + payload
    datagram = bytes([3]) + vint(77) + vint(5) + vint(len(payload)) + payload
    assert walker_calls(datagram, pooled=True) is None


# ------------------------------------- hostile bytes through Simulator.run
def _connected_pair():
    """A client connection with a completed handshake over a real network."""
    simulator = Simulator(seed=5)
    network = Network(simulator)
    network.add_host(SERVER)
    network.add_host(CLIENT)
    network.connect(SERVER, CLIENT, LinkConfig(delay=0.005))
    server = QuicEndpoint(
        network.host(SERVER), port=4443, server_tls=ServerTlsContext(alpn_protocols=("moq-00",))
    )
    client = QuicEndpoint(network.host(CLIENT))
    # A long idle timeout: hundreds of injections share one virtual clock.
    connection = client.connect(
        Address(SERVER, 4443), ConnectionConfig(alpn_protocols=("moq-00",), idle_timeout=1e6)
    )
    delivered: list[tuple] = []
    delegate_to(
        connection,
        on_stream_data=lambda sid, data, fin: delivered.append((sid, data, fin)),
    )
    simulator.run(until=1.0)
    assert connection.handshake_complete
    return simulator, network, server, client, connection, delivered


def _snapshot(connection: QuicConnection, delivered: list) -> tuple:
    return (
        dataclasses.astuple(connection.statistics),
        connection.idle_deadline,
        list(connection._received_ranges),
        connection.stream_states,
        connection._peer_uni_floor,
        sorted(connection._peer_uni_above or ()),
        sorted(connection._unacked),
        connection._next_packet_number,
        connection._largest_acked,
        connection.closed,
        list(delivered),
    )


def _inject(simulator, network, client, payload: bytes) -> None:
    """Route ``payload`` to the client endpoint as if the server had sent it."""
    network.host(SERVER).send(
        Datagram(
            source=Address(SERVER, 4443),
            destination=client.address,
            payload=payload,
            protocol="quic",
        )
    )
    simulator.run(until=simulator.now + 0.05)  # a decode failure must not escape


def test_malformed_datagrams_change_nothing_and_are_counted():
    cases = rejects = 0
    for frames in CORPUS:
        if any(isinstance(frame, CryptoFrame) for frame in frames):
            continue  # a second ServerHello is a TLS matter, not a decode one
        simulator, network, _, client, connection, delivered = _connected_pair()
        payload = b"".join(frame.encode() for frame in frames)
        parts = PacketParts(
            packet_type=int(PacketType.ONE_RTT),
            connection_id=vint(connection.connection_id),
            packet_number=vint(500),
            length_width=2,
            payload=payload,
        )
        for datagram in _structural_mutations(parts):
            if connection.closed:  # an accepted CONNECTION_CLOSE ends the run
                # Seeded, so the fresh connection has the same connection id.
                simulator, network, _, client, connection, delivered = _connected_pair()
            before = _snapshot(connection, delivered)
            malformed = client.datagrams_malformed
            received = connection.statistics.packets_received
            _inject(simulator, network, client, datagram)
            cases += 1
            if oracle_or_none(datagram) is None:
                rejects += 1
                assert client.datagrams_malformed == malformed + 1
                assert _snapshot(connection, delivered) == before, datagram.hex()
            else:
                assert client.datagrams_malformed == malformed
                assert connection.statistics.packets_received == received + 1
    assert rejects > 200 and cases - rejects > 20


@settings(max_examples=150, deadline=None)
@given(mutated_datagram())
def test_no_decode_exception_leaves_the_simulator(datagram):
    """Arbitrary damage to arbitrary packets, delivered by the event loop to
    an endpoint that knows no such connection: dropped, counted if malformed,
    and never an exception out of ``Simulator.run``."""
    simulator = Simulator(seed=1)
    network = Network(simulator)
    network.add_host(SERVER)
    network.add_host(CLIENT)
    network.connect(SERVER, CLIENT, LinkConfig(delay=0.001))
    client = QuicEndpoint(network.host(CLIENT))
    _inject(simulator, network, client, datagram)
    assert client.datagrams_malformed == (1 if oracle_or_none(datagram) is None else 0)
    assert client.connections() == []


def _hostile_hellos(valid: bytes, other_role: bytes) -> list[bytes]:
    """CRYPTO payloads that frame perfectly well and hold no hello."""
    fields = valid.split(b"|")
    hostile = [
        b"",
        other_role,
        b"|".join([b"XX"] + fields[1:]),  # right shape, wrong kind
        b"|".join(fields[:-1]),  # a field short
        valid + b"|extra",  # a field long
        b"|".join(fields[:3] + [b"1x"] + fields[4:]),  # non-integer ticket
    ]
    for index in range(len(valid)):
        hostile.append(valid[:index] + b"\xff" + valid[index + 1 :])  # not UTF-8
        if valid[index : index + 1] != b"|":
            hostile.append(valid[:index] + b"|" + valid[index + 1 :])  # field count
    return hostile


CLIENT_HELLO = b"CH|9.9.9.9|moq-00|0|0"
SERVER_HELLO = b"SH|moq-00|0|1"


def test_a_crypto_frame_without_a_hello_closes_the_connection():
    """Nothing but a typed error leaves the hello parser, and it ends as a
    PROTOCOL_VIOLATION close — never an exception out of the event loop."""
    violation = int(TransportErrorCode.PROTOCOL_VIOLATION)
    for hello in _hostile_hellos(SERVER_HELLO, CLIENT_HELLO):
        simulator, network, _, client, connection, _ = _connected_pair()
        closes = []
        delegate_to(connection, on_closed=lambda code, reason: closes.append(code))
        packet = Packet(PacketType.HANDSHAKE, connection.connection_id, 900, (CryptoFrame(hello),))
        _inject(simulator, network, client, packet.encode())
        simulator.run()
        assert connection.closed and closes == [violation], hello
        assert client.datagrams_malformed == 0  # the packet itself was fine
    for hello in _hostile_hellos(CLIENT_HELLO, SERVER_HELLO):
        simulator, network, server, accepted = _server_endpoint()
        packet = Packet(PacketType.INITIAL, 123456, 0, (CryptoFrame(hello),))
        network.host(CLIENT).send(
            Datagram(
                source=Address(CLIENT, 50000),
                destination=server.address,
                payload=packet.encode(),
                protocol="quic",
            )
        )
        simulator.run()
        (connection,) = accepted
        assert connection.closed and not connection.handshake_complete, hello
        assert connection.close_reason in ("malformed ClientHello", "not a ClientHello")
        assert server.datagrams_malformed == 0


def test_the_negotiated_alpn_is_the_configured_string():
    """Each end keeps the entry of its own configuration, not the copy it
    decoded from the peer's hello: one string per process, not per
    connection (the ticket keeps the same one)."""
    simulator, network, server, client, connection, _ = _connected_pair()
    (accepted,) = server.connections()
    assert connection.negotiated_alpn is connection.config.alpn_protocols[0]
    assert accepted.negotiated_alpn is server.server_tls.alpn_protocols[0]
    ticket = client.ticket_store.get(SERVER, simulator.now)
    assert ticket.alpn is connection.negotiated_alpn


def test_a_server_hello_naming_an_alpn_not_offered_closes_the_connection():
    simulator, network, _, client, connection, _ = _connected_pair()
    closes = []
    delegate_to(connection, on_closed=lambda code, reason: closes.append((code, reason)))
    hello = CryptoFrame(b"SH|h3|0|2")
    packet = Packet(PacketType.HANDSHAKE, connection.connection_id, 900, (hello,))
    _inject(simulator, network, client, packet.encode())
    simulator.run()
    assert closes == [(int(TransportErrorCode.CONNECTION_REFUSED), "ALPN not offered: h3")]
    assert connection.negotiated_alpn == "moq-00"


# ------------------------------------------------------------ (c) atomicity
def _isolated(is_client=False, handshake_complete=True):
    sent: list[bytes] = []
    connection = QuicConnection(
        simulator=Simulator(),
        send_datagram=lambda payload, destination: sent.append(bytes(payload)),
        local_address=Address("receiver", 1),
        peer_address=Address("sender", 2),
        connection_id=77,
        is_client=is_client,
        config=ConnectionConfig(),
    )
    connection.handshake_complete = handshake_complete
    return connection, sent


def test_valid_frame_followed_by_a_truncated_frame_delivers_nothing():
    connection, sent = _isolated()
    delivered = []
    delegate_to(
        connection, on_stream_data=lambda sid, data, fin: delivered.append((sid, data, fin))
    )
    good = StreamFrame(2, 0, b"would-be-delivered", True).encode()
    cut = StreamFrame(6, 0, b"never-arrives-whole", True).encode()[:-4]
    payload = good + cut
    datagram = bytes([3]) + vint(77) + vint(0) + vint(len(payload)) + payload
    before = _snapshot(connection, delivered)
    with pytest.raises(PacketDecodeError):
        connection.datagram_received(datagram)
    assert delivered == [] and sent == []
    assert _snapshot(connection, delivered) == before
    # The same first frame on its own is delivered and acknowledged.
    datagram = bytes([3]) + vint(77) + vint(0) + vint(len(good)) + good
    connection.datagram_received(datagram)
    assert delivered == [(2, b"would-be-delivered", True)]
    assert len(sent) == 1 and connection.statistics.packets_received == 1


def test_frames_after_a_connection_close_are_still_walked():
    """Pinned parent behaviour: the loop does not stop at CONNECTION_CLOSE."""
    connection, sent = _isolated()
    delivered = []
    delegate_to(connection, on_stream_data=lambda sid, data, fin: delivered.append(data))
    frames = (ConnectionCloseFrame(0, "bye"), StreamFrame(2, 0, b"after-close", True))
    connection.datagram_received(Packet(PacketType.ONE_RTT, 77, 0, frames).encode())
    assert connection.closed and connection.close_reason == "bye"
    assert delivered == [b"after-close"]
    assert sent == []  # a closed connection sends no ACK


def test_empty_packet_is_accepted_and_not_acknowledged():
    connection, sent = _isolated()
    connection.datagram_received(Packet(PacketType.ONE_RTT, 77, 0, ()).encode())
    assert connection.statistics.packets_received == 1
    assert connection._received_ranges == [0, 0]
    assert sent == []


# ------------------------------------------------------------- the endpoint
def _server_endpoint():
    simulator = Simulator(seed=3)
    network = Network(simulator)
    network.add_host(SERVER)
    network.add_host(CLIENT)
    network.connect(SERVER, CLIENT, LinkConfig(delay=0.001))
    accepted = []
    server = QuicEndpoint(
        network.host(SERVER),
        port=4443,
        server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
        on_connection=accepted.append,
    )
    return simulator, network, server, accepted


def _to_server(server, payload: bytes) -> None:
    server.datagram_received(
        Datagram(source=Address(CLIENT, 50000), destination=server.address, payload=payload)
    )


def test_malformed_first_packet_leaves_no_connection_behind():
    _, _, server, accepted = _server_endpoint()
    hello = CryptoFrame(b"CH|9.9.9.9|moq-00|0|0").encode()
    payload = hello + StreamFrame(0, 0, b"truncated", True).encode()[:-2]
    _to_server(server, bytes([0]) + vint(123456) + vint(0) + vint(len(payload)) + payload)
    assert server.connections() == [] and accepted == []
    assert server.datagrams_malformed == 1
    # The well-formed hello alone is accepted.
    _to_server(server, bytes([0]) + vint(123456) + vint(0) + vint(len(hello)) + hello)
    assert len(server.connections()) == 1 and len(accepted) == 1
    assert server.datagrams_malformed == 1


def test_unknown_packet_type_and_empty_datagram_are_counted():
    _, _, server, _ = _server_endpoint()
    _to_server(server, b"")
    _to_server(server, bytes([9]) + vint(1) + vint(0) + vint(0))
    _to_server(server, bytes([3]) + vint(1))  # header cut short
    assert server.datagrams_malformed == 3
    # Well formed but for no connection this endpoint knows: dropped, not malformed.
    _to_server(server, Packet(PacketType.ONE_RTT, 1, 0, (PingFrame(),)).encode())
    assert server.datagrams_malformed == 3 and server.connections() == []


def test_only_decode_errors_are_swallowed():
    """A bug in a handler must surface, not be filed as a malformed datagram."""
    simulator, network, _, client, connection, _ = _connected_pair()

    def broken(stream_id, data, fin):
        raise RuntimeError("application bug")

    delegate_to(connection, on_stream_data=broken)
    frame = StreamFrame(3, 0, b"payload", True)
    datagram = Packet(PacketType.ONE_RTT, connection.connection_id, 900, (frame,)).encode()
    with pytest.raises(RuntimeError, match="application bug"):
        _inject(simulator, network, client, datagram)
    assert client.datagrams_malformed == 0


def test_malformed_counter_is_scraped_by_telemetry():
    simulator, network, _, client, connection, _ = _connected_pair()
    _inject(simulator, network, client, b"\x03\x01")
    _inject(simulator, network, client, bytes([3]) + vint(connection.connection_id) + b"\x00\x01\x3f")
    assert client.datagrams_malformed == 2
    metrics = MetricsRegistry()
    collect_network(metrics, network)
    assert metrics.snapshot()["quic_datagrams_malformed"] == 2


# ------------------------------------------- (d) duplicate-suppression state
def _one_shot(sequence: int, packet_number: int, body: bytes = b"obj") -> bytes:
    """Client-initiated unidirectional stream ``sequence`` as one whole packet."""
    frame = StreamFrame((sequence << 2) | 0x2, 0, body, True)
    return Packet(PacketType.ONE_RTT, 77, packet_number, (frame,)).encode()


def _receiver():
    connection, _ = _isolated(is_client=False)
    delivered: list[int] = []
    delegate_to(connection, on_stream_data=lambda sid, data, fin: delivered.append(sid >> 2))
    return connection, delivered


def test_in_order_streams_keep_no_state():
    connection, delivered = _receiver()
    for sequence in range(10_000):
        connection.datagram_received(_one_shot(sequence, sequence))
    assert delivered == list(range(10_000))
    assert connection.stream_reorder_backlog == 0
    assert connection._peer_uni_floor == 10_000
    assert connection.stream_states == 0  # no QuicStream materialised either
    # Late retransmissions of any of them are suppressed.
    for sequence in (0, 1, 4999, 9999):
        connection.datagram_received(_one_shot(sequence, 20_000 + sequence))
    assert len(delivered) == 10_000


def test_reordered_streams_hold_state_only_for_the_reordering():
    connection, delivered = _receiver()
    rng = random.Random(13)
    window = 16
    high_water = 0
    packet_number = 0
    for base in range(0, 10_000, window):
        block = list(range(base, base + window))
        rng.shuffle(block)
        for sequence in block:
            connection.datagram_received(_one_shot(sequence, packet_number))
            packet_number += 1
            high_water = max(high_water, connection.stream_reorder_backlog)
        assert connection.stream_reorder_backlog == 0  # block complete: drained
    assert sorted(delivered) == list(range(10_000))
    assert 0 < high_water < window


def test_duplicated_streams_are_delivered_once():
    connection, delivered = _receiver()
    packet_number = 0
    for sequence in range(200):
        for _ in range(2):
            connection.datagram_received(_one_shot(sequence, packet_number))
            packet_number += 1
    assert delivered == list(range(200))
    assert connection.stream_reorder_backlog == 0


def test_a_gap_is_held_until_filled_and_duplicates_above_it_are_suppressed():
    connection, delivered = _receiver()
    for sequence in range(5):
        connection.datagram_received(_one_shot(sequence, sequence))
    for sequence in range(6, 101):  # stream 5 was lost
        connection.datagram_received(_one_shot(sequence, sequence))
    assert connection._peer_uni_floor == 5
    assert connection.stream_reorder_backlog == 95
    connection.datagram_received(_one_shot(50, 500))  # duplicate above the floor
    assert delivered.count(50) == 1
    connection.datagram_received(_one_shot(5, 501))  # the repair arrives
    assert connection._peer_uni_floor == 101
    assert connection.stream_reorder_backlog == 0
    assert sorted(delivered) == list(range(101))


def test_a_data_stream_that_is_not_whole_closes_the_connection():
    """A peer unidirectional stream is one offset-0 FIN frame.  Any other shape
    is refused with PROTOCOL_VIOLATION, not reassembled, and the rest of its
    packet is not dispatched."""
    violation = int(TransportErrorCode.PROTOCOL_VIOLATION)
    stream_id = (1 << 2) | 0x2
    for fragment in (
        StreamFrame(stream_id, 0, b"frag", False),  # no FIN
        StreamFrame(stream_id, 4, b"ment", True),  # not at offset 0
        StreamFrame(stream_id, 4, b"ment", False),
    ):
        connection, sent = _isolated()
        delivered, closes = [], []
        delegate_to(
            connection,
            on_stream_data=lambda sid, data, fin: delivered.append((sid >> 2, data, fin)),
            on_closed=lambda code, reason: closes.append(code),
        )
        connection.datagram_received(_one_shot(0, 0))
        later = (
            StreamFrame((2 << 2) | 0x2, 0, b"whole", True),
            StreamFrame(0, 0, b"control", False),
        )
        packet = Packet(PacketType.ONE_RTT, 77, 1, (fragment, *later))
        connection.datagram_received(packet.encode())
        assert connection.closed and closes == [violation], fragment
        assert delivered == [(0, b"obj", True)]
        assert connection.stream_states == 0
        (close,) = Packet.decode(sent[-1]).frames
        assert close.error_code == violation
        # A closed connection reads nothing more.
        connection.datagram_received(_one_shot(2, 2))
        assert delivered == [(0, b"obj", True)]


def test_a_client_refuses_a_frame_on_its_stream_0_before_opening_it():
    """Stream 0 is the client's to open: a peer frame on it first is a
    STREAM_STATE_ERROR (RFC 9000 §19.8), and no stream is created for it."""
    connection, sent = _isolated(is_client=True)
    closes = []
    delegate_to(connection, on_closed=lambda code, reason: closes.append(code))
    frame = StreamFrame(0, 0, b"early", False)
    connection.datagram_received(Packet(PacketType.ONE_RTT, 77, 0, (frame,)).encode())
    assert closes == [int(TransportErrorCode.STREAM_STATE_ERROR)]
    assert connection.stream_states == 0
    (close,) = Packet.decode(sent[-1]).frames
    assert close.error_code == TransportErrorCode.STREAM_STATE_ERROR


def test_a_held_fragment_survives_reuse_of_the_callers_buffer():
    """The control stream's reorder buffer keeps the frame data it is handed
    without a copy of its own; that is sound because the receive loop hands
    it bytes even when the caller's datagram is a view over a buffer it goes
    on to overwrite."""
    connection, _ = _receiver()
    chunks = []
    delegate_to(connection, on_stream_data=lambda sid, data, fin: chunks.append((data, fin)))
    stream_id = 0  # the client's first bidirectional stream: MoQT's control stream
    late = Packet(PacketType.ONE_RTT, 77, 0, (StreamFrame(stream_id, 4, b"ment", True),)).encode()
    buffer = bytearray(late)
    connection.datagram_received(memoryview(buffer))
    assert chunks == []  # offset 4 waits for offset 0
    buffer[:] = bytes(len(buffer))  # the caller reuses its buffer
    first = Packet(PacketType.ONE_RTT, 77, 1, (StreamFrame(stream_id, 0, b"frag", False),))
    connection.datagram_received(first.encode())
    assert b"".join(data for data, _ in chunks) == b"fragment" and chunks[-1][1] is True
    assert connection.stream_states == 1 and connection._stream.stream_id == stream_id


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=120))
def test_each_stream_is_delivered_exactly_once_in_any_arrival_order(arrivals):
    connection, delivered = _receiver()
    for packet_number, sequence in enumerate(arrivals):
        connection.datagram_received(_one_shot(sequence, packet_number))
    seen = set(arrivals)
    assert sorted(delivered) == sorted(seen)
    floor = next(n for n in range(42) if n not in seen)
    assert connection._peer_uni_floor == floor
    assert connection.stream_reorder_backlog == len([n for n in seen if n > floor])
