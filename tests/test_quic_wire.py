"""Tests for QUIC varints, frames, packets and the TLS simulation."""

from __future__ import annotations

import pytest

from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    decode_frames,
    encode_frames,
)
from repro.quic.packet import Packet, PacketType
from repro.quic.stream import QuicStream
from repro.quic.tls import (
    AlpnMismatchError,
    ClientHello,
    ServerHello,
    ServerTlsContext,
    SessionTicket,
    SessionTicketStore,
)
from repro.quic.varint import (
    MAX_VARINT,
    VarintError,
    VarintReader,
    VarintWriter,
    decode_varint,
    encode_varint,
    varint_size,
)


class TestVarints:
    @pytest.mark.parametrize(
        "value,size",
        [(0, 1), (63, 1), (64, 2), (16383, 2), (16384, 4), (1073741823, 4), (1073741824, 8), (MAX_VARINT, 8)],
    )
    def test_size_boundaries(self, value, size):
        assert varint_size(value) == size
        assert len(encode_varint(value)) == size

    @pytest.mark.parametrize("value", [0, 1, 37, 63, 64, 300, 16383, 16384, 5_000_000, MAX_VARINT])
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_out_of_range_rejected(self):
        with pytest.raises(VarintError):
            encode_varint(MAX_VARINT + 1)
        with pytest.raises(VarintError):
            encode_varint(-1)

    def test_truncated_decoding_rejected(self):
        with pytest.raises(VarintError):
            decode_varint(b"")
        with pytest.raises(VarintError):
            decode_varint(encode_varint(70_000)[:2])

    def test_reader_writer_roundtrip(self):
        writer = VarintWriter().write_varint(1234)
        reader = VarintReader(writer.getvalue() + b"\x07" + encode_varint(3) + b"abc")
        assert reader.read_varint() == 1234
        assert reader.read_uint8() == 7
        assert reader.read_length_prefixed() == b"abc"
        assert reader.at_end()

    def test_reader_remaining(self):
        reader = VarintReader(b"\x01\x02\x03")
        reader.read_uint8()
        assert reader.remaining == 2

    def test_writer_rejects_out_of_range_varints(self):
        with pytest.raises(VarintError):
            VarintWriter().write_varint(MAX_VARINT + 1)
        with pytest.raises(VarintError):
            VarintWriter().write_varint(-1)

    def test_reader_rejects_reads_past_the_end(self):
        with pytest.raises(VarintError):
            VarintReader(b"").read_uint8()
        with pytest.raises(VarintError):
            VarintReader(b"\x01\x02\x03").read_bytes(4)
        reader = VarintReader(encode_varint(4) + b"abc")
        with pytest.raises(VarintError):
            reader.read_length_prefixed()


class TestFrames:
    def test_all_frames_roundtrip(self):
        frames = [
            PingFrame(),
            AckFrame(largest=12, delay_us=30),
            CryptoFrame(b"hello-tls"),
            StreamFrame(stream_id=4, offset=10, data=b"payload", fin=True),
            ConnectionCloseFrame(error_code=3, reason="bye"),
            HandshakeDoneFrame(),
        ]
        decoded = decode_frames(encode_frames(frames))
        assert decoded == frames

    def test_padding_runs_collapse(self):
        decoded = decode_frames(bytes(5) + PingFrame().encode())
        assert isinstance(decoded[0], PaddingFrame)
        assert decoded[0].length == 5
        assert isinstance(decoded[1], PingFrame)

    def test_unknown_frame_type_rejected(self):
        with pytest.raises(ValueError):
            decode_frames(b"\x3f")


class TestPackets:
    def test_packet_roundtrip(self):
        packet = Packet(
            packet_type=PacketType.ONE_RTT,
            connection_id=77,
            packet_number=5,
            frames=(StreamFrame(stream_id=0, offset=0, data=b"x", fin=False),),
        )
        decoded = Packet.decode(packet.encode())
        assert decoded == packet

    def test_ack_only_packet_is_not_ack_eliciting(self):
        ack_only = Packet(PacketType.ONE_RTT, 1, 1, (AckFrame(largest=1),))
        data = Packet(PacketType.ONE_RTT, 1, 2, (PingFrame(),))
        assert not ack_only.is_ack_eliciting
        assert data.is_ack_eliciting


class TestStreamIds:
    def test_stream_id_composition(self):
        # RFC 9000 §2.1: the sequence over the initiator bit (0x1, server)
        # and the unidirectional bit (0x2).  The one bidirectional stream is
        # the client's first; each side's data streams count up from its own
        # unidirectional base.
        ids = {}
        for is_client in (True, False):
            connection = QuicConnection(
                simulator=Simulator(),
                send_datagram=lambda payload, destination: None,
                local_address=Address("a", 1),
                peer_address=Address("b", 2),
                connection_id=1,
                is_client=is_client,
                config=ConnectionConfig(),
            )
            bidirectional = connection.open_stream().stream_id
            ids[is_client] = [bidirectional] + [
                connection.send_encoded_stream(b"x") for _ in range(2)
            ]
        assert ids == {True: [0, 2, 6], False: [0, 3, 7]}


class TestStreamReassembly:
    def test_in_order_delivery(self):
        stream = QuicStream(0)
        received = [stream.receive(0, b"hello ", False), stream.receive(6, b"world", True)]
        assert received == [(b"hello ", False), (b"world", True)]
        assert stream.receive_closed
        assert stream.receive(6, b"world", True) is None  # a duplicate delivers nothing

    def test_out_of_order_reassembly(self):
        stream = QuicStream(0)
        assert stream.receive(6, b"world", True) is None
        assert stream.receive(0, b"hello ", False) == (b"hello world", True)

    def test_write_returns_offsets(self):
        stream = QuicStream(4)
        assert stream.write(b"abc") == 0
        assert stream.write(b"def") == 3
        assert stream.bytes_sent == 6


class TestSimulatedTls:
    def test_client_hello_roundtrip(self):
        hello = ClientHello("auth.example", ("moq-00", "doq"), offers_early_data=False)
        decoded = ClientHello.from_bytes(hello.to_bytes())
        assert decoded.server_name == "auth.example"
        assert decoded.alpn_protocols == ("moq-00", "doq")

    def test_server_selects_first_common_alpn(self):
        context = ServerTlsContext(alpn_protocols=("doq", "moq-00"))
        server_hello = context.process_client_hello(
            ClientHello("s", ("moq-00", "doq"), offers_early_data=False)
        )
        assert server_hello.alpn == "moq-00"

    def test_alpn_mismatch_raises(self):
        context = ServerTlsContext(alpn_protocols=("h3",))
        with pytest.raises(AlpnMismatchError):
            context.process_client_hello(ClientHello("s", ("moq-00",), offers_early_data=False))

    def test_early_data_needs_ticket_and_server_policy(self):
        context = ServerTlsContext(alpn_protocols=("moq-00",), accept_early_data=True)
        ticket = SessionTicket("s", "moq-00", issued_at=0.0, ticket_id=3)
        accepted = context.process_client_hello(
            ClientHello("s", ("moq-00",), session_ticket=ticket, offers_early_data=True)
        )
        assert accepted.accepts_early_data
        refused = context.process_client_hello(
            ClientHello("s", ("moq-00",), session_ticket=None, offers_early_data=False)
        )
        assert not refused.accepts_early_data

    def test_ticket_store_expiry(self):
        store = SessionTicketStore()
        store.put(SessionTicket("s", "moq-00", issued_at=0.0, lifetime=10.0, ticket_id=1))
        assert store.get("s", now=5.0) is not None
        assert store.get("s", now=20.0) is None
        assert len(store) == 0

    def test_server_hello_roundtrip(self):
        hello = ServerHello(alpn="moq-00", accepts_early_data=True, new_ticket_id=9)
        decoded = ServerHello.from_bytes(hello.to_bytes())
        assert decoded == hello
