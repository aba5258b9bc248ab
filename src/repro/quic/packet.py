"""QUIC packets.

The simulated stack distinguishes the packet types that matter for handshake
timing — INITIAL, HANDSHAKE, ZERO_RTT and ONE_RTT — and encodes each packet
as a small header (type, connection ID, packet number) followed by its
frames.  One simulated UDP datagram carries exactly one packet; coalescing is
not modelled because it does not change round-trip counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.quic.frames import (
    AckFrame,
    AckRangesFrame,
    Frame,
    PacketDecodeError,
    PaddingFrame,
    decode_frames_range,
    encode_frames_into,
)
from repro.quic.varint import VarintError, append_varint, _VALUE_MASK


class PacketType(enum.IntEnum):
    """Packet number spaces / encryption levels relevant to timing."""

    INITIAL = 0
    HANDSHAKE = 1
    ZERO_RTT = 2
    ONE_RTT = 3


_PACKET_TYPE_BY_VALUE = {member.value: member for member in PacketType}
_LARGEST_PACKET_TYPE = max(_PACKET_TYPE_BY_VALUE)


def decode_header(data: bytes | memoryview) -> tuple[int, int, int, int, int]:
    """Parse a packet header in place, for the receive path.

    Returns ``(packet_type, connection_id, packet_number, offset, end)``: the
    frames occupy ``data[offset:end]`` and are walked where they lie by
    :meth:`~repro.quic.connection.QuicConnection.receive_packet` — no
    :class:`Packet` is built.  ``packet_type`` is the plain wire value.
    Raises :class:`~repro.quic.frames.PacketDecodeError` for exactly the
    headers :meth:`Packet.decode` rejects.
    """
    from_bytes = int.from_bytes
    mask = _VALUE_MASK
    try:
        packet_type = data[0]
        if packet_type > _LARGEST_PACKET_TYPE:
            raise PacketDecodeError(f"unknown packet type: {packet_type:#x}")
        # Three varints: connection id, packet number, payload length.  A
        # truncated one is caught by the read after it (or the final bounds
        # check), since offsets only move forward.  The two-byte form is
        # decoded arithmetically: it is what packet numbers and lengths
        # mostly are, and a slice allocates.
        connection_id = data[1]
        if connection_id < 64:
            offset = 2
        else:
            offset = 1 + (1 << (connection_id >> 6))
            connection_id = from_bytes(data[1:offset], "big") & mask[connection_id >> 6]
        packet_number = data[offset]
        if packet_number < 64:
            offset += 1
        elif packet_number < 128:
            packet_number = ((packet_number & 0x3F) << 8) | data[offset + 1]
            offset += 2
        else:
            stop = offset + (1 << (packet_number >> 6))
            packet_number = from_bytes(data[offset:stop], "big") & mask[packet_number >> 6]
            offset = stop
        length = data[offset]
        if length < 64:
            offset += 1
        elif length < 128:
            length = ((length & 0x3F) << 8) | data[offset + 1]
            offset += 2
        else:
            stop = offset + (1 << (length >> 6))
            length = from_bytes(data[offset:stop], "big") & mask[length >> 6]
            offset = stop
    except IndexError:
        raise PacketDecodeError("truncated packet header") from None
    end = offset + length
    if end > len(data):
        raise PacketDecodeError("truncated packet payload")
    return packet_type, connection_id, packet_number, offset, end


@dataclass(slots=True)
class Packet:
    """A QUIC packet: type, connection id, packet number and frames."""

    packet_type: PacketType
    connection_id: int
    packet_number: int
    frames: tuple[Frame, ...]

    def encode_into(self, buffer: bytearray) -> None:
        """Serialise the packet into ``buffer``.

        Header and frames share the output buffer; the frame payload is
        batched separately only because its varint length prefixes it.
        """
        payload = bytearray()
        encode_frames_into(payload, self.frames)
        buffer.append(int(self.packet_type))
        append_varint(buffer, self.connection_id)
        append_varint(buffer, self.packet_number)
        append_varint(buffer, len(payload))
        buffer += payload

    def encode(self) -> bytes:
        """Serialise the packet."""
        buffer = bytearray()
        self.encode_into(buffer)
        return bytes(buffer)

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        """Parse a packet from bytes.

        Header varints are parsed inline (this runs once per simulated
        datagram); the frames are parsed in place by
        :func:`~repro.quic.frames.decode_frames_range` without copying the
        payload out.
        """
        length = len(data)
        if length == 0:
            raise VarintError("truncated packet: empty datagram")
        packet_type = _PACKET_TYPE_BY_VALUE[data[0]]
        offset = 1
        from_bytes = int.from_bytes
        mask = _VALUE_MASK
        try:
            # Three header varints, unrolled: connection id, packet number,
            # payload length.
            first = data[offset]
            prefix = first >> 6
            if prefix == 0:
                connection_id = first
                offset += 1
            else:
                stop = offset + (1 << prefix)
                if stop > length:
                    raise VarintError("truncated packet header")
                connection_id = from_bytes(data[offset:stop], "big") & mask[prefix]
                offset = stop
            first = data[offset]
            prefix = first >> 6
            if prefix == 0:
                packet_number = first
                offset += 1
            else:
                stop = offset + (1 << prefix)
                if stop > length:
                    raise VarintError("truncated packet header")
                packet_number = from_bytes(data[offset:stop], "big") & mask[prefix]
                offset = stop
            first = data[offset]
            prefix = first >> 6
            if prefix == 0:
                payload_length = first
                offset += 1
            else:
                stop = offset + (1 << prefix)
                if stop > length:
                    raise VarintError("truncated packet header")
                payload_length = from_bytes(data[offset:stop], "big") & mask[prefix]
                offset = stop
        except IndexError:
            raise VarintError("truncated packet header") from None
        end = offset + payload_length
        if end > length:
            raise VarintError(f"truncated packet payload: need {payload_length} bytes")
        frames, _ = decode_frames_range(data, offset, end)
        return cls(
            packet_type=packet_type,
            connection_id=connection_id,
            packet_number=packet_number,
            frames=tuple(frames),
        )

    @property
    def is_ack_eliciting(self) -> bool:
        """Whether the peer must acknowledge this packet."""
        for frame in self.frames:
            if not isinstance(frame, (AckFrame, AckRangesFrame, PaddingFrame)):
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(type(frame).__name__ for frame in self.frames)
        return (
            f"Packet({self.packet_type.name} cid={self.connection_id} "
            f"pn={self.packet_number} [{kinds}])"
        )
