"""QUIC frames with a byte-exact wire codec.

Only the frames the simulated stack needs are implemented: PADDING, PING,
ACK, CRYPTO, NEW_TOKEN-style session tickets are folded into CRYPTO payloads,
STREAM (with offset/length/fin), MAX_DATA-style flow control is omitted (the
simulation does not model flow-control blocking), CONNECTION_CLOSE and
HANDSHAKE_DONE.  DATAGRAM (RFC 9221, an optional extension) is not
negotiated, so a received DATAGRAM frame is an unknown frame type.

Serialisation is batched: every frame writes itself into a shared
``bytearray`` via :meth:`Frame.encode_into`, so a packet's frames are encoded
with a single output buffer and no per-frame writer objects or byte-string
joins.  :meth:`Frame.encode` remains as the single-frame convenience wrapper.
Frames are plain slotted dataclasses (not frozen): tens of thousands are
created per simulated second, and frozen dataclasses pay an
``object.__setattr__`` per field on construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.quic.varint import (
    VarintError,
    append_varint,
    decode_varint,
    _VALUE_MASK,
)


class PacketDecodeError(ValueError):
    """A received datagram is not a well-formed packet.

    The one exception type of the receive path (see ``docs/quic-receive.md``):
    unknown packet or frame type, truncated varint, a length running past the
    packet payload and a CONNECTION_CLOSE reason that is not UTF-8 all raise
    it, and it is the only exception
    :meth:`~repro.quic.endpoint.QuicEndpoint.datagram_received` catches.
    """


class FrameType(enum.IntEnum):
    """Wire identifiers of the implemented frames."""

    PADDING = 0x00
    PING = 0x01
    ACK = 0x02
    ACK_RANGES = 0x03
    CRYPTO = 0x06
    STREAM = 0x08  # with offset, length and fin bits encoded separately
    CONNECTION_CLOSE = 0x1C
    HANDSHAKE_DONE = 0x1E


@dataclass(slots=True)
class Frame:
    """Base class for all frames."""

    def encode_into(self, buffer: bytearray) -> None:
        """Append the frame's wire encoding (including type) to ``buffer``."""
        raise NotImplementedError

    def encode(self) -> bytes:
        """Serialise the frame including its type byte."""
        buffer = bytearray()
        self.encode_into(buffer)
        return bytes(buffer)


@dataclass(slots=True)
class PaddingFrame(Frame):
    """PADDING: a run of zero bytes used to grow Initial packets."""

    length: int = 1

    def encode_into(self, buffer: bytearray) -> None:
        buffer += bytes(self.length)


@dataclass(slots=True)
class PingFrame(Frame):
    """PING: elicits an acknowledgement; used for liveness checks (§5.1)."""

    def encode_into(self, buffer: bytearray) -> None:
        buffer.append(FrameType.PING)


@dataclass(slots=True)
class AckFrame(Frame):
    """ACK: acknowledges every packet number up to and including ``largest``.

    The cumulative form is only emitted while the receiver's received-set is
    a single gap-free run starting at packet 0, which makes "everything up to
    ``largest``" exact.  The moment a gap appears (a drop on a lossy link,
    observed because a *later* packet arrived), the receiver switches to
    :class:`AckRangesFrame` — acknowledging a dropped packet cumulatively
    would cancel its retransmission and turn one drop into a permanent hole.
    """

    largest: int
    delay_us: int = 0

    def encode_into(self, buffer: bytearray) -> None:
        append_varint(buffer, FrameType.ACK)
        append_varint(buffer, self.largest)
        append_varint(buffer, self.delay_us)


@dataclass(slots=True)
class AckRangesFrame(Frame):
    """ACK_RANGES: acknowledges exactly the listed packet-number ranges.

    ``ranges`` holds inclusive ``(start, end)`` pairs in ascending order with
    at least one unreceived packet number between consecutive pairs.  The
    wire encoding walks the ranges from the top like RFC 9000's ACK frame,
    as successive deltas (each a small varint): after ``largest`` (= end of
    the last range) and the delay comes the range count, then per range the
    distance from the running anchor to the range's end and the range's
    ``length - 1``; the next anchor is that range's start.
    """

    largest: int
    delay_us: int
    ranges: tuple[tuple[int, int], ...]

    def encode_into(self, buffer: bytearray) -> None:
        append_varint(buffer, FrameType.ACK_RANGES)
        append_varint(buffer, self.largest)
        append_varint(buffer, self.delay_us)
        append_varint(buffer, len(self.ranges))
        anchor = self.largest
        for start, end in reversed(self.ranges):
            append_varint(buffer, anchor - end)
            append_varint(buffer, end - start)
            anchor = start


@dataclass(slots=True)
class CryptoFrame(Frame):
    """CRYPTO: carries the simulated TLS handshake messages."""

    data: bytes

    def encode_into(self, buffer: bytearray) -> None:
        append_varint(buffer, FrameType.CRYPTO)
        append_varint(buffer, len(self.data))
        buffer += self.data


@dataclass(slots=True)
class StreamFrame(Frame):
    """STREAM: ordered application data on a stream."""

    stream_id: int
    offset: int
    data: bytes
    fin: bool = False

    def encode_into(self, buffer: bytearray) -> None:
        append_varint(buffer, FrameType.STREAM)
        append_varint(buffer, self.stream_id)
        append_varint(buffer, self.offset)
        buffer.append(1 if self.fin else 0)
        append_varint(buffer, len(self.data))
        buffer += self.data


@dataclass(slots=True)
class ConnectionCloseFrame(Frame):
    """CONNECTION_CLOSE: terminates the connection."""

    error_code: int
    reason: str = ""

    def encode_into(self, buffer: bytearray) -> None:
        append_varint(buffer, FrameType.CONNECTION_CLOSE)
        append_varint(buffer, self.error_code)
        encoded_reason = self.reason.encode("utf-8")
        append_varint(buffer, len(encoded_reason))
        buffer += encoded_reason


@dataclass(slots=True)
class HandshakeDoneFrame(Frame):
    """HANDSHAKE_DONE: server's confirmation that the handshake completed."""

    def encode_into(self, buffer: bytearray) -> None:
        buffer.append(FrameType.HANDSHAKE_DONE)


def encode_frames(frames: list[Frame]) -> bytes:
    """Concatenate the encodings of several frames."""
    buffer = bytearray()
    for frame in frames:
        frame.encode_into(buffer)
    return bytes(buffer)


def encode_frames_into(buffer: bytearray, frames: tuple[Frame, ...] | list[Frame]) -> None:
    """Append the encodings of several frames to an existing buffer."""
    for frame in frames:
        frame.encode_into(buffer)


def decode_frames(payload: bytes) -> list[Frame]:
    """Parse a packet payload into frames."""
    frames, _ = decode_frames_range(payload, 0, len(payload))
    return frames


#: Local aliases so the decode loop below resolves them without module-dict
#: lookups per field.
_STREAM = int(FrameType.STREAM)
_ACK = int(FrameType.ACK)
_ACK_RANGES = int(FrameType.ACK_RANGES)
_PADDING = int(FrameType.PADDING)
_PING = int(FrameType.PING)
_CRYPTO = int(FrameType.CRYPTO)
_CONNECTION_CLOSE = int(FrameType.CONNECTION_CLOSE)
_HANDSHAKE_DONE = int(FrameType.HANDSHAKE_DONE)


def decode_frames_range(
    view: bytes | memoryview, offset: int, end: int
) -> tuple[list[Frame], int]:
    """Parse frames from ``view[offset:end]``; returns ``(frames, next_offset)``.

    Lets the packet decoder parse frames in place instead of copying the
    payload out and wrapping it in a second reader.  The varint reads are
    inlined: at roughly ten varints per packet, per-read method dispatch
    would otherwise dominate the decode cost.
    """
    frames: list[Frame] = []
    from_bytes = int.from_bytes
    mask = _VALUE_MASK

    def read_varint() -> int:
        nonlocal offset
        if offset >= end:
            raise VarintError("truncated varint: no bytes available")
        first = view[offset]
        prefix = first >> 6
        if prefix == 0:
            offset += 1
            return first
        stop = offset + (1 << prefix)
        if stop > end:
            raise VarintError(f"truncated varint: need {1 << prefix} bytes")
        value = from_bytes(view[offset:stop], "big") & mask[prefix]
        offset = stop
        return value

    def read_length_prefixed() -> bytes:
        nonlocal offset
        length = read_varint()
        stop = offset + length
        if stop > end:
            raise VarintError(f"truncated data: need {length} bytes")
        chunk = view[offset:stop]
        offset = stop
        return chunk if type(chunk) is bytes else bytes(chunk)

    try:
        while offset < end:
            frame_type = read_varint()
            if frame_type == _STREAM:
                stream_id = read_varint()
                stream_offset = read_varint()
                fin = read_varint() == 1
                data = read_length_prefixed()
                frames.append(
                    StreamFrame(stream_id=stream_id, offset=stream_offset, data=data, fin=fin)
                )
            elif frame_type == _ACK:
                largest = read_varint()
                delay = read_varint()
                frames.append(AckFrame(largest=largest, delay_us=delay))
            elif frame_type == _ACK_RANGES:
                largest = read_varint()
                delay = read_varint()
                count = read_varint()
                anchor = largest
                descending = []
                for _ in range(count):
                    range_end = anchor - read_varint()
                    range_start = range_end - read_varint()
                    descending.append((range_start, range_end))
                    anchor = range_start
                frames.append(
                    AckRangesFrame(
                        largest=largest,
                        delay_us=delay,
                        ranges=tuple(reversed(descending)),
                    )
                )
            elif frame_type == _PADDING:
                # A run of padding: swallow consecutive zero bytes.
                length = 1
                while offset < end and view[offset] == 0:
                    offset += 1
                    length += 1
                frames.append(PaddingFrame(length))
            elif frame_type == _PING:
                frames.append(PingFrame())
            elif frame_type == _CRYPTO:
                frames.append(CryptoFrame(read_length_prefixed()))
            elif frame_type == _CONNECTION_CLOSE:
                code = read_varint()
                reason = read_length_prefixed().decode("utf-8")
                frames.append(ConnectionCloseFrame(error_code=code, reason=reason))
            elif frame_type == _HANDSHAKE_DONE:
                frames.append(HandshakeDoneFrame())
            else:
                raise ValueError(f"unknown frame type: {frame_type:#x}")
    except IndexError:
        raise VarintError("truncated varint: no bytes available") from None
    return frames, offset


def scan_frames(data: bytes | memoryview, offset: int, end: int) -> None:
    """Check that ``data[offset:end]`` is a well-formed frame sequence.

    The bounds-only pre-scan of the receive path: it skips over every frame
    without building anything and raises :class:`PacketDecodeError` for
    exactly the inputs :func:`decode_frames_range` rejects, so a packet can
    be refused whole before any of its frames has had an effect.

    Varints are skipped by their length prefix and bounds are checked once
    per frame: reads only move forward, so a read that strays past ``end``
    leaves ``offset > end`` (or runs off the buffer, an ``IndexError``).
    """
    try:
        while offset < end:
            frame_type = data[offset]
            if frame_type < 64:
                offset += 1
            else:
                frame_type, offset = decode_varint(data, offset)
            if frame_type == _STREAM:
                offset += 1 << (data[offset] >> 6)  # stream id
                offset += 1 << (data[offset] >> 6)  # stream offset
                offset += 1 << (data[offset] >> 6)  # fin
                length, offset = decode_varint(data, offset)
                offset += length
            elif frame_type == _ACK:
                offset += 1 << (data[offset] >> 6)  # largest
                offset += 1 << (data[offset] >> 6)  # delay
            elif frame_type == _ACK_RANGES:
                offset += 1 << (data[offset] >> 6)  # largest
                offset += 1 << (data[offset] >> 6)  # delay
                count, offset = decode_varint(data, offset)
                for _ in range(count):
                    if offset >= end:
                        raise PacketDecodeError("truncated ACK_RANGES frame")
                    offset += 1 << (data[offset] >> 6)  # gap
                    offset += 1 << (data[offset] >> 6)  # length - 1
            elif frame_type == _PADDING:
                while offset < end and data[offset] == 0:
                    offset += 1
            elif frame_type == _CRYPTO:
                length, offset = decode_varint(data, offset)
                offset += length
            elif frame_type == _CONNECTION_CLOSE:
                offset += 1 << (data[offset] >> 6)  # error code
                length, offset = decode_varint(data, offset)
                stop = offset + length
                if stop <= end:
                    str(data[offset:stop], "utf-8")
                offset = stop
            elif frame_type != _PING and frame_type != _HANDSHAKE_DONE:
                raise PacketDecodeError(f"unknown frame type: {frame_type:#x}")
            if offset > end:
                raise PacketDecodeError("truncated frame: runs past the packet payload")
    except (IndexError, VarintError):
        raise PacketDecodeError("truncated frame: runs past the datagram") from None
    except UnicodeDecodeError:
        raise PacketDecodeError("CONNECTION_CLOSE reason is not UTF-8") from None
