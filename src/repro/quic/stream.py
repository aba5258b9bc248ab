"""QUIC streams: ordered byte streams with a FIN bit.

Stream identifiers follow RFC 9000: the two low bits encode the initiator
(client/server) and directionality (bidirectional/unidirectional), so client
bidirectional streams are 0, 4, 8, ... and server unidirectional streams are
3, 7, 11, ...  MoQT relies on this: the control channel is the first client
bidirectional stream, while objects are delivered on unidirectional streams
opened by the publisher.
"""

from __future__ import annotations

import enum
from typing import Callable


class StreamDirection(enum.Enum):
    """Directionality of a stream."""

    BIDIRECTIONAL = "bidi"
    UNIDIRECTIONAL = "uni"


def make_stream_id(sequence: int, is_client: bool, direction: StreamDirection) -> int:
    """Compose a stream ID from its sequence number, initiator and direction."""
    stream_id = sequence << 2
    if not is_client:
        stream_id |= 0x1
    if direction is StreamDirection.UNIDIRECTIONAL:
        stream_id |= 0x2
    return stream_id


def stream_initiator_is_client(stream_id: int) -> bool:
    """Whether the stream was opened by the client."""
    return stream_id & 0x1 == 0


def stream_is_unidirectional(stream_id: int) -> bool:
    """Whether the stream is unidirectional."""
    return stream_id & 0x2 != 0


class _ReceiveBuffer:
    """Reassembles stream data received possibly out of order."""

    __slots__ = ("segments", "delivered", "fin_offset")

    def __init__(self) -> None:
        self.segments: dict[int, bytes] = {}
        self.delivered = 0
        self.fin_offset: int | None = None

    def receive(self, offset: int, data: bytes, fin: bool) -> tuple[bytes, bool]:
        """Insert one frame and return newly contiguous data plus FIN state."""
        if fin:
            self.fin_offset = offset + len(data)
        # Fast path: in-order data with nothing buffered (the overwhelmingly
        # common case on a loss-free link) is contiguous as-is — no segment
        # dict traffic and no reassembly copy.
        if offset == self.delivered and not self.segments:
            self.delivered = offset + len(data)
            return data, self._finished()
        # Retransmissions replay frames verbatim; segments that were already
        # delivered must not re-enter the buffer (they would never drain).
        if data and offset >= self.delivered:
            self.segments[offset] = data
        output = bytearray()
        while self.delivered in self.segments:
            chunk = self.segments.pop(self.delivered)
            output += chunk
            self.delivered += len(chunk)
        return bytes(output), self._finished()

    def _finished(self) -> bool:
        return self.fin_offset is not None and self.delivered >= self.fin_offset


class QuicStream:
    """One stream of a connection.

    The send side is an offset counter — the connection frames each write
    as it is made — and the receive side reassembles incoming ``STREAM``
    frames and hands contiguous data to the registered callback.
    """

    __slots__ = (
        "stream_id",
        "_send_offset",
        "_receive",
        "_on_data",
        "send_closed",
        "receive_closed",
        "bytes_sent",
        "bytes_received",
    )

    def __init__(
        self,
        stream_id: int,
        on_data: Callable[[int, bytes, bool], None] | None = None,
    ) -> None:
        self.stream_id = stream_id
        self._send_offset = 0
        self._receive = _ReceiveBuffer()
        self._on_data = on_data
        self.send_closed = False
        self.receive_closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def direction(self) -> StreamDirection:
        """Directionality derived from the stream ID."""
        if stream_is_unidirectional(self.stream_id):
            return StreamDirection.UNIDIRECTIONAL
        return StreamDirection.BIDIRECTIONAL

    def set_data_callback(self, callback: Callable[[int, bytes, bool], None]) -> None:
        """Install the callback invoked with (stream_id, data, fin)."""
        self._on_data = callback

    # ------------------------------------------------------------------- send
    def write(self, data: bytes, fin: bool = False) -> int:
        """Account for ``data`` (and optionally a FIN); returns its offset."""
        if self.send_closed:
            raise ValueError(f"stream {self.stream_id} send side already closed")
        offset = self._send_offset
        self._send_offset = offset + len(data)
        self.bytes_sent += len(data)
        if fin:
            self.send_closed = True
        return offset

    # ---------------------------------------------------------------- receive
    def receive(self, offset: int, data: bytes, fin: bool) -> None:
        """Process an incoming STREAM frame for this stream.

        Duplicate frames (retransmissions whose original — or whose ACK — was
        merely delayed, not lost) deliver nothing new and must not re-invoke
        the callback: a second ``finished`` notification would make stream
        consumers process the FIN twice.
        """
        already_finished = self.receive_closed
        contiguous, finished = self._receive.receive(offset, data, fin)
        self.bytes_received += len(contiguous)
        if finished:
            self.receive_closed = True
        newly_finished = finished and not already_finished
        if (contiguous or newly_finished) and self._on_data is not None:
            self._on_data(self.stream_id, contiguous, newly_finished)
