"""QUIC streams: ordered byte streams with a FIN bit.

Stream identifiers follow RFC 9000: the two low bits encode the initiator
(client/server) and directionality (bidirectional/unidirectional), so client
bidirectional streams are 0, 4, 8, ... and server unidirectional streams are
3, 7, 11, ...  MoQT relies on this: the control channel is the first client
bidirectional stream, while objects are delivered on unidirectional streams
opened by the publisher.  A connection holds one :class:`QuicStream`, stream
0, and closes on a frame for any other bidirectional stream; a
unidirectional data stream arrives whole and needs none.
"""

from __future__ import annotations


class QuicStream:
    """One stream of a connection.

    The send side is an offset counter — the connection frames each write
    as it is made — and the receive side reassembles incoming ``STREAM``
    frames and returns the contiguous data to the connection: two counters,
    plus a table of out-of-order segments that exists only while one is
    held.
    """

    __slots__ = (
        "stream_id",
        "_send_offset",
        "_delivered",
        "_fin_offset",
        "_segments",
        "receive_closed",
        "bytes_sent",
        "bytes_received",
    )

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self._send_offset = 0
        #: Receive side: the offset delivered up to, where the FIN puts the
        #: end, and the segments that arrived ahead of ``_delivered`` (None
        #: until one does: a loss-free link delivers every frame in order).
        self._delivered = 0
        self._fin_offset: int | None = None
        self._segments: dict[int, bytes] | None = None
        self.receive_closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------- send
    def write(self, data: bytes) -> int:
        """Account for ``data``; returns its offset."""
        offset = self._send_offset
        self._send_offset = offset + len(data)
        self.bytes_sent += len(data)
        return offset

    # ---------------------------------------------------------------- receive
    def receive(self, offset: int, data: bytes, fin: bool) -> tuple[bytes, bool] | None:
        """Process an incoming STREAM frame for this stream.

        Returns what it makes deliverable — ``(contiguous bytes, fin)``, which
        the connection hands to its delegate — or ``None`` when it makes
        nothing deliverable.  Duplicate frames (retransmissions whose original
        — or whose ACK — was merely delayed, not lost) deliver nothing new: a
        second ``fin`` would make stream consumers process the FIN twice.
        """
        already_finished = self.receive_closed
        if fin:
            self._fin_offset = offset + len(data)
        segments = self._segments
        if offset == self._delivered and segments is None:
            # In order with nothing held (the overwhelmingly common case on
            # a loss-free link): contiguous as-is, no table, no copy.
            contiguous = data
            self._delivered = offset + len(data)
        else:
            # Retransmissions replay frames verbatim; segments that were
            # already delivered must not be held (they would never drain).
            if data and offset >= self._delivered:
                if segments is None:
                    self._segments = segments = {}
                segments[offset] = data
            output = bytearray()
            if segments:
                while self._delivered in segments:
                    chunk = segments.pop(self._delivered)
                    output += chunk
                    self._delivered += len(chunk)
                if not segments:
                    self._segments = None
            contiguous = bytes(output)
        self.bytes_received += len(contiguous)
        finished = self._fin_offset is not None and self._delivered >= self._fin_offset
        if finished:
            self.receive_closed = True
        newly_finished = finished and not already_finished
        if contiguous or newly_finished:
            return contiguous, newly_finished
        return None
