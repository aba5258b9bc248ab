"""The QUIC connection state machine.

A :class:`QuicConnection` reproduces the parts of QUIC that the paper's
latency and state-management arguments rest on:

* a fresh connection costs one round trip of handshake (CRYPTO in INITIAL
  packets) before either side may send application data;
* with a stored session ticket and 0-RTT enabled, the client may send
  application data in its very first flight (ZERO_RTT packets), so a lookup
  request reaches the server after a single one-way delay;
* an established connection can carry new streams with no additional round
  trips, which is what makes connection reuse (§5.2, first optimisation)
  effective;
* connections must be kept alive (PING keepalives) or they die silently after
  the idle timeout, forcing a full re-establishment (§5.1);
* loss is repaired by retransmission after a probe timeout, so object
  delivery over streams is reliable even on lossy links;
* peer failure is *detected*, never announced: a crashed peer simply stops
  acknowledging, so the only in-band failure signals a deployment has are
  consecutive probe timeouts and the idle timeout.  The connection exposes
  them as a liveness state machine (``healthy`` → ``suspect`` after
  :data:`QuicConnection.LIVENESS_SUSPECT_AFTER` consecutive PTOs, back to
  ``healthy`` when an ACK lands, ``dead`` on idle timeout or PTO give-up)
  reported to the connection's delegate, which is what drives relay failover
  without a control-plane kill signal (E13).

The connection reports to one :class:`ConnectionDelegate` and is driven
entirely by the discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from repro.netsim.packet import Address
from repro.netsim.simulator import Event, Simulator, Timer
from repro.quic.congestion import NULL_CONGESTION, CongestionController
from repro.quic.errors import QuicConnectionError, TransportErrorCode
from repro.quic.frames import (
    AckRangesFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    PacketDecodeError,
    PingFrame,
    StreamFrame,
    scan_frames,
    _ACK,
    _ACK_RANGES,
    _CONNECTION_CLOSE,
    _CRYPTO,
    _HANDSHAKE_DONE,
    _PADDING,
    _PING,
    _STREAM,
)
from repro.quic.packet import PacketType, decode_header
from repro.quic.varint import (
    VarintError,
    append_varint,
    decode_varint,
    encode_varint,
    varint_size,
    _VALUE_MASK,
)
from repro.quic.stream import QuicStream
from repro.quic.tls import (
    AlpnMismatchError,
    ClientHello,
    HelloDecodeError,
    MOQT_ALPN,
    ServerHello,
    ServerTlsContext,
    SessionTicket,
    SessionTicketStore,
)


#: Liveness states of the in-band failure detector.
LIVENESS_HEALTHY = "healthy"
LIVENESS_SUSPECT = "suspect"
LIVENESS_DEAD = "dead"

#: Plain-int wire value for the receive loop (comparing against the IntEnum
#: member would go through ``enum`` on every STREAM frame); the frame-type
#: ints come from :mod:`repro.quic.frames`.
_ZERO_RTT = int(PacketType.ZERO_RTT)


@dataclass
class ConnectionConfig:
    """Tunable parameters of a connection.

    Attributes
    ----------
    alpn_protocols:
        Application protocols offered (client) or supported (server).
    idle_timeout:
        Seconds of silence after which the connection is dropped
        (QUIC ``max_idle_timeout``).
    keepalive_interval:
        When set, PING frames are sent at this interval to keep the
        connection (and NAT bindings) alive; §5.1 discusses this trade-off.
    initial_rtt:
        Seed for the retransmission timer before an RTT sample exists.
    liveness_suspect_after:
        Consecutive probe timeouts before the peer is *suspected* dead
        (``None`` keeps the class default,
        :attr:`QuicConnection.LIVENESS_SUSPECT_AFTER`).  The default of 2 is
        tuned for loss-free links, where consecutive PTOs really do mean
        the peer stopped talking; on links with random loss a double drop
        (data or ACK, twice in a row) hits the same signature with
        probability ``~loss**2`` *per packet*, so fleets of lossy-edge
        connections should raise this — at the fan-out experiments' 0.5 %
        access loss, threshold 2 fires a false suspicion every ~10k packets
        and each one evacuates a whole leaf.
    congestion_controller:
        Factory producing a fresh
        :class:`~repro.quic.congestion.CongestionController` per connection
        (each connection needs its own window state).  ``None`` — the
        default — installs the shared stateless
        :data:`~repro.quic.congestion.NULL_CONGESTION`, which never blocks
        and leaves every seeded output bit-identical to a build without
        congestion control.
    """

    alpn_protocols: tuple[str, ...] = (MOQT_ALPN,)
    idle_timeout: float = 30.0
    keepalive_interval: float | None = None
    initial_rtt: float = 0.1
    liveness_suspect_after: int | None = None
    congestion_controller: Callable[[], CongestionController] | None = None

    def __post_init__(self) -> None:
        # A zero or negative timer would arm an event in the past and spin
        # the simulator; fail at construction, not at the first PTO.
        if self.idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive: {self.idle_timeout}")
        if self.keepalive_interval is not None and self.keepalive_interval <= 0:
            raise ValueError(
                f"keepalive_interval must be positive: {self.keepalive_interval}"
            )
        if self.initial_rtt <= 0:
            raise ValueError(f"initial_rtt must be positive: {self.initial_rtt}")
        if self.liveness_suspect_after is not None and self.liveness_suspect_after < 1:
            raise ValueError(
                "liveness_suspect_after needs at least one probe timeout: "
                f"{self.liveness_suspect_after}"
            )


class _SentPacket:
    """In-flight ledger record of a packet sent as frame objects.

    What a retransmission needs (``packet_type`` + ``frames``) plus the two
    facts every ledger record carries: ``sent_at`` for the RTT sample and
    ``wire_size`` for the congestion controller.
    """

    __slots__ = ("packet_type", "frames", "sent_at", "wire_size")

    def __init__(
        self, packet_type: PacketType, frames: Sequence[Frame], sent_at: float, wire_size: int
    ) -> None:
        self.packet_type = packet_type
        self.frames = frames
        self.sent_at = sent_at
        self.wire_size = wire_size


class _EncodedStreamPacket:
    """In-flight ledger record of a hand-assembled one-STREAM-frame packet.

    :meth:`QuicConnection._send_stream` serialises straight into one
    buffer, so nothing object-shaped survives the send for the loss machinery
    to replay.  This record is the minimal substitute: it exposes the
    ``packet_type`` / ``frames`` / ``sent_at`` / ``wire_size`` surface of
    :class:`_SentPacket`, materialising the frame only if the packet is
    actually lost.  ``chunk`` is the immutable stream payload: a control
    message's one encoding, or a one-shot stream's body (``offset`` 0,
    ``fin`` set) shared by N subscribers' unacked packets instead of N copies.
    """

    __slots__ = ("stream_id", "offset", "chunk", "fin", "sent_at", "wire_size")

    packet_type = PacketType.ONE_RTT

    def __init__(
        self, stream_id: int, offset: int, chunk: bytes, fin: bool, sent_at: float, wire_size: int
    ) -> None:
        self.stream_id = stream_id
        self.offset = offset
        self.chunk = chunk
        self.fin = fin
        self.sent_at = sent_at
        self.wire_size = wire_size

    @property
    def frames(self) -> tuple[StreamFrame, ...]:
        return (StreamFrame(self.stream_id, self.offset, self.chunk, self.fin),)


def _frames_wire_estimate(frames: Sequence[Frame]) -> int:
    """Approximate wire size of a packet carrying ``frames``.

    Used only for the congestion window's admission check (the controller is
    fed exact sizes once a packet is actually transmitted): payload bytes
    dominate, so per-frame framing and the packet header are charged a flat
    8 bytes each.
    """
    size = 8
    for frame in frames:
        data = getattr(frame, "data", b"")
        size += len(data) + 8
    return size


@dataclass(slots=True)
class ConnectionStatistics:
    """Packet/byte counters of one connection."""

    packets_sent: int = 0
    packets_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    retransmissions: int = 0
    pings_sent: int = 0
    #: Liveness state changes (healthy/suspect/dead in either direction) —
    #: the per-connection signal behind in-band failure detection (E13).
    liveness_transitions: int = 0


class ConnectionDelegate(Protocol):
    """The layer above a connection: the one object a connection calls.

    A connection holds one delegate (:attr:`QuicConnection.delegate`, set by
    whoever runs on top — :class:`~repro.moqt.session.MoqtSession` sets
    itself) and calls these three methods on it directly, from inside the
    event loop.  Until a delegate is set, received application data is
    dropped and nothing is told.
    """

    def stream_data_received(self, stream_id: int, data: bytes, fin: bool) -> None:
        """Contiguous bytes of one stream; ``fin`` once, with its last bytes
        (a one-shot stream arrives whole: its bytes and ``fin`` together)."""

    def connection_closed(self, code: int, reason: str) -> None:
        """The connection closed: locally, by the peer's CONNECTION_CLOSE or
        on a detected failure.  Not called for :meth:`QuicConnection.abandon`."""

    def liveness_changed(self, old: str, new: str) -> None:
        """An in-band liveness transition.  Only transport-*detected* ones
        (consecutive PTOs, ACK recovery, idle timeout, PTO give-up) — never
        a locally or peer-initiated close, which is announced, not detected.
        A ``dead`` transition comes before :meth:`connection_closed`."""


class QuicConnection:
    """One end of a QUIC connection.

    Instances are created by :class:`repro.quic.endpoint.QuicEndpoint` — via
    :meth:`~repro.quic.endpoint.QuicEndpoint.connect` on the client and
    automatically upon the first INITIAL packet on the server.

    Slotted: macro-scale runs hold one connection per subscriber per side
    (2×10⁵ instances at 100k subscribers), where per-instance ``__dict__``
    overhead alone costs hundreds of megabytes.
    """

    __slots__ = (
        "_simulator",
        "_send",
        "local_address",
        "peer_address",
        "is_client",
        "config",
        "server_name",
        "_ticket_store",
        "_server_tls",
        "statistics",
        "handshake_complete",
        "negotiated_alpn",
        "used_0rtt",
        "early_data_accepted",
        "delegate",
        "liveness",
        "liveness_cause",
        "_stream",
        "_peer_uni_floor",
        "_peer_uni_above",
        "_next_uni_sequence",
        "_next_packet_number",
        "_received_ranges",
        "_unacked",
        "_queued_app_frames",
        "_smoothed_rtt",
        "_cc",
        "_cc_active",
        "_cwnd_blocked",
        "_consecutive_loss_timeouts",
        "_loss_event",
        "_loss_deadline",
        "_idle_from",
        "_idle_wake",
        "_keepalive_timer",
        "_header_one_rtt",
        "closed",
    )

    def __init__(
        self,
        *,
        simulator: Simulator,
        send_datagram: Callable[[bytes, Address], None],
        local_address: Address,
        peer_address: Address,
        connection_id: int,
        is_client: bool,
        config: ConnectionConfig,
        server_name: str = "",
        ticket_store: SessionTicketStore | None = None,
        server_tls: ServerTlsContext | None = None,
    ) -> None:
        self._simulator = simulator
        self._send = send_datagram
        self.local_address = local_address
        self.peer_address = peer_address
        self.is_client = is_client
        self.config = config
        self.server_name = server_name or peer_address.host
        self._ticket_store = ticket_store
        self._server_tls = server_tls
        self.statistics = ConnectionStatistics()

        # Handshake state.
        self.handshake_complete = False
        self.negotiated_alpn: str | None = None
        self.used_0rtt = False
        self.early_data_accepted = False

        # The application above.
        self.delegate: ConnectionDelegate | None = None

        # In-band liveness state (healthy / suspect / dead).
        self.liveness = LIVENESS_HEALTHY
        #: What caused the latest liveness transition: ``"pto-suspect"``,
        #: ``"recovered"``, ``"idle-timeout"`` or ``"pto-give-up"``.
        self.liveness_cause = ""

        # Streams.
        #: The connection's one bidirectional stream, stream 0 (MoQT's
        #: control stream): opened by the client's :meth:`open_stream`,
        #: created on a server by the client's first frame.  A frame on any
        #: other bidirectional stream closes the connection.
        self._stream: QuicStream | None = None
        #: Which peer-initiated unidirectional streams have been seen, by
        #: stream sequence (``stream_id >> 2``): every sequence below the
        #: floor, plus the out-of-order arrivals above it.  Every such
        #: stream is one-shot (a single offset-0 FIN frame; any other shape
        #: closes the connection) and completes without a
        #: :class:`QuicStream`; this record is what keeps a late
        #: retransmission of that frame from being delivered twice (the job
        #: ``receive_closed`` does for full stream state).  In-order arrival
        #: only moves the floor, so the state is O(reordering), not
        #: O(streams ever received).
        #: The ``above`` set exists only while there is such an arrival: ideal
        #: links never reorder, so most connections never build it.
        self._peer_uni_floor = 0
        self._peer_uni_above: set[int] | None = None
        self._next_uni_sequence = 0

        # Packetisation and loss recovery.
        self._next_packet_number = 0
        #: Packet numbers received from the peer, as merged inclusive runs in
        #: ascending order, flat: ``[start, end, start, end, ...]``.  On
        #: loss-free links this is always the single run ``[0, largest]``
        #: (links deliver FIFO), so ACKs stay in their compact cumulative
        #: form; a gap switches the ACKs to exact ranges until pruned (see
        #: :meth:`_record_received`).
        self._received_ranges: list[int] = []
        #: The in-flight ledger, ``packet number -> record``: the one answer
        #: to "is this packet outstanding".  A record (:class:`_SentPacket` or
        #: :class:`_EncodedStreamPacket`) carries when the packet left, its
        #: wire size and what a retransmission needs; it is filed for every
        #: packet the loss machinery must repair and, under a real congestion
        #: controller, for every packet the controller is counting.
        self._unacked: dict[int, _SentPacket | _EncodedStreamPacket] = {}
        self._queued_app_frames: Sequence[Frame] = ()
        self._smoothed_rtt = config.initial_rtt
        # Congestion control.  The default Null controller is a shared
        # stateless singleton and declares itself inert; ``_cc_active`` is
        # hoisted so the fan-out fast path pays one attribute read, not a
        # method dispatch, when no real controller is installed.
        factory = config.congestion_controller
        self._cc: CongestionController = factory() if factory is not None else NULL_CONGESTION
        self._cc_active = self._cc.active
        #: FIFO of frame tuples held back by the congestion window, flushed
        #: oldest-first as ACKs (or loss-driven window collapses) reopen it.
        #: The packet type is recomputed at flush time so early data queued
        #: before handshake completion upgrades to ONE_RTT.  Only a real
        #: controller ever blocks, so only then is there a list, and a
        #: drained or closed connection's FIFO is ``()`` again.
        self._cwnd_blocked: list[Sequence[Frame]] | tuple[()] = [] if self._cc_active else ()
        self._consecutive_loss_timeouts = 0
        #: The probe timeout is the connection's own wake, as the idle one
        #: is: the armed event and the deadline it serves, both ``None``
        #: while nothing is outstanding.  The schedule is the lazy restart of
        #: :class:`~repro.netsim.simulator.Timer` (see :meth:`_arm_loss_wake`);
        #: per-peer state holds no callable of its own (``docs/state.md``).
        self._loss_event: Event | None = None
        self._loss_deadline: float | None = None
        self._keepalive_timer: Timer | None = None
        #: Packet-type byte + connection id as they open every ONE_RTT
        #: packet, encoded once: the hand-assembled send paths start from
        #: these (swapping the type byte for any other packet type) instead
        #: of re-encoding the connection id per packet.
        self._header_one_rtt = bytes((PacketType.ONE_RTT,)) + encode_varint(connection_id)
        self.closed = False

        #: The idle timeout is a timestamp: every packet sent or accepted
        #: stores "now" here and nothing else.  The one armed wake
        #: (:meth:`_on_idle_wake`) re-derives the deadline from it when it
        #: fires and re-arms itself for the remainder, so activity costs no
        #: call and no heap traffic.
        self._idle_from = simulator.now
        self._idle_wake: Event | None = simulator.call_at(
            self._idle_from + config.idle_timeout, self._on_idle_wake
        )
        if config.keepalive_interval is not None:
            self._keepalive_timer = Timer(simulator, self._on_keepalive)
            self._keepalive_timer.start(config.keepalive_interval)

    # ------------------------------------------------------------------ stats
    @property
    def connection_id(self) -> int:
        """The id the connection's packets carry, read back off the header
        every ONE_RTT packet starts with (the connection keeps no copy)."""
        return decode_varint(self._header_one_rtt, 1)[0]

    @property
    def smoothed_rtt(self) -> float:
        """The current RTT estimate."""
        return self._smoothed_rtt

    @property
    def congestion(self) -> CongestionController:
        """The installed congestion controller (the end-of-run scrape reads its gauges)."""
        return self._cc

    @property
    def cwnd_blocked_packets(self) -> int:
        """Packets currently held back by the congestion window."""
        return len(self._cwnd_blocked)

    @property
    def stream_states(self) -> int:
        """Streams this connection holds a :class:`QuicStream` for: 0 or 1.

        The one bidirectional stream and nothing else: data streams are
        one-shot unidirectional streams, sent and received without one.
        """
        return 0 if self._stream is None else 1

    @property
    def stream_reorder_backlog(self) -> int:
        """Peer unidirectional streams seen ahead of a still-missing earlier one.

        The only part of the duplicate-suppression record that occupies
        memory; it drains to zero once loss repair has filled every gap in
        the peer's stream sequence.
        """
        return len(self._peer_uni_above or ())

    @property
    def handshake_rtts(self) -> float:
        """Round trips spent on connection establishment (0.0 for 0-RTT data).

        This is the quantity the §5.2 query-latency experiment reads: a full
        handshake contributes one RTT before the first request can be sent,
        0-RTT contributes none.
        """
        if self.used_0rtt and self.early_data_accepted:
            return 0.0
        return 1.0

    # -------------------------------------------------------------- handshake
    def start_handshake(self) -> None:
        """Client only: send the first flight (ClientHello, maybe 0-RTT)."""
        if not self.is_client:
            raise QuicConnectionError(
                TransportErrorCode.PROTOCOL_VIOLATION, "server cannot start handshake"
            )
        ticket = None
        if self._ticket_store is not None:
            ticket = self._ticket_store.get(self.server_name, self._simulator.now)
        offers_early = ticket is not None
        hello = ClientHello(
            server_name=self.server_name,
            alpn_protocols=self.config.alpn_protocols,
            session_ticket=ticket,
            offers_early_data=offers_early,
        )
        if offers_early:
            # Optimistically enable application data in the first flight.
            self.used_0rtt = True
            self.early_data_accepted = True
        self._send_packet(PacketType.INITIAL, [CryptoFrame(hello.to_bytes())])

    def _process_client_hello(self, hello: ClientHello) -> None:
        assert self._server_tls is not None, "server connection lacks a TLS context"
        try:
            server_hello = self._server_tls.process_client_hello(hello)
        except AlpnMismatchError as error:
            self.close(TransportErrorCode.CONNECTION_REFUSED, str(error))
            return
        self.negotiated_alpn = server_hello.alpn
        self.early_data_accepted = server_hello.accepts_early_data
        if hello.offers_early_data and not server_hello.accepts_early_data:
            # Rejected early data: the client will have to retransmit it as
            # 1-RTT data; we simply never deliver the 0-RTT packets.
            pass
        self.handshake_complete = True
        self._send_packet(
            PacketType.HANDSHAKE,
            [CryptoFrame(server_hello.to_bytes()), HandshakeDoneFrame()],
        )
        self._flush_queued_app_frames()

    def _process_server_hello(self, server_hello: ServerHello) -> None:
        offered = self.config.alpn_protocols
        if server_hello.alpn not in offered:
            reason = f"ALPN not offered: {server_hello.alpn}"
            self.close(TransportErrorCode.CONNECTION_REFUSED, reason)
            return
        # The configured string, not the hello's decoded copy: the connection
        # (and its session ticket) keeps it for life.
        self.negotiated_alpn = offered[offered.index(server_hello.alpn)]
        if self.used_0rtt and not server_hello.accepts_early_data:
            self.early_data_accepted = False
            # 0-RTT was rejected: requeue everything that was sent early.
            self._requeue_zero_rtt()
        if self._ticket_store is not None:
            self._ticket_store.put(
                SessionTicket(
                    server_name=self.server_name,
                    alpn=self.negotiated_alpn,
                    issued_at=self._simulator.now,
                    ticket_id=server_hello.new_ticket_id,
                )
            )
        self.handshake_complete = True
        self._flush_queued_app_frames()

    def _requeue_zero_rtt(self) -> None:
        discarded: list[tuple[int, int]] = []
        requeued: list[Frame] = []
        for packet_number, record in sorted(self._unacked.items()):
            if record.packet_type == PacketType.ZERO_RTT:
                requeued.extend(record.frames)
                del self._unacked[packet_number]
                discarded.append((packet_number, record.wire_size))
        if requeued:
            self._queued_app_frames = [*self._queued_app_frames, *requeued]
        if discarded and self._cc_active:
            # Rejected early data leaves the in-flight ledger without being
            # acked and without signalling congestion (RFC 9002 §6.2.3).
            self._cc.on_packets_discarded(discarded)

    # ---------------------------------------------------------------- streams
    def open_stream(self) -> QuicStream:
        """The connection's one bidirectional stream, stream 0.

        The client opens it; on a server it is the client's stream, created
        here if the server writes before the client's first frame arrived.
        Every later call returns the same stream.  Unidirectional streams
        are one-shot and have no stream object on the sending side: see
        :meth:`send_encoded_stream`.
        """
        stream = self._stream
        if stream is None:
            stream = self._stream = QuicStream(0)
        return stream

    def send_stream_data(self, stream: QuicStream, data: bytes) -> None:
        """Write data on a stream (no FIN: the stream stays open) and
        transmit it as soon as allowed."""
        if self.closed:
            raise QuicConnectionError(TransportErrorCode.PROTOCOL_VIOLATION, "connection closed")
        offset = stream.write(data)
        self._send_stream(stream.stream_id, offset, bytes(data), False)

    def send_encoded_stream(self, chunk: bytes) -> int:
        """Send ``chunk`` as a complete one-shot unidirectional stream.

        The only sender of unidirectional streams: ``chunk`` is an
        already-encoded stream payload (e.g. a MoQT subgroup chunk shared
        across subscribers), sent as a single offset-0 FIN frame with no
        :class:`QuicStream` behind it.  The sender keeps no per-stream state;
        loss recovery holds a compact retransmission record referencing
        ``chunk`` (which must therefore be immutable) until the packet is
        acknowledged.

        Returns the stream ID used.
        """
        if self.closed:
            raise QuicConnectionError(TransportErrorCode.PROTOCOL_VIOLATION, "connection closed")
        sequence = self._next_uni_sequence
        self._next_uni_sequence = sequence + 1
        # RFC 9000 §2.1: the sequence, the initiator bit and the
        # unidirectional bit.
        stream_id = (sequence << 2) | (0x2 if self.is_client else 0x3)
        self._send_stream(stream_id, 0, chunk, True)
        return stream_id

    def _send_stream(self, stream_id: int, offset: int, data: bytes, fin: bool) -> None:
        """Send one STREAM frame in a packet of its own: the stream writer.

        Control-stream writes and one-shot data streams both leave here.  The
        packet is serialised into one buffer — header template, packet
        number, lengths, frame fields, then ``data`` — with no
        ``StreamFrame`` object, and leaves as one immutable ``bytes``.
        ``data`` is kept by reference in the ledger record for retransmission.
        """
        if not self.handshake_complete:
            # Rare: the frame is queued until the handshake completes, or
            # leaves as 0-RTT early data (and is requeued if that is rejected).
            self._send_app_frames([StreamFrame(stream_id, offset, data, fin)])
            return
        data_length = len(data)
        # frame type (1) + fin byte (1) = 2, then three varints: one or two
        # bytes is what stream ids, offsets and lengths nearly always take,
        # so those widths cost no call.
        payload_length = (
            2
            + (1 if stream_id < 64 else 2 if stream_id < 16384 else varint_size(stream_id))
            + (1 if offset < 64 else 2 if offset < 16384 else varint_size(offset))
            + (1 if data_length < 64 else 2 if data_length < 16384 else varint_size(data_length))
            + data_length
        )
        if self._cc_active:
            wire_size = len(self._header_one_rtt) + payload_length
            wire_size += varint_size(self._next_packet_number) + varint_size(payload_length)
            if self._cwnd_blocked or not self._cc.can_send(wire_size):
                # Window full (or earlier sends already waiting — FIFO order
                # is part of the wire contract): hold the frame back.  The
                # flush path sends it through _send_packet, whose encoding is
                # byte-identical to the hand-assembled bytes below.
                self._hold_back((StreamFrame(stream_id, offset, data, fin),))
                return
        packet_number = self._next_packet_number
        self._next_packet_number = packet_number + 1
        buffer = bytearray(self._header_one_rtt)
        # Byte-identical to Packet(ONE_RTT, cid, pn, (StreamFrame(stream_id,
        # offset, data, fin),)).encode(): the frame payload length is computed
        # up front so header and payload share one buffer.
        append_varint(buffer, packet_number)
        append_varint(buffer, payload_length)
        buffer.append(0x08)  # FrameType.STREAM
        append_varint(buffer, stream_id)
        if offset < 64:
            buffer.append(offset)
        else:
            append_varint(buffer, offset)
        buffer.append(1 if fin else 0)
        append_varint(buffer, data_length)
        buffer += data
        size = len(buffer)
        now = self._idle_from = self._simulator.now
        self._unacked[packet_number] = _EncodedStreamPacket(stream_id, offset, data, fin, now, size)
        if self._loss_event is None:
            self._arm_loss_wake(self._probe_timeout())
        self.statistics.packets_sent += 1
        self.statistics.bytes_sent += size
        if self._cc_active:
            self._cc.on_packet_sent(packet_number, size)
        self._send(bytes(buffer), self.peer_address)

    # ------------------------------------------------------------ packetising
    def _can_send_app_data(self) -> bool:
        if self.handshake_complete:
            return True
        return self.is_client and self.used_0rtt and self.early_data_accepted

    def _app_packet_type(self) -> PacketType:
        if self.handshake_complete:
            return PacketType.ONE_RTT
        return PacketType.ZERO_RTT

    def _send_app_frames(self, frames: list[Frame]) -> None:
        if not self._can_send_app_data():
            self._queued_app_frames = [*self._queued_app_frames, *frames]
            return
        if self._cc_active:
            if self._cwnd_blocked or not self._cc.can_send(_frames_wire_estimate(frames)):
                self._hold_back(frames)
                return
        self._send_packet(self._app_packet_type(), frames)

    def _hold_back(self, frames: Sequence[Frame]) -> None:
        """Queue ``frames`` behind the congestion window (FIFO)."""
        if self._cwnd_blocked:
            self._cwnd_blocked.append(frames)
        else:
            self._cwnd_blocked = [frames]

    def _flush_cwnd_blocked(self) -> None:
        """Send window-blocked packets, oldest first, while the window allows.

        Called when ACKs shrink bytes-in-flight and when a loss event clears
        the in-flight ledger; stops at the first packet that still does not
        fit so FIFO order is never violated.  A drained FIFO is handed back
        as ``()``: no empty list outlives the backlog.
        """
        blocked = self._cwnd_blocked
        while blocked and not self.closed:
            frames = blocked[0]
            if not self._cc.can_send(_frames_wire_estimate(frames)):
                return
            del blocked[0]
            self._send_packet(self._app_packet_type(), frames)
        if not blocked:
            self._cwnd_blocked = ()

    def _flush_queued_app_frames(self) -> None:
        if not self._queued_app_frames or not self._can_send_app_data():
            return
        frames, self._queued_app_frames = self._queued_app_frames, ()
        self._send_packet(self._app_packet_type(), frames)

    def _send_packet(
        self,
        packet_type: PacketType,
        frames: Sequence[Frame],
        final: bool = False,
    ) -> None:
        """Send ``frames`` in one packet: the generic writer.

        Everything that is not a lone STREAM frame on an established
        connection (:meth:`_send_stream`) or a bare ACK (:meth:`_send_ack`):
        handshake CRYPTO, PING, the pre-handshake queue, 0-RTT, the
        congestion-window flush, PTO retransmissions and CONNECTION_CLOSE.
        Every caller's frames are ack-eliciting.  ``frames`` is kept by
        reference in the ledger record, so callers hand it over.

        ``final`` marks the CONNECTION_CLOSE packet: nothing follows it, so
        it files no ledger record and arms no timer.
        """
        packet_number = self._next_packet_number
        self._next_packet_number = packet_number + 1
        buffer = bytearray()
        # Byte-identical to Packet(packet_type, cid, pn, frames).encode().
        # The frames go in first because their length prefixes them; the
        # header is then slid in front — a short move, and no second buffer.
        for frame in frames:
            frame.encode_into(buffer)
        header = bytearray((packet_type,))
        header += self._header_one_rtt[1:]  # the connection id, encoded once
        append_varint(header, packet_number)
        append_varint(header, len(buffer))
        buffer[:0] = header
        size = len(buffer)
        now = self._idle_from = self._simulator.now
        # Every packet but the final CONNECTION_CLOSE has a ledger record:
        # the loss machinery repairs it, and a real controller counts it.
        if not final:
            self._unacked[packet_number] = _SentPacket(packet_type, frames, now, size)
            if self._loss_event is None:
                self._arm_loss_wake(self._probe_timeout())
        self.statistics.packets_sent += 1
        self.statistics.bytes_sent += size
        if not final and self._cc_active:
            self._cc.on_packet_sent(packet_number, size)
        self._send(bytes(buffer), self.peer_address)

    def _probe_timeout(self) -> float:
        return max(2.5 * self._smoothed_rtt, 0.02)

    @property
    def probe_timeout(self) -> float:
        """The current probe-timeout base interval (before backoff)."""
        return self._probe_timeout()

    @property
    def idle_deadline(self) -> float | None:
        """Absolute time the idle timeout will fire (None once closed)."""
        if self._idle_wake is None:  # closing cancels the wake
            return None
        return self._idle_from + self.config.idle_timeout

    @property
    def loss_deadline(self) -> float | None:
        """Absolute time the probe timeout will fire (None while nothing is
        outstanding)."""
        return self._loss_deadline

    @property
    def keepalive_deadline(self) -> float | None:
        """Absolute time of the next keepalive PING, if keepalives are on."""
        timer = self._keepalive_timer
        return timer.deadline if timer is not None else None

    @property
    def unacked_packets(self) -> int:
        """Ack-eliciting packets currently awaiting acknowledgement."""
        return len(self._unacked)

    #: Number of consecutive probe timeouts after which the peer is declared
    #: unreachable and the connection is abandoned (akin to a handshake /
    #: PTO give-up in real stacks; keeps unreachable-server probes bounded).
    MAX_CONSECUTIVE_LOSS_TIMEOUTS = 8

    #: Consecutive probe timeouts after which the peer is *suspected* dead.
    #: With doubling backoff the n-th consecutive PTO fires
    #: ``probe_timeout * (2**n - 1)`` after the unacknowledged send, so the
    #: suspicion latency is ``3 x probe_timeout`` at the default of 2.
    LIVENESS_SUSPECT_AFTER = 2

    #: The PTO backoff doubles per consecutive timeout but is capped at
    #: ``2**cap`` probe intervals, as real stacks cap their timers — without
    #: the cap, giving up after 8 consecutive timeouts could take minutes.
    PTO_BACKOFF_EXPONENT_CAP = 3

    def _set_liveness(self, state: str, cause: str) -> None:
        if self.liveness == state:
            return
        old, self.liveness = self.liveness, state
        self.liveness_cause = cause
        self.statistics.liveness_transitions += 1
        if self.delegate is not None:
            self.delegate.liveness_changed(old, state)

    def _on_loss_timeout(self) -> None:
        if self.closed or not self._unacked:
            return
        self._consecutive_loss_timeouts += 1
        if self._consecutive_loss_timeouts > self.MAX_CONSECUTIVE_LOSS_TIMEOUTS:
            self._set_liveness(LIVENESS_DEAD, "pto-give-up")
            self._handle_close(
                int(TransportErrorCode.INTERNAL_ERROR), "peer unreachable", send_close=False
            )
            return
        suspect_after = self.config.liveness_suspect_after
        if suspect_after is None:
            suspect_after = self.LIVENESS_SUSPECT_AFTER
        if (
            self._consecutive_loss_timeouts >= suspect_after
            and self.liveness == LIVENESS_HEALTHY
        ):
            # The observer may react by abandoning this connection (a relay
            # failing over its uplink); retransmitting is then pointless.
            self._set_liveness(LIVENESS_SUSPECT, "pto-suspect")
            if self.closed:
                return
        lost = sorted(self._unacked.items())
        self._unacked.clear()
        if self._cc_active:
            # One loss event per PTO fire: every in-flight packet is declared
            # lost before the retransmissions below re-enter the ledger.
            self._cc.on_packets_lost(
                [(packet_number, record.wire_size) for packet_number, record in lost]
            )
        for _, record in lost:
            # Re-send the same frames in a new packet (new packet number).
            # Retransmissions bypass the congestion-window gate — a probe
            # must be able to leave even with the window full (RFC 9002
            # §7.5) — but do re-enter bytes-in-flight in _send_packet.
            self.statistics.retransmissions += 1
            self._send_packet(record.packet_type, record.frames)
        if self._cc_active and self._cwnd_blocked and not self.closed:
            # The loss event cleared the in-flight ledger; the (halved)
            # window may have room for packets it previously blocked.
            self._flush_cwnd_blocked()
        # Exponential backoff: the n-th consecutive timeout waits 2**n probe
        # intervals (capped), so an unreachable peer is probed ever more
        # sparsely while give-up stays bounded in time.
        exponent = min(self._consecutive_loss_timeouts, self.PTO_BACKOFF_EXPONENT_CAP)
        self._arm_loss_wake(self._probe_timeout() * (2.0 ** exponent))

    # ----------------------------------------------------------------- receive
    def datagram_received(self, payload: bytes | memoryview) -> None:
        """Process one incoming UDP payload carrying a QUIC packet.

        Raises :class:`~repro.quic.frames.PacketDecodeError`, having touched
        nothing, when ``payload`` is not a well-formed packet.
        """
        if self.closed:
            return
        packet_type, _, packet_number, offset, end = decode_header(payload)
        self.receive_packet(packet_type, packet_number, payload, offset, end, len(payload))

    def receive_packet(
        self,
        packet_type: int,
        packet_number: int,
        data: bytes | memoryview,
        offset: int,
        end: int,
        wire_size: int,
    ) -> None:
        """The receive loop: walk the frames of ``data[offset:end]`` in place.

        The endpoint has already parsed the header (see
        :func:`~repro.quic.packet.decode_header`).  Each frame is parsed into
        locals, then its handler is called with those scalars; no
        :class:`Packet` or frame object exists on this path.

        All or nothing: nothing is touched until the whole packet is known
        to be well formed.  The first frame is parsed completely before any
        effect; when it does not end the payload, the rest gets a bounds-only
        :func:`~repro.quic.frames.scan_frames` first.  A malformed packet
        raises :class:`~repro.quic.frames.PacketDecodeError` from there, so
        after :meth:`_packet_accepted` the loop cannot fail.
        """
        if self.closed:
            return
        from_bytes = int.from_bytes
        mask = _VALUE_MASK
        accepted = False
        ack_needed = False
        # Bounds are checked once per frame, not per read: reads only move
        # forward, so one that strays past ``end`` leaves ``offset > end``
        # (or runs off the buffer, an IndexError).  Two-byte varints (stream
        # ids, lengths and packet numbers from 64 to 16383) are by far the
        # common wide form, so the hot fields decode them arithmetically;
        # a slice for ``int.from_bytes`` allocates.
        while offset < end:
            try:
                frame_type = data[offset]
                if frame_type < 64:
                    offset += 1
                else:
                    frame_type, offset = decode_varint(data, offset)
                if frame_type == _STREAM:
                    stream_id = data[offset]
                    if stream_id < 64:
                        offset += 1
                    elif stream_id < 128:
                        stream_id = ((stream_id & 0x3F) << 8) | data[offset + 1]
                        offset += 2
                    else:
                        stop = offset + (1 << (stream_id >> 6))
                        stream_id = from_bytes(data[offset:stop], "big") & mask[stream_id >> 6]
                        offset = stop
                    stream_offset = data[offset]
                    if stream_offset < 64:
                        offset += 1
                    else:
                        stop = offset + (1 << (stream_offset >> 6))
                        stream_offset = (
                            from_bytes(data[offset:stop], "big") & mask[stream_offset >> 6]
                        )
                        offset = stop
                    fin = data[offset]
                    if fin < 64:
                        offset += 1
                    else:
                        fin, offset = decode_varint(data, offset)
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
                    stop = offset + length
                    if stop > end:
                        raise PacketDecodeError("truncated STREAM frame")
                    # The one slice.  ``bytes`` of it is the slice itself for
                    # a datagram's payload; a caller's memoryview is copied,
                    # so handlers always keep immutable bytes.
                    payload = bytes(data[offset:stop])
                    offset = stop
                elif frame_type == _ACK:
                    largest = data[offset]
                    if largest < 64:
                        offset += 1
                    elif largest < 128:
                        largest = ((largest & 0x3F) << 8) | data[offset + 1]
                        offset += 2
                    else:
                        stop = offset + (1 << (largest >> 6))
                        largest = from_bytes(data[offset:stop], "big") & mask[largest >> 6]
                        offset = stop
                    offset += 1 << (data[offset] >> 6)  # ack delay: unused
                elif frame_type == _ACK_RANGES:
                    largest, offset = decode_varint(data, offset)
                    offset += 1 << (data[offset] >> 6)  # ack delay: unused
                    count, offset = decode_varint(data, offset)
                    anchor = largest
                    descending = []
                    for _ in range(count):
                        if offset >= end:
                            raise PacketDecodeError("truncated ACK_RANGES frame")
                        gap, offset = decode_varint(data, offset)
                        span, offset = decode_varint(data, offset)
                        descending.append((anchor - gap - span, anchor - gap))
                        anchor -= gap + span
                    ranges = tuple(reversed(descending))
                elif frame_type == _PADDING:
                    while offset < end and data[offset] == 0:
                        offset += 1
                elif frame_type == _CRYPTO:
                    length, offset = decode_varint(data, offset)
                    stop = offset + length
                    if stop > end:
                        raise PacketDecodeError("truncated frame payload")
                    payload = bytes(data[offset:stop])
                    offset = stop
                elif frame_type == _CONNECTION_CLOSE:
                    code, offset = decode_varint(data, offset)
                    length, offset = decode_varint(data, offset)
                    stop = offset + length
                    if stop > end:
                        raise PacketDecodeError("truncated CONNECTION_CLOSE frame")
                    reason = str(data[offset:stop], "utf-8")
                    offset = stop
                elif frame_type != _PING and frame_type != _HANDSHAKE_DONE:
                    raise PacketDecodeError(f"unknown frame type: {frame_type:#x}")
                if offset > end:
                    raise PacketDecodeError("truncated frame: runs past the packet payload")
            except (IndexError, VarintError):
                raise PacketDecodeError("truncated frame: runs past the datagram") from None
            except UnicodeDecodeError:
                raise PacketDecodeError("CONNECTION_CLOSE reason is not UTF-8") from None
            if not accepted:
                if offset < end:
                    scan_frames(data, offset, end)
                accepted = True
                self._packet_accepted(packet_number, wire_size)
            # Dispatch, ordered by frequency: streams and acks carry
            # virtually all traffic.  Everything except ACKs and PADDING
            # makes the packet ack-eliciting.
            if frame_type == _STREAM:
                ack_needed = True
                self._on_stream_frame(packet_type, stream_id, stream_offset, payload, fin == 1)
                if self.closed:
                    return  # the frame was refused, or its reader closed
            elif frame_type == _ACK:
                self._on_ack(largest)
            elif frame_type == _ACK_RANGES:
                self._on_ack_ranges(ranges)
            elif frame_type != _PADDING:
                ack_needed = True
                if frame_type == _CRYPTO:
                    self._on_crypto(payload)
                elif frame_type == _CONNECTION_CLOSE:
                    self._handle_close(code, reason, send_close=False)
                # PING and HANDSHAKE_DONE carry nothing: the ACK suffices.
        if not accepted:
            self._packet_accepted(packet_number, wire_size)  # no frames at all
        if self.closed:
            return
        if ack_needed:
            self._send_ack()

    def _packet_accepted(self, packet_number: int, wire_size: int) -> None:
        """Account for a packet now known to be well formed."""
        statistics = self.statistics
        statistics.packets_received += 1
        statistics.bytes_received += wire_size
        self._idle_from = self._simulator.now
        # Every packet (ACK-only ones included — they occupy the same number
        # space) lands in the received-set, so a gap in it means a real drop.
        # The next number in order just extends the top run.
        ranges = self._received_ranges
        if ranges and packet_number == ranges[-1] + 1:
            ranges[-1] = packet_number
        else:
            self._record_received(packet_number)

    #: Once the received-set spans more packet numbers than this below its
    #: top, the oldest gap is forgiven (its runs are merged).  A gap that old
    #: cannot cancel a repair: the sender abandons a packet number at its
    #: first PTO and re-sends the frames under a fresh number, so nothing
    #: anywhere near this old is still awaiting acknowledgement.  Pruning
    #: bounds both the received-set memory and the ACK_RANGES wire size on
    #: long-lived lossy connections.
    RECEIVED_RANGES_HORIZON = 4096

    def _record_received(self, packet_number: int) -> None:
        """Merge ``packet_number`` into the received-set runs.

        ``ranges[i]`` / ``ranges[i + 1]`` (``i`` even) are one run's start
        and end, so merging two neighbouring runs deletes the end of the
        first and the start of the second.
        """
        ranges = self._received_ranges
        if not ranges:
            ranges += (packet_number, packet_number)
            return
        top = ranges[-1]
        if packet_number == top + 1:  # in-order fast path
            ranges[-1] = packet_number
            return
        if packet_number > top:  # jumped past a freshly dropped packet
            ranges += (packet_number, packet_number)
            horizon = self.RECEIVED_RANGES_HORIZON
            if packet_number - ranges[1] > horizon:
                while len(ranges) > 2 and ranges[-1] - ranges[1] > horizon:
                    ranges[2] = ranges[0]  # the oldest run folds into the next
                    del ranges[:2]
            return
        # A duplicate, or a retransmission landing below the top run.  Rare
        # (requires prior loss), so a linear walk over the few runs is fine.
        for index in range(0, len(ranges), 2):
            start = ranges[index]
            end = ranges[index + 1]
            if packet_number < start - 1:
                ranges[index:index] = (packet_number, packet_number)
                return
            if packet_number <= end + 1:
                if start <= packet_number <= end:
                    return  # duplicate
                if packet_number == start - 1:
                    ranges[index] = packet_number
                    if index > 0 and ranges[index - 1] + 1 == packet_number:
                        del ranges[index - 1 : index + 1]  # joins the run below
                else:  # packet_number == end + 1
                    ranges[index + 1] = packet_number
                    if index + 2 < len(ranges) and ranges[index + 2] == packet_number + 1:
                        del ranges[index + 1 : index + 3]  # joins the run above
                return

    def _send_ack(self) -> None:
        # Hand-assembled wire bytes (identical to encoding a one-AckFrame
        # Packet): an ACK rides every ack-eliciting packet, so this path runs
        # once per received data packet and skips the Packet/Frame objects.
        #
        # The idle timestamp is not touched: the only caller is
        # :meth:`receive_packet`, right after :meth:`_packet_accepted` stored
        # this same instant.
        buffer = bytearray(self._header_one_rtt)
        if not self.handshake_complete:
            buffer[0] = PacketType.INITIAL  # a handshake-time ACK
        append_varint(buffer, self._next_packet_number)
        self._next_packet_number += 1
        ranges = self._received_ranges
        if len(ranges) == 2 and ranges[0] == 0:
            # Gap-free from packet 0 (always the case on loss-free links, and
            # then ``ranges[1]`` is the packet just received): cumulative
            # ACK, byte-identical to what this path always produced.
            largest = ranges[1]
            # ACK frame: type (1 byte) + largest + delay varint 0 (1 byte) —
            # 3 to 10 bytes, so its length is always a one-byte varint.
            buffer.append(2 + varint_size(largest))
            buffer.append(0x02)  # FrameType.ACK
            append_varint(buffer, largest)
            buffer.append(0)  # ack delay
        else:
            # The received-set has a gap: acknowledge exactly what arrived.
            # Acking the dropped number cumulatively would cancel its
            # retransmission — one double drop would become a permanent
            # delivery hole (the bug this branch exists to close).
            frame = AckRangesFrame(
                largest=ranges[-1],
                delay_us=0,
                ranges=tuple(zip(ranges[::2], ranges[1::2])),
            )
            encoded = bytearray()
            frame.encode_into(encoded)
            append_varint(buffer, len(encoded))
            buffer += encoded
        self.statistics.packets_sent += 1
        self.statistics.bytes_sent += len(buffer)
        self._send(bytes(buffer), self.peer_address)

    # ---------------------------------------------------------- frame handlers
    def _on_stream_frame(
        self, packet_type: int, stream_id: int, offset: int, data: bytes, fin: bool
    ) -> None:
        if packet_type == _ZERO_RTT and not self.is_client:
            if not self.early_data_accepted and self.handshake_complete:
                return  # rejected early data is dropped
        if stream_id & 0x3 == (0x3 if self.is_client else 0x2):
            # A peer-initiated unidirectional stream: a data stream, which
            # always arrives whole (one offset-0 FIN frame, the only shape
            # send_encoded_stream sends).  It is completed without stream
            # state; the seen-record below is its duplicate suppression.
            sequence = stream_id >> 2
            floor = self._peer_uni_floor
            above = self._peer_uni_above
            if sequence == floor:
                floor += 1
                if above is not None:
                    while floor in above:
                        above.remove(floor)
                        floor += 1
                    if not above:
                        self._peer_uni_above = None  # a set never shrinks
                self._peer_uni_floor = floor
            elif sequence < floor or (above is not None and sequence in above):
                return  # late retransmission of a completed stream
            elif above is None:
                self._peer_uni_above = {sequence}
            else:
                above.add(sequence)
            if not fin or offset:
                self.close(TransportErrorCode.PROTOCOL_VIOLATION, "fragmented data stream")
            elif self.delegate is not None:
                self.delegate.stream_data_received(stream_id, data, True)
            return
        stream = self._stream
        if stream is None or stream_id:
            if stream_id == 0 and not self.is_client:
                # The client's first frame opens the one stream.
                stream = self._stream = QuicStream(0)
            elif stream_id & 0x1 == (0 if self.is_client else 0x1):
                # RFC 9000 §19.8: a locally initiated stream never opened.
                self.close(TransportErrorCode.STREAM_STATE_ERROR, f"stream {stream_id} not opened")
                return
            else:
                # RFC 9000 §4.6: the peer may open one bidirectional stream.
                self.close(TransportErrorCode.STREAM_LIMIT_ERROR, f"stream {stream_id} over limit")
                return
        delivered = stream.receive(offset, data, fin)
        if delivered is not None and self.delegate is not None:
            self.delegate.stream_data_received(stream_id, *delivered)

    def _on_ack(self, largest: int) -> None:
        # Cumulative ACK: the peer's received-set is gap-free from packet 0,
        # so everything at or below ``largest`` really was received.  The
        # ledger is filed in packet-number order, so those are its oldest
        # packets: the walk stops at the first one above ``largest`` and
        # costs what it acknowledges, not what is in flight.
        unacked = self._unacked
        if len(unacked) == 1:
            # One packet in flight (the fan-out steady state): a compare.
            (packet_number,) = unacked
            acked = (packet_number,) if packet_number <= largest else ()
        else:
            acked = []
            for packet_number in unacked:
                if packet_number > largest:
                    break
                acked.append(packet_number)
        self._apply_ack(acked)

    def _on_ack_ranges(self, ranges: tuple[tuple[int, int], ...]) -> None:
        # Exact ACK: the peer saw a gap; acknowledge only the listed ranges
        # so the dropped numbers stay unacked and the PTO machinery repairs
        # them.
        acked = [
            pn
            for pn in self._unacked
            if any(start <= pn <= end for start, end in ranges)
        ]
        self._apply_ack(acked)

    def _on_crypto(self, data: bytes) -> None:
        try:
            hello = ServerHello.from_bytes(data) if self.is_client else ClientHello.from_bytes(data)
        except HelloDecodeError as error:
            self.close(TransportErrorCode.PROTOCOL_VIOLATION, str(error))
            return
        if self.is_client:
            self._process_server_hello(hello)
        else:
            self._process_client_hello(hello)

    def _apply_ack(self, acked: "list[int] | tuple[int, ...]") -> None:
        self._consecutive_loss_timeouts = 0
        if self.liveness == LIVENESS_SUSPECT:
            # The peer answered after all: the suspicion was a false positive.
            self._set_liveness(LIVENESS_HEALTHY, "recovered")
        ledger = self._unacked
        now = self._simulator.now
        acked_pairs: list[tuple[int, int]] | None = [] if self._cc_active else None
        for packet_number in acked:
            record = ledger.pop(packet_number)
            self._smoothed_rtt = 0.875 * self._smoothed_rtt + 0.125 * (now - record.sent_at)
            if acked_pairs is not None:
                acked_pairs.append((packet_number, record.wire_size))
        if acked_pairs:
            self._cc.on_packets_acked(acked_pairs)
            if self._cwnd_blocked:
                self._flush_cwnd_blocked()
        if not ledger:
            # A dict never shrinks: a drained one still holds the table its
            # busiest burst grew, until it is cleared.
            ledger.clear()
            self._stop_loss_wake()
        else:
            self._arm_loss_wake(self._probe_timeout())

    # ------------------------------------------------------------------ timers
    def _arm_loss_wake(self, delay: float) -> None:
        """(Re)start the probe timeout to fire ``delay`` seconds from now.

        Lazy, as :meth:`Timer.start <repro.netsim.simulator.Timer.start>` is:
        pushing the deadline back (every ACK that leaves packets outstanding
        does) only stores it, and the armed wake re-arms itself for the
        remainder when it fires; pulling it in replaces the armed event.
        Every ``call_at`` therefore happens at the instant, and consumes the
        sequence number, that the timer's did.
        """
        deadline = self._simulator.now + delay
        event = self._loss_event
        self._loss_deadline = deadline
        if event is not None:
            if event.time <= deadline:
                return
            event.cancel()
        self._loss_event = self._simulator.call_at(deadline, self._on_loss_wake)

    def _stop_loss_wake(self) -> None:
        """Disarm the probe timeout (nothing is outstanding any more)."""
        event = self._loss_event
        if event is not None:
            event.cancel()
            self._loss_event = None
        self._loss_deadline = None

    def _on_loss_wake(self) -> None:
        deadline = self._loss_deadline
        if deadline > self._simulator.now:
            # The deadline was pushed back while the wake was armed.
            self._loss_event = self._simulator.call_at(deadline, self._on_loss_wake)
            return
        self._loss_event = None
        self._loss_deadline = None
        self._on_loss_timeout()

    def _on_idle_wake(self) -> None:
        deadline = self._idle_from + self.config.idle_timeout
        if deadline > self._simulator.now:
            # Packets moved since this wake was armed: sleep for the rest.
            self._idle_wake = self._simulator.call_at(deadline, self._on_idle_wake)
            return
        self._idle_wake = None
        # The only signal a silent peer ever gives is this wake finding the
        # deadline passed: with nothing in flight there are no probe
        # timeouts, so idle expiry *is* the in-band death notification (the
        # observer runs before the close teardown so it can react while the
        # state is still intact).
        self._set_liveness(LIVENESS_DEAD, "idle-timeout")
        self._handle_close(int(TransportErrorCode.NO_ERROR), "idle timeout", send_close=False)

    def _on_keepalive(self) -> None:
        if self.closed:
            return
        self.statistics.pings_sent += 1
        self._send_packet(
            PacketType.ONE_RTT if self.handshake_complete else PacketType.INITIAL,
            [PingFrame()],
        )
        if self.config.keepalive_interval is not None:
            self._keepalive_timer.start(self.config.keepalive_interval)

    # ------------------------------------------------------------------- close
    def close(self, code: int = TransportErrorCode.NO_ERROR, reason: str = "") -> None:
        """Close the connection, notifying the peer.

        ``code`` is a :class:`TransportErrorCode`, or the application's own
        (a MoQT session closes with its ``SessionErrorCode``).
        """
        if self.closed:
            return
        self._send_packet(
            PacketType.ONE_RTT if self.handshake_complete else PacketType.INITIAL,
            (ConnectionCloseFrame(error_code=int(code), reason=reason),),
            final=True,
        )
        self._handle_close(int(code), reason, send_close=False)

    def _handle_close(self, code: int, reason: str, send_close: bool) -> None:
        if self.closed:
            return
        self.closed = True
        # An announced close (local or via CONNECTION_CLOSE) ends liveness
        # tracking without telling the delegate: nothing was *detected*.
        # The transitions that arrived here through the detectors (idle
        # expiry, PTO give-up) already stamped their cause via _set_liveness.
        if self.liveness != LIVENESS_DEAD:
            self.liveness = LIVENESS_DEAD
            self.liveness_cause = "closed"
        self._teardown()
        if self.delegate is not None:
            self.delegate.connection_closed(code, reason)

    def _teardown(self) -> None:
        """Stop the timers, drop the window-blocked packets and empty the
        in-flight ledger (close and abandon)."""
        self._stop_loss_wake()
        wake = self._idle_wake
        if wake is not None:
            wake.cancel()
            self._idle_wake = None
        if self._keepalive_timer is not None:
            self._keepalive_timer.stop()
        # Never sent, so the controller never counted them.
        self._cwnd_blocked = ()
        # A closed connection can never retransmit, and its endpoint lists it
        # for good: drop the records (and the stream chunks they pin).
        ledger = self._unacked
        if ledger:
            if self._cc_active:
                self._cc.on_packets_discarded(
                    [(number, record.wire_size) for number, record in ledger.items()]
                )
            ledger.clear()

    def abandon(self) -> None:
        """Tear the connection down without sending a byte or firing callbacks.

        Models the process owning the connection vanishing (a crashed relay):
        the peer is never told, all timers die with the process, and no
        application callback observes the end — the peer can only find out
        through its own liveness machinery.  Used by fault injectors.
        """
        if self.closed:
            return
        self.closed = True
        if self.liveness != LIVENESS_DEAD:
            self.liveness = LIVENESS_DEAD
            self.liveness_cause = "abandoned"
        self._teardown()
