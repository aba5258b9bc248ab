"""The per-datagram hand-off: send -> link -> receive (``docs/datagram-handoff.md``).

Five things are pinned here:

* the per-connection header template produces exactly ``Packet.encode()``;
* the idle timestamp schedules exactly what a ``netsim`` ``Timer`` restarted
  on every packet would (same deadlines, same ``call_at`` instants, same
  close instant);
* the connection's own probe-timeout wake schedules exactly what the
  ``Timer`` it replaced did, driven by the same arm / stop calls (same
  deadlines, same ``call_at`` instants, same fire instants, same packets);
* the in-order receive and single-outstanding ACK shortcuts agree with the
  general ``_record_received`` / list-comprehension paths;
* three call budgets: the number of Python-level ``quic`` + ``netsim`` calls
  one delivered object costs, of ``moqt`` + ``relaynet`` calls (their
  dataclass- and ``NamedTuple``-generated methods included) the same object
  costs on its way up to the application (the upward leg), and of ``quic`` +
  ``moqt`` + ``netsim`` calls one attached, SUBSCRIBE_OK'd subscriber costs
  (``docs/quic-send.md`` § The control leg), so no chain can silently regrow.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator, Timer
from repro.quic.congestion import NewRenoCongestionController
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.frames import AckFrame, AckRangesFrame, PingFrame, StreamFrame
from repro.quic.packet import Packet, PacketType
from repro.relaynet import RelayTreeBuilder, RelayTreeSpec

from connection_delegate import delegate_to

#: One connection id per varint width (1, 2, 4 and 8 bytes).
CONNECTION_IDS = (37, 300, 70_000, (3 << 48) | 424242)
#: The last value of each varint width that has a wider successor.
WIDTH_BOUNDARIES = (63, 16383, (1 << 30) - 1)


def _connection(simulator, sent, connection_id=77, config=None):
    connection = QuicConnection(
        simulator=simulator,
        send_datagram=lambda payload, destination: sent.append(bytes(payload)),
        local_address=Address("local", 1),
        peer_address=Address("peer", 2),
        connection_id=connection_id,
        is_client=True,
        config=config or ConnectionConfig(),
    )
    connection.handshake_complete = True
    return connection


# --------------------------------------------------------- (a) header template
class TestHeaderTemplate:
    """``send_encoded_stream`` and ``_send_ack`` against ``Packet.encode()``."""

    @pytest.mark.parametrize("connection_id", CONNECTION_IDS)
    @pytest.mark.parametrize("boundary", WIDTH_BOUNDARIES)
    def test_stream_packets_across_packet_number_widths(self, connection_id, boundary):
        sent: list[bytes] = []
        connection = _connection(Simulator(), sent, connection_id)
        connection._next_packet_number = boundary
        chunk = b"object-bytes" * 9
        stream_ids = [connection.send_encoded_stream(chunk) for _ in range(2)]
        assert sent == [
            Packet(
                PacketType.ONE_RTT,
                connection_id,
                boundary + step,
                (StreamFrame(stream_ids[step], 0, chunk, True),),
            ).encode()
            for step in range(2)
        ]

    @pytest.mark.parametrize("connection_id", CONNECTION_IDS)
    @pytest.mark.parametrize("boundary", WIDTH_BOUNDARIES)
    @pytest.mark.parametrize("handshake_complete", [True, False])
    def test_cumulative_acks_across_widths_and_packet_types(
        self, connection_id, boundary, handshake_complete
    ):
        # Own packet number and acknowledged ``largest`` cross the same width
        # boundary; before the handshake completes the ACK is INITIAL-typed.
        sent: list[bytes] = []
        connection = _connection(Simulator(), sent, connection_id)
        connection.handshake_complete = handshake_complete
        connection._next_packet_number = boundary
        connection._received_ranges = [0, boundary - 1]
        packet_type = PacketType.ONE_RTT if handshake_complete else PacketType.INITIAL
        for step in range(2):
            connection.datagram_received(
                Packet(packet_type, connection_id, boundary + step, (PingFrame(),)).encode()
            )
        assert sent == [
            Packet(
                packet_type, connection_id, boundary + step, (AckFrame(boundary + step),)
            ).encode()
            for step in range(2)
        ]

    @pytest.mark.parametrize("connection_id", CONNECTION_IDS)
    @pytest.mark.parametrize("boundary", WIDTH_BOUNDARIES)
    def test_ack_ranges_form_across_widths(self, connection_id, boundary):
        sent: list[bytes] = []
        connection = _connection(Simulator(), sent, connection_id)
        connection._next_packet_number = boundary
        connection._received_ranges = [0, 5, 8, boundary - 1]  # 6 and 7 dropped
        for step in range(2):
            connection.datagram_received(
                Packet(
                    PacketType.ONE_RTT, connection_id, boundary + step, (PingFrame(),)
                ).encode()
            )
        assert sent == [
            Packet(
                PacketType.ONE_RTT,
                connection_id,
                boundary + step,
                (AckRangesFrame(boundary + step, 0, ((0, 5), (8, boundary + step))),),
            ).encode()
            for step in range(2)
        ]


# ------------------------------------------------------------ (b) idle deadline
class _RecordingSimulator(Simulator):
    """Remembers every ``call_at``: ``(instant, callback owner, name)``."""

    def __init__(self) -> None:
        super().__init__(seed=5)
        self.scheduled: list[tuple[float, object, str]] = []

    def call_at(self, when, callback, *args):
        self.scheduled.append(
            (when, getattr(callback, "__self__", None), getattr(callback, "__name__", ""))
        )
        return super().call_at(when, callback, *args)

    def instants(self, owner, name):
        return [when for when, who, what in self.scheduled if who is owner and what == name]


class _TimerIdleModel:
    """The reference: a lazy ``Timer`` restarted on every packet a connection
    sends or accepts — what the idle timeout was before it became a
    timestamp.  It lives in the connection's own simulator and is armed right
    after the connection, so its wake always sits next to the connection's in
    the event order and same-instant ties resolve identically for both."""

    def __init__(self, simulator, idle_timeout):
        self.simulator = simulator
        self.idle_timeout = idle_timeout
        self.fired_at: float | None = None
        self.timer = Timer(simulator, self._fired)
        self.timer.start(idle_timeout)

    def _fired(self):
        self.fired_at = self.simulator.now

    def packet(self):
        if self.fired_at is None:
            self.timer.start(self.idle_timeout)

    @property
    def deadline(self):
        return self.timer.deadline


PIPE_DELAY = 0.125
IDLE_TIMEOUT = 1.0
#: Binary fractions, so op instants, arrivals and idle deadlines collide
#: exactly and the same-instant order is exercised, not avoided.
GAPS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 0.875, 1.0)


def _idle_pair(simulator):
    """Two connections joined by a fixed-delay pipe, each shadowed by a
    ``_TimerIdleModel`` that is told about every send and accepted receive."""
    config = ConnectionConfig(idle_timeout=IDLE_TIMEOUT, initial_rtt=0.2)
    sides: list[tuple[QuicConnection, _TimerIdleModel]] = []
    closed_at: list[list[float]] = [[], []]

    def deliver(index, payload):
        connection, model = sides[index]
        if connection.closed:
            return
        model.packet()  # accepted receive
        connection.datagram_received(payload)
        _assert_same_deadline(connection, model)

    def make_sender(index):
        def send(payload, destination):
            sides[index][1].packet()  # send (an ACK reply restarts a second time)
            simulator.call_later(PIPE_DELAY, deliver, 1 - index, bytes(payload))

        return send

    for index in range(2):
        connection = QuicConnection(
            simulator=simulator,
            send_datagram=make_sender(index),
            local_address=Address(f"side-{index}", 1),
            peer_address=Address(f"side-{1 - index}", 1),
            connection_id=77,
            is_client=index == 0,
            config=config,
        )
        connection.handshake_complete = True
        delegate_to(
            connection,
            on_stream_data=lambda stream_id, data, fin: None,
            on_closed=lambda code, reason, log=closed_at[index]: log.append(simulator.now),
        )
        sides.append((connection, _TimerIdleModel(simulator, IDLE_TIMEOUT)))
    return sides, closed_at


def _assert_same_deadline(connection, model):
    assert connection.idle_deadline == model.deadline
    assert connection.closed == (model.fired_at is not None)


class TestIdleTimestamp:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(GAPS),
                st.integers(min_value=0, max_value=1),
                st.sampled_from(["stream", "datagram"]),
            ),
            max_size=14,
        )
    )
    def test_deadlines_wakes_and_close_instants_match_a_restarted_timer(self, schedule):
        simulator = _RecordingSimulator()
        sides, closed_at = _idle_pair(simulator)
        for gap, index, kind in schedule:
            simulator.run(until=simulator.now + gap)
            connection = sides[index][0]
            if not connection.closed:
                if kind == "stream":
                    connection.send_encoded_stream(b"payload")
                else:
                    connection.send_datagram_frame(b"payload")
            for side in sides:
                _assert_same_deadline(*side)
        simulator.run_until_idle()
        for index, (connection, model) in enumerate(sides):
            assert connection.close_reason == "idle timeout"
            assert closed_at[index] == [model.fired_at]
            # The same wakes at the same instants, hence as many events: the
            # connection consumed exactly the sequence numbers the timer did,
            # so the order of same-instant events cannot have drifted.
            assert simulator.instants(connection, "_on_idle_wake") == simulator.instants(
                model.timer, "_fire"
            )
        assert simulator.pending_events == 0

    @pytest.mark.parametrize("end", ["close", "abandon"])
    def test_close_and_abandon_cancel_the_wake(self, end):
        simulator = Simulator()
        connection = _connection(simulator, [])
        assert simulator.pending_events == 1  # the idle wake, nothing else
        assert connection.idle_deadline == ConnectionConfig().idle_timeout
        getattr(connection, end)()
        assert simulator.pending_events == 0
        assert connection.idle_deadline is None

    def test_send_restarts_the_deadline_without_scheduling(self):
        simulator = Simulator()
        connection = _connection(simulator, [], config=ConnectionConfig(idle_timeout=4.0))
        simulator.run(until=1.5)
        connection.send_datagram_frame(b"x")  # unreliable: arms no loss timer
        assert connection.idle_deadline == 5.5
        assert simulator.events_scheduled == 1
        simulator.run(until=4.5)
        assert not connection.closed and simulator.events_scheduled == 2  # re-armed once
        simulator.run(until=6.0)
        assert connection.closed and connection.liveness_cause == "idle-timeout"


# --------------------------------------------------- (b') probe-timeout wake
class _LossLog(QuicConnection):
    """A connection that notes the instant of every probe timeout."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.fired: list[float] = []

    def _on_loss_timeout(self):
        self.fired.append(self._simulator.now)
        super()._on_loss_timeout()


class _TimerLoss(_LossLog):
    """The reference: the probe timeout as the restartable ``Timer`` it was
    before the connection owned its wake, driven by the same arm / stop
    calls.  ``_loss_event`` mirrors "the timer is running", which is what the
    send paths test before arming."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.timer = Timer(self._simulator, self._timer_fired)

    def _arm_loss_wake(self, delay):
        self.timer.start(delay)
        self._loss_event = self.timer._event

    def _stop_loss_wake(self):
        self.timer.stop()
        self._loss_event = None

    def _timer_fired(self):
        self._loss_event = None
        self._on_loss_timeout()

    @property
    def loss_deadline(self):
        return self.timer.deadline


_LOSS_STEP = st.one_of(
    st.just(("stream",)),
    st.just(("datagram",)),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 0.01, 0.05, 0.125, 0.25, 0.6])),
    st.tuples(st.just("ack"), st.integers(min_value=-1, max_value=3)),
    st.tuples(st.just("ack_ranges"), st.integers(min_value=1, max_value=15)),
)


class TestLossWake:
    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.lists(_LOSS_STEP, max_size=30))
    def test_deadlines_wakes_and_fire_instants_match_a_restarted_timer(
        self, congestion_control, steps
    ):
        config = ConnectionConfig(
            initial_rtt=0.05,
            idle_timeout=1e6,
            congestion_controller=NewRenoCongestionController if congestion_control else None,
        )
        sides = []
        for cls in (_LossLog, _TimerLoss):
            simulator = _RecordingSimulator()
            sent: list[tuple[float, bytes]] = []
            connection = cls(
                simulator=simulator,
                send_datagram=lambda payload, destination, sent=sent, simulator=simulator: (
                    sent.append((simulator.now, bytes(payload)))
                ),
                local_address=Address("local", 1),
                peer_address=Address("peer", 2),
                connection_id=77,
                is_client=True,
                config=config,
            )
            connection.handshake_complete = True
            sides.append((simulator, connection, sent))
        (_, owned, owned_sent), (_, reference, reference_sent) = sides
        peer_packet_number = 0
        for step in steps:
            outstanding = sorted(owned._unacked)
            frame = None
            if step[0] == "ack":
                base = outstanding[0] if outstanding else owned._next_packet_number
                frame = AckFrame(max(0, base + step[1]), 0)
            elif step[0] == "ack_ranges":
                chosen = [pn for bit, pn in enumerate(outstanding[:4]) if step[1] >> bit & 1]
                if chosen:
                    frame = AckRangesFrame(chosen[-1], 0, tuple((pn, pn) for pn in chosen))
            for simulator, connection, _ in sides:
                if connection.closed:
                    continue
                if step[0] == "stream":
                    connection.send_encoded_stream(b"chunk" * 20)
                elif step[0] == "datagram":
                    connection.send_datagram_frame(b"d" * 40)
                elif step[0] == "wait":
                    simulator.run(until=simulator.now + step[1])
                elif frame is not None:
                    connection.datagram_received(
                        Packet(PacketType.ONE_RTT, 77, peer_packet_number, (frame,)).encode()
                    )
            if frame is not None:
                peer_packet_number += 1
            assert owned.loss_deadline == reference.loss_deadline
            assert owned.fired == reference.fired and owned_sent == reference_sent
        for simulator, _, _ in sides:
            # Long enough for eight backed-off probes at any RTT a wait can
            # sample: every probe fires, and the wake ends acknowledged or
            # given up.
            simulator.run(until=simulator.now + 1000.0)
        assert owned.fired == reference.fired and owned_sent == reference_sent
        assert owned.loss_deadline is None and reference.loss_deadline is None
        # The same wakes at the same instants, hence as many events: the
        # owned wake consumed exactly the sequence numbers the timer did.
        (owned_simulator, _, _), (reference_simulator, _, _) = sides
        assert owned_simulator.instants(owned, "_on_loss_wake") == reference_simulator.instants(
            reference.timer, "_fire"
        )
        assert owned_simulator.events_scheduled == reference_simulator.events_scheduled


# --------------------------------------- (c) in-order / single-outstanding paths
def _loss_state(connection):
    return (
        sorted((pn, record.sent_at) for pn, record in connection._unacked.items()),
        connection._smoothed_rtt,
        connection._largest_acked,
        connection._consecutive_loss_timeouts,
        connection.loss_deadline is not None,
        connection.loss_deadline,
        connection.congestion.bytes_in_flight,
        connection.congestion.congestion_window,
    )


class TestReceiveAndAckShortcuts:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=24), max_size=60))
    def test_packet_accepted_matches_record_received(self, arrivals):
        # Random arrival orders with duplicates and gaps; a low ceiling on the
        # numbers makes in-order runs, merges and duplicates all common.
        accepted = _connection(Simulator(), [])
        reference = _connection(Simulator(), [])
        for packet_number in arrivals:
            accepted._packet_accepted(packet_number, 10)
            reference._record_received(packet_number)
            assert accepted._received_ranges == reference._received_ranges
        assert accepted.statistics.packets_received == len(arrivals)

    def test_packet_accepted_prunes_like_record_received(self):
        accepted = _connection(Simulator(), [])
        reference = _connection(Simulator(), [])
        horizon = QuicConnection.RECEIVED_RANGES_HORIZON
        for packet_number in (0, 1, 3, 4, horizon + 3, horizon + 4, horizon + 9, horizon + 10):
            accepted._packet_accepted(packet_number, 10)
            reference._record_received(packet_number)
            assert accepted._received_ranges == reference._received_ranges

    @settings(max_examples=150, deadline=None)
    @given(
        st.booleans(),
        st.lists(
            st.one_of(
                st.just(("send",)),
                st.tuples(st.just("wait"), st.sampled_from([0.0, 0.01, 0.03, 0.07])),
                st.tuples(st.just("ack"), st.integers(min_value=-1, max_value=3)),
            ),
            max_size=30,
        ),
    )
    def test_on_ack_matches_the_list_comprehension(self, congestion_control, steps):
        # Twin connections in one simulator: one takes ACKs through _on_ack,
        # the other through the general expression it used to be.  "ack"
        # carries ``largest`` relative to the oldest outstanding packet, so
        # zero, one and several outstanding packets and stale ACKs all occur.
        simulator = Simulator()
        config = ConnectionConfig(
            initial_rtt=0.05,
            congestion_controller=NewRenoCongestionController if congestion_control else None,
        )
        fast = _connection(simulator, [], config=config)
        general = _connection(simulator, [], config=config)
        for step in steps:
            if step[0] == "send":
                fast.send_encoded_stream(b"chunk" * 20)
                general.send_encoded_stream(b"chunk" * 20)
            elif step[0] == "wait":
                simulator.run(until=simulator.now + step[1])
            else:
                oldest = min(fast._unacked, default=fast._next_packet_number)
                largest = max(0, oldest + step[1])
                fast._on_ack(largest)
                general._apply_ack([pn for pn in general._unacked if pn <= largest], largest)
            assert _loss_state(fast) == _loss_state(general)


# ------------------------------------------------------------- the frame budget
#: Python-level ``repro.quic`` + ``repro.netsim`` calls per delivered object on
#: a one-relay, eight-subscriber star: 48.9 measured on CPython 3.11 (33.2 quic
#: + 15.6 netsim — the chain below, the publisher -> relay hop every object
#: also makes, and the per-wave frames eight deliveries share).  CPython 3.12
#: inlines comprehensions and measures lower.  PR 16's parent measured 79.5,
#: PR 23's 57.0: the stream writer became a call of its own (+1) and sizes its
#: one- and two-byte varints inline (-2).  With the datagram pool it was 55.9:
#: ``acquire_buffer``, ``pool.acquire`` and ``_reclaim`` per datagram.  With the
#: relay's own batching region inside the delivery's it was 49.1.  Before the
#: session became the connection's delegate, with ``make_stream_id`` a call, it
#: was 48.9 (33.2 quic) against a budget of 52; then 47.8 (32.1 quic + 15.6
#: netsim).  Now 46.6 (34.4 + 12.3): the probe timeout is the connection's own
#: wake, so a data packet's ``is_running`` + ``Timer.start`` and its ACK's
#: ``Timer.stop`` (three netsim frames) became ``_arm_loss_wake`` and
#: ``_stop_loss_wake`` (two quic frames).
FRAME_BUDGET = 51

_MEASURED_CHAIN = """
per delivered object, data packet then its ACK (quic + netsim frames):
  send:    send_encoded_stream -> _send_stream [_EncodedStreamPacket,
           _probe_timeout, _arm_loss_wake -> call_at -> Event,
           append_varint x4] -> _send_payload -> Network.route
  link:    transmit_many -> (event) -> _arrive_many               [per wave, shared]
  receive: Host.__call__ (the link's sink) -> endpoint.datagram_received -> decode_header
           -> receive_packet -> _packet_accepted -> _on_stream_frame -> (moqt)
  ack:     _send_ack [append_varint x2, varint_size] -> _send_payload -> route
  ack rx:  Host.__call__ -> datagram_received -> decode_header -> receive_packet
           -> _packet_accepted -> _on_ack -> _apply_ack [_stop_loss_wake -> cancel
           -> _note_cancelled]
a new frame on this path must replace one, or the budget (and docs/datagram-handoff.md)
must say why it grew"""


#: Python-level ``repro.moqt`` + ``repro.relaynet`` calls per delivered object
#: on the same star, counting the generated methods (``<string>`` frames:
#: dataclass ``__init__`` / ``__hash__`` / ``__gt__``, a ``NamedTuple``'s
#: ``__new__``) of those packages' classes as theirs — netsim's ``Datagram``
#: ``__init__`` is netsim's and not counted here.  8.5 measured on CPython 3.11
#: (6.9 in ``moqt`` files + 0.6 generated + 1.0 ``relaynet``: the chain below,
#: one ``publish`` per subscriber, and an eighth of the relay's and origin's
#: per-object frames).  It read 7.5, no ``relaynet`` frame, while the
#: application sink was ``partial(on_object, subscriber)``, called in C; the
#: ``SubscriberSink`` that replaced it, one slotted object per followed track
#: instead of three blocks, is one frame.  It read 8.4 while ``decode_complete_datastream`` held
#: the decode memo, one frame per delivered object for the lookup; the session
#: now probes its simulation's table itself.
#: Before the session became the connection's delegate and the receiver the
#: subscription's it was 18.9 (12.25 + 5.6 generated + 1.0 ``relaynet``):
#: ``_deliver``, the subscriber's ``sink`` closure, ``_require_open``, ``size``
#: x2, and ``Location``'s dataclass ``__hash__`` / ``__gt__`` (five per object).
UPWARD_BUDGET = 9

_MEASURED_UPWARD_CHAIN = """
per delivered object, upward leg (moqt + relaynet frames, generated methods included):
  receive: (quic _on_stream_frame) -> MoqtSession.stream_data_received
           [the simulation's stream memo: a dict probe] -> _deliver_subscribed_object
           -> TrackReceiver.on_object [hold-back, dedupe, largest, span check]
           -> SubscriberSink.__call__ -> application
  send:    publish_to -> MoqtSession.publish [closed check, len(payload), encode memo]
           -> (quic send_encoded_stream)                        [per subscriber, at the relay]
  relay:   stream_data_received -> decode -> _deliver_subscribed_object -> RelayTrack.on_object
           -> TrackReceiver.on_object -> _forward_to_downstream -> TrackState.publish
           -> _enforce_retention; encode_subgroup_stream_chunk   [per object, shared]
  origin:  push -> TrackState.publish -> publish_to -> publish -> encode   [per object, shared]
Location hashes and compares in C (a NamedTuple); a new frame on this path must replace
one, or the budget (and docs/datagram-handoff.md) must say why it grew"""


#: Python-level ``repro.quic`` + ``repro.moqt`` + ``repro.netsim`` calls per
#: attached, SUBSCRIBE_OK'd subscriber on a one-relay, sixteen-subscriber star:
#: 402.4 measured on CPython 3.11 (245.5 quic + 69.6 moqt + 87.3 netsim — the
#: chain below, twelve datagrams long, plus a sixteenth of the relay's own
#: upstream attach), in a fresh process and in a full run alike, since every
#: simulation decodes through its own memo.  While the control-message memo
#: was process-wide it read 395.8 in a fresh process (62.9 moqt) and 392.4 once
#: the memo was warm: the memo lookup moved out of the pure decoder into the
#: session's parser, so a received message is framed and then looked up in two
#: frames instead of one (+4 per subscriber), and a session builds its parser
#: in two (+2); 397.9 / 394.5 while a control stream's data went through a
#: callback installed on the stream.  Before the one-pass control encoding it was 598.7 (399.6 + 73.6 +
#: 125.6); with the datagram pool 432.8, three netsim calls per datagram more.
#: It read 393.0 (242.5 + 63.2 + 87.3) before the connection owned its probe
#: timeout and a stream kept its receive state itself; now 373.9 (241.4 +
#: 63.2 + 69.3): the ``Timer`` frames (netsim) are gone, the owned wake's
#: (quic) replace them one for one or less, and a received control message no
#: longer passes ``_ReceiveBuffer.receive`` and ``_finished``.
ATTACH_FRAME_BUDGET = 406

_MEASURED_ATTACH_CHAIN = """
per attached subscriber: 2 handshake + 4 control packets, each answered by a bare ACK
(quic + moqt + netsim frames):
  connect:   endpoint.connect -> QuicConnection -> start_handshake [ClientHello.to_bytes]
             -> _send_packet [CryptoFrame.encode_into, append_varint x2 (header), _SentPacket,
             _probe_timeout, _arm_loss_wake -> call_at -> Event]
             -> _send_payload -> Network.route; the server's _accept ->
             _process_client_hello -> _send_packet likewise; MoqtSession x2, QuicStream x2
  encode:    ControlMessage.encode -> _append_payload [append_varint per field,
             FullTrackName.append_to -> TrackNamespace.append_to, Parameters.append_to]
             (SUBSCRIBE, SUBSCRIBE_OK; the two SETUPs are module constants)
  send:      MoqtSession._send_control -> send_stream_data -> QuicStream.write -> _send_stream
             [_EncodedStreamPacket, _probe_timeout, _arm_loss_wake,
             append_varint x4] -> _send_payload -> Network.route
             (CLIENT_SETUP waits for the handshake: _send_app_frames -> queue ->
             _flush_queued_app_frames -> _send_packet)
  receive:   Host.__call__ -> endpoint.datagram_received -> decode_header -> receive_packet
             -> _packet_accepted -> _on_stream_frame [QuicStream.receive]
             -> MoqtSession.stream_data_received ->
             ControlStreamParser.feed -> read_control_frame [memo hit] ->
             _handle_control_message -> _handle_<message>
  ack:       _send_ack [append_varint x2, varint_size] -> _send_payload -> route
  ack rx:    Host.__call__ -> datagram_received -> decode_header -> receive_packet ->
             _packet_accepted -> _on_ack -> _apply_ack [_stop_loss_wake -> cancel ->
             _note_cancelled]
a new frame on this path must replace one, or the budget (and docs/quic-send.md) must say
why it grew"""


def _star(simulator):
    network = Network(simulator)
    publisher = build_origin(network)
    tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(
        RelayTreeSpec.star(1)
    )
    return publisher, tree


def _generated_owner(frame):
    """The ``repro`` package of the class a generated method belongs to (its
    first argument is an instance or, for ``__new__``, the class), else None."""
    code = frame.f_code
    if not code.co_argcount:
        return None
    first = frame.f_locals.get(code.co_varnames[0])
    owner = first if isinstance(first, type) else type(first)
    parts = owner.__module__.split(".")
    return parts[1] if len(parts) > 2 and parts[0] == "repro" else None


class _FrameCounter:
    """Counts Python-level calls into the named ``src/repro`` packages; with
    ``generated``, also the generated methods of those packages' classes."""

    def __init__(self, *layers, generated=False):
        self.layers = layers
        self.calls = dict.fromkeys(layers, 0)
        if generated:
            self.calls["generated"] = 0

    def _profile(self, frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename == "<string>":
                if "generated" in self.calls and _generated_owner(frame) in self.layers:
                    self.calls["generated"] += 1
                return
            for layer in self.layers:
                if f"/repro/{layer}/" in filename:
                    self.calls[layer] += 1
                    return

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc_info):
        sys.setprofile(None)

    def report(self, per):
        """``(calls per op, "layer total, layer total, ...")``."""
        split = ", ".join(f"{layer} {count / per:.2f}" for layer, count in self.calls.items())
        return sum(self.calls.values()) / per, split


def _fanned_out_star(counter, payload):
    """Eight subscribers on a one-relay star, five objects of ``payload``
    pushed inside ``counter``; returns the delivered group ids.  The object
    decode memo is the simulation's, so what other tests pushed before does
    not change the count."""
    subscribers, objects = 8, 5
    simulator = Simulator(seed=3)
    publisher, tree = _star(simulator)
    tree.attach_subscribers(subscribers)
    delivered = []
    tree.subscribe_all(TRACK, on_object=lambda subscriber, obj: delivered.append(obj.group_id))
    simulator.run(until=simulator.now + 3.0)

    with counter:
        for update in range(objects):
            publisher.push(MoqtObject(group_id=update + 2, object_id=0, payload=payload))
            simulator.run(until=simulator.now + 0.25)

    assert len(delivered) == subscribers * objects
    return delivered


def test_frames_per_delivered_object_stay_within_budget():
    counter = _FrameCounter("quic", "netsim")
    delivered = _fanned_out_star(counter, b"x" * 300)
    per_object, split = counter.report(len(delivered))
    print(f"\nframes per delivered object: {per_object:.1f} ({split}); budget {FRAME_BUDGET}")
    assert per_object <= FRAME_BUDGET, (
        f"{per_object:.1f} quic+netsim calls per delivered object ({split} over "
        f"{len(delivered)} deliveries) exceeds the budget of {FRAME_BUDGET}.{_MEASURED_CHAIN}"
    )


def test_upward_calls_per_delivered_object_stay_within_budget():
    counter = _FrameCounter("moqt", "relaynet", generated=True)
    # The reading (8.5) is the same in a full run, and one more frame per
    # object exceeds the budget.
    delivered = _fanned_out_star(counter, b"upward leg " * 27 + b"...")
    per_object, split = counter.report(len(delivered))
    print(
        f"\nupward calls per delivered object: {per_object:.2f} ({split}); "
        f"budget {UPWARD_BUDGET}"
    )
    assert per_object <= UPWARD_BUDGET, (
        f"{per_object:.2f} moqt+relaynet calls per delivered object ({split} over "
        f"{len(delivered)} deliveries) exceeds the budget of {UPWARD_BUDGET}."
        f"{_MEASURED_UPWARD_CHAIN}"
    )


def test_frames_per_attached_subscriber_stay_within_budget():
    subscribers = 16
    simulator = Simulator(seed=3)
    _, tree = _star(simulator)

    with _FrameCounter("quic", "moqt", "netsim") as counter:
        tree.attach_subscribers(subscribers)
        subscriptions = tree.subscribe_all(TRACK, on_object=lambda subscriber, obj: None)
        simulator.run(until=simulator.now + 3.0)

    assert sum(subscription.is_active for subscription in subscriptions) == subscribers
    per_subscriber, split = counter.report(subscribers)
    print(
        f"\nframes per attached subscriber: {per_subscriber:.1f} ({split}); "
        f"budget {ATTACH_FRAME_BUDGET}"
    )
    assert per_subscriber <= ATTACH_FRAME_BUDGET, (
        f"{per_subscriber:.1f} quic+moqt+netsim calls per attached subscriber ({split} over "
        f"{subscribers} subscribers) exceeds the budget of {ATTACH_FRAME_BUDGET}."
        f"{_MEASURED_ATTACH_CHAIN}"
    )
