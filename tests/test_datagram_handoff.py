"""The per-datagram hand-off: send -> link -> receive (``docs/datagram-handoff.md``).

Four things are pinned here:

* the per-connection header template produces exactly ``Packet.encode()``;
* the idle timestamp schedules exactly what a ``netsim`` ``Timer`` restarted
  on every packet would (same deadlines, same ``call_at`` instants, same
  close instant);
* the in-order receive and single-outstanding ACK shortcuts agree with the
  general ``_record_received`` / list-comprehension paths;
* two frame budgets: the number of Python-level ``quic`` + ``netsim`` calls
  one delivered object costs, and of ``quic`` + ``moqt`` + ``netsim`` calls one
  attached, SUBSCRIBE_OK'd subscriber costs (``docs/quic-send.md`` § The
  control leg), so neither chain can silently regrow.
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
        connection._received_ranges = [[0, boundary - 1]]
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
        connection._received_ranges = [[0, 5], [8, boundary - 1]]  # 6 and 7 dropped
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
        connection.on_stream_data = lambda stream_id, data, fin: None
        connection.on_closed = lambda code, reason, log=closed_at[index]: log.append(simulator.now)
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


# --------------------------------------- (c) in-order / single-outstanding paths
def _loss_state(connection):
    timer = connection._loss_timer
    return (
        sorted((pn, record.sent_at) for pn, record in connection._unacked.items()),
        connection._smoothed_rtt,
        connection._largest_acked,
        connection._consecutive_loss_timeouts,
        timer.is_running,
        timer.deadline,
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
#: relay's own batching region inside the delivery's it was 49.1.
FRAME_BUDGET = 52

_MEASURED_CHAIN = """
per delivered object, data packet then its ACK (quic + netsim frames):
  send:    send_encoded_stream [make_stream_id] -> _send_stream [_EncodedStreamPacket,
           is_running, _probe_timeout, Timer.start -> call_at -> Event,
           append_varint x4] -> _send_payload -> Network.route
  link:    transmit_many -> (event) -> _arrive_many               [per wave, shared]
  receive: _deliver_final -> endpoint.datagram_received -> decode_header
           -> receive_packet -> _packet_accepted -> _on_stream_frame -> (moqt)
  ack:     _send_ack [append_varint x2, varint_size] -> _send_payload -> route
  ack rx:  _deliver_final -> datagram_received -> decode_header -> receive_packet
           -> _packet_accepted -> _on_ack -> _apply_ack [Timer.stop -> cancel
           -> _note_cancelled]
a new frame on this path must replace one, or the budget (and docs/datagram-handoff.md)
must say why it grew"""


#: Python-level ``repro.quic`` + ``repro.moqt`` + ``repro.netsim`` calls per
#: attached, SUBSCRIBE_OK'd subscriber on a one-relay, sixteen-subscriber star:
#: 397.9 measured on CPython 3.11 in a fresh process (247.6 quic + 62.9 moqt +
#: 87.3 netsim — the chain below, twelve datagrams long, plus a sixteenth of
#: the relay's own upstream attach), 394.5 once the control-message decode memo
#: is warm.  Before the one-pass control encoding it was 598.7 (399.6 + 73.6 +
#: 125.6); with the datagram pool 432.8, three netsim calls per datagram more.
ATTACH_FRAME_BUDGET = 406

_MEASURED_ATTACH_CHAIN = """
per attached subscriber: 2 handshake + 4 control packets, each answered by a bare ACK
(quic + moqt + netsim frames):
  connect:   endpoint.connect -> QuicConnection -> start_handshake [ClientHello.to_bytes]
             -> _send_packet [CryptoFrame.encode_into, append_varint x2 (header), _SentPacket,
             is_running, _probe_timeout, Timer.start -> call_at -> Event]
             -> _send_payload -> Network.route; the server's _accept ->
             _process_client_hello -> _send_packet likewise; MoqtSession x2, QuicStream x2
  encode:    ControlMessage.encode -> _append_payload [append_varint per field,
             FullTrackName.append_to -> TrackNamespace.append_to, Parameters.append_to]
             (SUBSCRIBE, SUBSCRIBE_OK; the two SETUPs are module constants)
  send:      MoqtSession._send_control -> send_stream_data -> QuicStream.write -> _send_stream
             [_EncodedStreamPacket, is_running, _probe_timeout, Timer.start,
             append_varint x4] -> _send_payload -> Network.route
             (CLIENT_SETUP waits for the handshake: _send_app_frames -> queue ->
             _flush_queued_app_frames -> _send_packet)
  receive:   _deliver_final -> endpoint.datagram_received -> decode_header -> receive_packet
             -> _packet_accepted -> _on_stream_frame -> QuicStream.receive ->
             _ReceiveBuffer.receive -> _finished -> MoqtSession._on_stream_data ->
             ControlStreamParser.feed -> decode_control_message [memo hit] ->
             _handle_control_message -> _handle_<message>
  ack:       _send_ack [append_varint x2, varint_size] -> _send_payload -> route
  ack rx:    _deliver_final -> datagram_received -> decode_header -> receive_packet ->
             _packet_accepted -> _on_ack -> _apply_ack [Timer.stop -> cancel ->
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


class _FrameCounter:
    """Counts Python-level calls into the named ``src/repro`` packages."""

    def __init__(self, *layers):
        self.calls = dict.fromkeys(layers, 0)

    def _profile(self, frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            for layer in self.calls:
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
        split = ", ".join(f"{layer} {count / per:.1f}" for layer, count in self.calls.items())
        return sum(self.calls.values()) / per, split


def test_frames_per_delivered_object_stay_within_budget():
    subscribers, objects = 8, 5
    simulator = Simulator(seed=3)
    publisher, tree = _star(simulator)
    tree.attach_subscribers(subscribers)
    delivered = []
    tree.subscribe_all(TRACK, on_object=lambda subscriber, obj: delivered.append(obj.group_id))
    simulator.run(until=simulator.now + 3.0)

    with _FrameCounter("quic", "netsim") as counter:
        for update in range(objects):
            publisher.push(MoqtObject(group_id=update + 2, object_id=0, payload=b"x" * 300))
            simulator.run(until=simulator.now + 0.25)

    assert len(delivered) == subscribers * objects
    per_object, split = counter.report(len(delivered))
    print(f"\nframes per delivered object: {per_object:.1f} ({split}); budget {FRAME_BUDGET}")
    assert per_object <= FRAME_BUDGET, (
        f"{per_object:.1f} quic+netsim calls per delivered object ({split} over "
        f"{len(delivered)} deliveries) exceeds the budget of {FRAME_BUDGET}.{_MEASURED_CHAIN}"
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
