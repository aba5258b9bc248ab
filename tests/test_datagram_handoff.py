"""The per-datagram hand-off: send -> link -> receive (``docs/datagram-handoff.md``).

Four things are pinned here (the calls one delivered object and one attached
subscriber cost are rows of the exact-cost ledger, ``tests/exact/``):

* the per-connection header template produces exactly ``Packet.encode()``;
* the idle timestamp schedules exactly what a ``netsim`` ``Timer`` restarted
  on every packet would (same deadlines, same ``call_at`` instants, same
  close instant);
* the connection's own probe-timeout wake schedules exactly what the
  ``Timer`` it replaced did, driven by the same arm / stop calls (same
  deadlines, same ``call_at`` instants, same fire instants, same packets);
* the in-order receive and single-outstanding ACK shortcuts agree with the
  general ``_record_received`` / list-comprehension paths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator, Timer
from repro.quic.congestion import NewRenoCongestionController
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.frames import AckFrame, AckRangesFrame, PaddingFrame, PingFrame, StreamFrame
from repro.quic.packet import Packet, PacketType

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
            st.tuples(st.sampled_from(GAPS), st.integers(min_value=0, max_value=1)),
            max_size=14,
        )
    )
    def test_deadlines_wakes_and_close_instants_match_a_restarted_timer(self, schedule):
        simulator = _RecordingSimulator()
        sides, closed_at = _idle_pair(simulator)
        for gap, index in schedule:
            simulator.run(until=simulator.now + gap)
            connection = sides[index][0]
            if not connection.closed:
                connection.send_encoded_stream(b"payload")
            for side in sides:
                _assert_same_deadline(*side)
        simulator.run()
        for index, (connection, model) in enumerate(sides):
            assert connection.closed and connection.liveness_cause == "idle-timeout"
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

    def test_a_received_packet_restarts_the_deadline_without_scheduling(self):
        simulator = Simulator()
        connection = _connection(simulator, [], config=ConnectionConfig(idle_timeout=4.0))
        simulator.run(until=1.5)
        # Padding only: nothing to acknowledge, so nothing is sent back.
        connection.datagram_received(Packet(PacketType.ONE_RTT, 77, 0, (PaddingFrame(1),)).encode())
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
                general._apply_ack([pn for pn in general._unacked if pn <= largest])
            assert _loss_state(fast) == _loss_state(general)
