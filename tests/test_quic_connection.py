"""Tests for the QUIC connection state machine over the simulated network."""

from __future__ import annotations

import sys
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig, _EncodedStreamPacket
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

from connection_delegate import delegate_to

SERVER = "9.9.9.9"
CLIENT = "10.0.0.1"
RTT = 0.1


def _build(loss_rate: float = 0.0, server_accept_early: bool = True, keepalive=None, idle=30.0):
    simulator = Simulator(seed=11)
    network = Network(simulator)
    network.add_host(SERVER)
    network.add_host(CLIENT)
    network.connect(SERVER, CLIENT, LinkConfig(delay=RTT / 2, loss_rate=loss_rate))

    server_connections = []

    def echo_handler(connection):
        def on_data(stream_id, data, fin):
            # The reply goes back on the one stream.
            connection.send_stream_data(connection.open_stream(), b"echo:" + data)

        delegate_to(connection, on_stream_data=on_data)
        server_connections.append(connection)

    server_endpoint = QuicEndpoint(
        network.host(SERVER),
        port=4443,
        server_tls=ServerTlsContext(alpn_protocols=("moq-00",), accept_early_data=server_accept_early),
        on_connection=echo_handler,
    )
    client_endpoint = QuicEndpoint(network.host(CLIENT))
    config = ConnectionConfig(
        alpn_protocols=("moq-00",), keepalive_interval=keepalive, idle_timeout=idle
    )
    return simulator, server_endpoint, client_endpoint, config, server_connections


class TestHandshake:
    def test_handshake_takes_one_rtt(self):
        simulator, server_ep, client_ep, config, _ = _build()
        connection = client_ep.connect(Address(SERVER, 4443), config)
        # The ServerHello lands one round trip after the ClientHello left.
        simulator.run(until=RTT * 0.99)
        assert not connection.handshake_complete
        simulator.run(until=RTT * 1.01)
        assert connection.handshake_complete
        simulator.run(until=5.0)
        assert connection.negotiated_alpn == "moq-00"
        assert connection.handshake_rtts == 1.0

    def test_request_response_over_fresh_connection_takes_two_rtts(self):
        simulator, server_ep, client_ep, config, _ = _build()
        connection = client_ep.connect(Address(SERVER, 4443), config)
        replies = []
        # Sent before the handshake: the request waits for it, then leaves.
        connection.send_stream_data(connection.open_stream(), b"ping")
        delegate_to(
            connection, on_stream_data=lambda sid, data, fin: replies.append((simulator.now, data))
        )
        simulator.run(until=5.0)
        assert replies[0][0] == pytest.approx(2 * RTT)
        assert replies[0][1] == b"echo:ping"

    def test_alpn_mismatch_closes_connection(self):
        simulator, server_ep, client_ep, _, _ = _build()
        connection = client_ep.connect(
            Address(SERVER, 4443), ConnectionConfig(alpn_protocols=("h3-only",))
        )
        simulator.run(until=5.0)
        assert not connection.handshake_complete

    def test_server_connection_created_per_client(self):
        simulator, server_ep, client_ep, config, server_connections = _build()
        client_ep.connect(Address(SERVER, 4443), config)
        client_ep.connect(Address(SERVER, 4443), config)
        simulator.run(until=5.0)
        assert len(server_connections) == 2
        assert len(server_ep.open_connections()) == 2


class TestZeroRtt:
    def test_resumed_connection_sends_early_data(self):
        simulator, server_ep, client_ep, config, _ = _build()
        first = client_ep.connect(Address(SERVER, 4443), config)
        simulator.run(until=1.0)
        assert client_ep.ticket_store.get(SERVER, simulator.now) is not None

        second = client_ep.connect(Address(SERVER, 4443), config)
        replies = []
        delegate_to(second, on_stream_data=lambda sid, data, fin: replies.append(simulator.now))
        stream = second.open_stream()
        start = simulator.now
        second.send_stream_data(stream, b"early")
        simulator.run(until=start + 5.0)
        assert second.used_0rtt and second.early_data_accepted
        assert second.handshake_rtts == 0.0
        assert replies[0] - start == pytest.approx(RTT)

    def test_only_a_ticket_gates_early_data(self):
        # 0-RTT is always offered: the first connection has no ticket and
        # waits a round trip; every later one resumes with early data.
        simulator, server_ep, client_ep, config, _ = _build()
        assert client_ep.ticket_store.get(SERVER, simulator.now) is None
        first = client_ep.connect(Address(SERVER, 4443), config)
        simulator.run(until=1.0)
        assert not first.used_0rtt and first.handshake_rtts == 1.0
        for _ in range(2):
            later = client_ep.connect(Address(SERVER, 4443), config)
            simulator.run(until=simulator.now + 1.0)
            assert later.used_0rtt and later.early_data_accepted

    def test_server_rejecting_early_data_still_delivers_after_handshake(self):
        simulator, server_ep, client_ep, config, _ = _build(server_accept_early=False)
        first = client_ep.connect(Address(SERVER, 4443), config)
        simulator.run(until=1.0)
        second = client_ep.connect(Address(SERVER, 4443), config)
        replies = []
        delegate_to(
            second, on_stream_data=lambda sid, data, fin: replies.append((simulator.now, data))
        )
        start = simulator.now
        stream = second.open_stream()
        second.send_stream_data(stream, b"early")
        simulator.run(until=start + 5.0)
        assert second.used_0rtt and not second.early_data_accepted
        assert replies and replies[0][1] == b"echo:early"
        assert replies[0][0] - start >= 2 * RTT - 1e-9


class TestReliabilityAndLifecycle:
    def test_streams_survive_packet_loss(self):
        simulator, server_ep, client_ep, config, _ = _build(loss_rate=0.25)
        connection = client_ep.connect(Address(SERVER, 4443), config)
        replies = []
        # Queued until the handshake completes; a retransmitted ServerHello
        # does not send it again.
        connection.send_stream_data(connection.open_stream(), b"lossy")
        delegate_to(connection, on_stream_data=lambda sid, data, fin: replies.append(data))
        simulator.run(until=60.0)
        assert replies and replies[0] == b"echo:lossy"
        assert connection.statistics.retransmissions >= 0

    def test_a_drained_ledger_gives_back_its_table(self):
        # A dict never shrinks on deletion: without the clear, the ledger of
        # a connection that once had 1,000 packets in flight keeps a table
        # sized for them after the last one is acknowledged.
        simulator, _server_ep, client_ep, config, _ = _build()
        connection = client_ep.connect(Address(SERVER, 4443), config)
        simulator.run(until=1.0)
        assert connection.handshake_complete and connection.unacked_packets == 0
        stream = connection.open_stream()
        for _ in range(1000):
            connection.send_stream_data(stream, b"burst")
        assert connection.unacked_packets == 1000
        assert sys.getsizeof(connection._unacked) > sys.getsizeof({})
        simulator.run(until=2.0)
        assert connection.unacked_packets == 0
        assert sys.getsizeof(connection._unacked) == sys.getsizeof({})
        assert connection.loss_deadline is None

    def test_idle_timeout_closes_connection(self):
        simulator, server_ep, client_ep, _, _ = _build(idle=1.0)
        config = ConnectionConfig(alpn_protocols=("moq-00",), idle_timeout=1.0)
        connection = client_ep.connect(Address(SERVER, 4443), config)
        closed = []
        delegate_to(connection, on_closed=lambda code, reason: closed.append(reason))
        simulator.run(until=10.0)
        assert connection.closed
        assert closed and "idle" in closed[0]

    def test_keepalive_prevents_idle_timeout(self):
        simulator, server_ep, client_ep, _, _ = _build()
        config = ConnectionConfig(
            alpn_protocols=("moq-00",), idle_timeout=1.0, keepalive_interval=0.4
        )
        connection = client_ep.connect(Address(SERVER, 4443), config)
        simulator.run(until=5.0)
        assert not connection.closed
        assert connection.statistics.pings_sent >= 10

    def test_explicit_close_notifies_peer(self):
        simulator, server_ep, client_ep, config, server_connections = _build()
        connection = client_ep.connect(Address(SERVER, 4443), config)
        simulator.run(until=1.0)
        connection.close(reason="done")
        simulator.run(until=2.0)
        assert connection.closed
        assert server_connections[0].closed

    def test_unreachable_server_gives_up_after_bounded_retries(self):
        simulator = Simulator(seed=2)
        network = Network(simulator)
        network.add_host(CLIENT)
        network.add_host(SERVER)  # no QUIC endpoint bound on the server
        network.connect(CLIENT, SERVER, LinkConfig(delay=0.01))
        endpoint = QuicEndpoint(network.host(CLIENT))
        connection = endpoint.connect(Address(SERVER, 4443), ConnectionConfig(initial_rtt=0.02))
        simulator.run(until=120.0)
        assert connection.closed
        assert simulator.pending_events == 0


class TestTimerEdgeCases:
    """Battery for the lazy-restart idle timer and the PTO backoff."""

    def test_idle_timer_fires_exactly_at_the_extended_deadline(self):
        # Traffic extends the idle deadline through the inlined lazy-restart
        # fast path (a float assignment, no heap traffic); the close must
        # happen exactly idle_timeout after the *last* activity, not at the
        # originally armed wake-up.
        simulator, server_ep, client_ep, _, _ = _build(idle=1.0)
        config = ConnectionConfig(alpn_protocols=("moq-00",), idle_timeout=1.0)
        connection = client_ep.connect(Address(SERVER, 4443), config)
        closed_at = []
        delegate_to(connection, on_closed=lambda code, reason: closed_at.append(simulator.now))
        simulator.run(until=0.8)
        stream = connection.open_stream()
        connection.send_stream_data(stream, b"extend")  # deadline moves
        last_activity = simulator.now + RTT  # the echo reply restarts it again
        simulator.run(until=10.0)
        assert connection.closed
        assert closed_at == [pytest.approx(last_activity + 1.0)]
        assert connection.liveness == "dead"
        assert connection.liveness_cause == "idle-timeout"

    def test_pto_backoff_doubles_between_consecutive_timeouts(self):
        # No server endpoint: every INITIAL goes unanswered, so consecutive
        # PTOs walk the full backoff sequence.  Intervals must double per
        # timeout, capped at 2**PTO_BACKOFF_EXPONENT_CAP probe intervals.
        from repro.quic.connection import QuicConnection

        simulator = Simulator(seed=3)
        network = Network(simulator)
        network.add_host(CLIENT)
        network.add_host(SERVER)
        network.connect(CLIENT, SERVER, LinkConfig(delay=0.01))
        endpoint = QuicEndpoint(network.host(CLIENT))
        connection = endpoint.connect(Address(SERVER, 4443), ConnectionConfig(initial_rtt=0.04))
        closed = []
        delegate_to(connection, on_closed=lambda code, reason: closed.append(reason))
        send_times = []
        original = connection._send
        connection._send = lambda payload, destination: (
            send_times.append(simulator.now),
            original(payload, destination),
        )
        simulator.run(until=120.0)
        assert connection.closed and closed == ["peer unreachable"]
        pto = max(2.5 * 0.04, 0.02)
        # send_times holds the retransmissions only (the original INITIAL
        # left before the capture hook was installed); the n-th and n+1-th
        # retransmits are 2**n probe intervals apart, capped.
        assert send_times[0] == pytest.approx(pto)
        intervals = [b - a for a, b in zip(send_times, send_times[1:])]
        cap = 2 ** QuicConnection.PTO_BACKOFF_EXPONENT_CAP
        expected = [
            pto * min(2**n, cap)
            for n in range(1, QuicConnection.MAX_CONSECUTIVE_LOSS_TIMEOUTS)
        ]
        assert intervals == pytest.approx(expected)
        assert connection.liveness == "dead"
        assert connection.liveness_cause == "pto-give-up"


def _isolated_connection(simulator, sent):
    """A client connection whose outgoing packets are captured, not routed."""
    from repro.netsim.packet import Address as Addr
    from repro.quic.connection import ConnectionConfig as Config, QuicConnection

    return QuicConnection(
        simulator=simulator,
        send_datagram=lambda payload, destination: sent.append(payload),
        local_address=Addr("client", 1),
        peer_address=Addr("server", 2),
        connection_id=77,
        is_client=True,
        config=Config(initial_rtt=0.04),
    )


def _ack_everything(connection):
    """Deliver an ACK covering every packet the connection ever sent."""
    from repro.quic.frames import AckFrame
    from repro.quic.packet import Packet, PacketType

    connection.datagram_received(
        Packet(
            packet_type=PacketType.INITIAL,
            connection_id=connection.connection_id,
            packet_number=0,
            frames=(AckFrame(largest=connection._next_packet_number - 1),),
        ).encode()
    )


class TestLivenessStateMachine:
    """healthy -> suspect -> (recovered | dead), observer callbacks."""

    def _run_ptos(self, simulator, connection, count):
        """Let exactly ``count`` consecutive loss timeouts fire."""
        for _ in range(count):
            deadline = connection.loss_deadline
            assert deadline is not None
            simulator.run(until=deadline)

    def test_ack_after_n_minus_1_ptos_keeps_the_connection_healthy(self):
        simulator = Simulator()
        sent = []
        connection = _isolated_connection(simulator, sent)
        transitions = []
        delegate_to(connection, on_liveness=lambda old, new: transitions.append((old, new)))
        connection.start_handshake()
        self._run_ptos(
            simulator, connection, connection.LIVENESS_SUSPECT_AFTER - 1
        )
        assert connection.liveness == "healthy"
        assert connection._consecutive_loss_timeouts == connection.LIVENESS_SUSPECT_AFTER - 1
        _ack_everything(connection)
        assert connection._consecutive_loss_timeouts == 0
        assert connection.liveness == "healthy"
        assert transitions == [], "no transition ever happened"

    def test_suspect_after_n_consecutive_ptos_then_recovered_by_ack(self):
        simulator = Simulator()
        sent = []
        connection = _isolated_connection(simulator, sent)
        transitions = []
        delegate_to(
            connection,
            on_liveness=lambda old, new: transitions.append(
                (old, new, connection.liveness_cause, simulator.now)
            ),
        )
        connection.start_handshake()
        self._run_ptos(simulator, connection, connection.LIVENESS_SUSPECT_AFTER)
        assert connection.liveness == "suspect"
        assert transitions == [("healthy", "suspect", "pto-suspect", simulator.now)]
        _ack_everything(connection)
        assert connection.liveness == "healthy"
        assert transitions[-1][:3] == ("suspect", "healthy", "recovered")
        assert not connection.closed, "suspicion alone never closes"

    def test_suspect_fires_at_the_modelled_offset(self):
        # With doubling backoff the suspect transition lands exactly
        # pto * (2**N - 1) after the unacknowledged send.
        from repro.analysis.detection import suspect_latency

        simulator = Simulator()
        sent = []
        connection = _isolated_connection(simulator, sent)
        suspected = []
        delegate_to(connection, on_liveness=lambda old, new: suspected.append(simulator.now))
        connection.start_handshake()  # unacknowledged send at t=0
        pto = connection.probe_timeout
        self._run_ptos(simulator, connection, connection.LIVENESS_SUSPECT_AFTER)
        assert suspected == [pytest.approx(suspect_latency(pto))]

    def test_announced_close_sets_dead_without_observer_callback(self):
        simulator = Simulator()
        sent = []
        connection = _isolated_connection(simulator, sent)
        transitions = []
        delegate_to(connection, on_liveness=lambda old, new: transitions.append((old, new)))
        connection.close(reason="done")
        assert connection.liveness == "dead"
        assert transitions == [], "announced closes are not detections"

    def test_abandon_is_silent_and_stops_all_timers(self):
        simulator = Simulator()
        sent = []
        connection = _isolated_connection(simulator, sent)
        closed = []
        delegate_to(connection, on_closed=lambda code, reason: closed.append(reason))
        connection.start_handshake()
        wire_before = len(sent)
        connection.abandon()
        simulator.run()
        assert connection.closed and connection.liveness_cause == "abandoned"
        assert len(sent) == wire_before, "no close frame escapes a crash"
        assert closed == [], "no callback observes the crash"
        assert simulator.pending_events == 0, "all timers died with the process"


class TestConnectionIdAllocation:
    def test_ids_stay_within_varint_range_at_high_connection_counts(self):
        simulator = Simulator(seed=9)
        network = Network(simulator)
        network.add_host(CLIENT)
        endpoint = QuicEndpoint(network.host(CLIENT))
        # Even after 16384+ allocations the composite (counter | random) must
        # stay encodable as a QUIC varint (< 2**62).
        endpoint._next_connection_id = 20_000
        for _ in range(3):
            assert endpoint._allocate_connection_id() < (1 << 62)

    def test_ids_are_collision_resistant_across_many_client_endpoints(self):
        # Many independent client endpoints talk to one server: the server
        # demultiplexes purely by connection ID, so IDs chosen by unrelated
        # endpoints must not collide at relay-scale fan-in (~hundreds).
        simulator = Simulator(seed=9)
        network = Network(simulator)
        seen = set()
        for index in range(500):
            host = network.add_host(f"client-{index}")
            endpoint = QuicEndpoint(host)
            connection_id = endpoint._allocate_connection_id()
            assert connection_id not in seen
            seen.add(connection_id)


class TestAckRangesRepair:
    """The gap-aware received-set and exact-ACK repair path.

    Cumulative ACKs are only sound while the receiver's set is gap-free
    from packet 0; once a drop is observed (a later packet arrived), an
    ``AckFrame(largest)`` would falsely acknowledge the dropped number and
    cancel its retransmission — a double drop then becomes a permanent
    delivery hole.  These tests pin the run-merging of ``_record_received``
    and the exact-ACK processing that closes that hole.
    """

    def _connection(self):
        simulator, _server_ep, client_ep, config, _ = _build()
        connection = client_ep.connect(Address(SERVER, 4443), config)
        simulator.run(until=5.0)
        assert connection.handshake_complete
        return simulator, connection

    def test_in_order_receive_stays_one_run(self):
        _, connection = self._connection()
        connection._received_ranges = []
        for packet_number in range(5):
            connection._record_received(packet_number)
        assert connection._received_ranges == [0, 4]

    def test_gap_opens_a_second_run_and_fill_merges_it(self):
        _, connection = self._connection()
        connection._received_ranges = []
        for packet_number in (0, 1, 3):
            connection._record_received(packet_number)
        assert connection._received_ranges == [0, 1, 3, 3]
        connection._record_received(2)  # the retransmission lands
        assert connection._received_ranges == [0, 3]
        connection._record_received(2)  # duplicate: no change
        assert connection._received_ranges == [0, 3]

    def test_retransmission_below_the_top_run_merges_both_sides(self):
        _, connection = self._connection()
        connection._received_ranges = []
        for packet_number in (0, 1, 2, 3, 10):
            connection._record_received(packet_number)
        connection._record_received(5)
        assert connection._received_ranges == [0, 3, 5, 5, 10, 10]
        connection._record_received(4)
        assert connection._received_ranges == [0, 5, 10, 10]

    def test_horizon_prune_merges_the_oldest_runs(self):
        _, connection = self._connection()
        connection._received_ranges = []
        connection._record_received(0)
        far = connection.RECEIVED_RANGES_HORIZON + 1000
        connection._record_received(far)
        # The stale bottom run is folded in: the sender re-numbers on PTO,
        # so packet numbers that far behind can no longer be retransmitted.
        assert connection._received_ranges == [0, far]

    def test_exact_ack_leaves_the_dropped_packet_unacked(self):
        _, connection = self._connection()
        connection._unacked = {pn: _EncodedStreamPacket(2, 0, b"", True, 0.0, 0) for pn in (0, 1, 2, 3)}
        connection._on_ack_ranges(((0, 1), (3, 3)))
        # Packet 2 was never received by the peer: it must stay unacked so
        # the loss timer retransmits it.
        assert set(connection._unacked) == {2}

    def test_exact_vs_cumulative_ack_on_a_gapped_set(self):
        _, connection = self._connection()
        connection._unacked = {pn: _EncodedStreamPacket(2, 0, b"", True, 0.0, 0) for pn in (2, 4)}
        connection._on_ack_ranges(((0, 1), (4, 4)))
        assert set(connection._unacked) == {2}
        # The cumulative form would have acked 2 as well — the exact bug.
        connection._unacked = {pn: _EncodedStreamPacket(2, 0, b"", True, 0.0, 0) for pn in (2, 4)}
        connection._on_ack(4)
        assert set(connection._unacked) == set()


class CountingLedger(dict):
    """An in-flight ledger that counts the keys a walk over it inspects."""

    inspected = 0

    def __iter__(self):
        for key in super().__iter__():
            self.inspected += 1
            yield key


class TestCumulativeAck:
    """A cumulative ACK costs what it acknowledges.

    The ledger is filed in packet-number order, so the packets an ACK of
    ``largest`` covers are its oldest ones: ``_on_ack`` takes them by walking
    from the oldest and stopping at the first one above ``largest``.  It used
    to scan the whole ledger on every ACK.  Source mutations tried, each
    failing a test here: the walk not stopping at the first packet above
    ``largest``, and stopping at ``largest`` itself.
    """

    def _connection(self):
        simulator, _server_ep, client_ep, config, _ = _build()
        connection = client_ep.connect(Address(SERVER, 4443), config)
        simulator.run(until=5.0)
        assert connection.handshake_complete and not connection._unacked
        return simulator, connection

    @given(
        start=st.integers(0, 50),
        # A step above 1 is a packet number the ledger never held: an ACK-only
        # packet, or the jump a PTO's retransmissions make.
        steps=st.lists(st.integers(1, 40), max_size=40),
        data=st.data(),
    )
    def test_a_cumulative_ack_takes_what_the_whole_ledger_scan_took(self, start, steps, data):
        simulator, connection = self._connection()
        numbers = list(accumulate(steps, initial=start))[1:]
        # Any ``largest``, and often one next to or at a packet in flight.
        near = st.sampled_from(numbers or [0]).flatmap(lambda pn: st.sampled_from([pn - 1, pn, pn + 1]))
        largest = data.draw(st.one_of(st.integers(-1, 1_700), near))
        connection._unacked = {
            pn: _EncodedStreamPacket(2, 0, b"", True, pn / 1024, 0) for pn in numbers
        }
        # The reference: the comprehension over the whole ledger, and the RTT
        # samples it fed in its order.
        acked = [pn for pn in numbers if pn <= largest]
        rtt = connection._smoothed_rtt
        for pn in acked:
            rtt = 0.875 * rtt + 0.125 * (simulator.now - pn / 1024)
        connection._on_ack(largest)
        assert list(connection._unacked) == [pn for pn in numbers if pn > largest]
        assert connection._smoothed_rtt == rtt

    def test_a_cumulative_ack_inspects_what_it_acknowledges(self):
        _, connection = self._connection()
        ledger = CountingLedger(
            (pn, _EncodedStreamPacket(2, 0, b"", True, 0.0, 0)) for pn in range(1_000)
        )
        connection._unacked = ledger
        for largest in range(1_000):  # acknowledged one at a time
            connection._on_ack(largest)
        print(f"\n{ledger.inspected} ledger keys inspected to acknowledge 1,000 packets")
        assert not ledger
        # The whole-ledger scan inspected 1,000 + 999 + ... + 2 + 1 = 500,500.
        assert ledger.inspected <= 2 * 1_000
