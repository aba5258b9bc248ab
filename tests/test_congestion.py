"""Tests for pluggable congestion control (`repro.quic.congestion`).

Unit coverage of the NewReno state machine (slow-start doubling, congestion
avoidance, loss backoff, the single-reduction-per-recovery-epoch rule and
the minimum-window floor), the Null controller's inertness, and integration
through :class:`repro.quic.connection.QuicConnection`: a small window must
visibly hold back sends and drain as ACKs open it, while the default Null
controller leaves the connection's behaviour untouched.
"""

from __future__ import annotations

import pytest

from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.congestion import (
    DEFAULT_MSS,
    INITIAL_WINDOW_PACKETS,
    MINIMUM_WINDOW_PACKETS,
    NULL_CONGESTION,
    NewRenoCongestionController,
    NullCongestionController,
)
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

from connection_delegate import delegate_to

MSS = DEFAULT_MSS


def small_window_controller() -> NewRenoCongestionController:
    """A controller whose window starts at its two-packet floor, so a burst
    is held back at once (RFC 9002's initial window is ten packets)."""
    controller = NewRenoCongestionController()
    controller._cwnd = controller._minimum_window
    return controller


class TestNewRenoWindow:
    def test_initial_window_and_slow_start_doubling(self) -> None:
        cc = NewRenoCongestionController()
        assert cc.congestion_window == MSS * INITIAL_WINDOW_PACKETS
        assert cc.in_slow_start
        # Slow start: every acked byte grows the window by one byte, so a
        # full window of ACKs doubles it — per RTT, exponential.
        window = cc.congestion_window
        for packet_number in range(INITIAL_WINDOW_PACKETS):
            cc.on_packet_sent(packet_number, MSS)
        cc.on_packets_acked([(pn, MSS) for pn in range(INITIAL_WINDOW_PACKETS)])
        assert cc.congestion_window == 2 * window
        assert cc.bytes_in_flight == 0

    def test_slow_start_growth_is_monotone_in_acked_bytes(self) -> None:
        cc = NewRenoCongestionController()
        previous = cc.congestion_window
        for packet_number in range(50):
            cc.on_packet_sent(packet_number, MSS)
            cc.on_packets_acked([(packet_number, MSS)])
            assert cc.congestion_window > previous
            previous = cc.congestion_window

    def test_congestion_avoidance_grows_one_mss_per_window(self) -> None:
        cc = NewRenoCongestionController()
        # Force CA: take one loss so ssthresh becomes finite, then ack past
        # the recovery epoch.
        cc.on_packet_sent(0, MSS)
        cc.on_packets_lost([(0, MSS)])
        assert not cc.in_slow_start
        window = cc.congestion_window
        # One full window of post-epoch ACKs grows cwnd by ~one MSS (linear).
        packet_number = 1
        acked = 0
        while acked < window:
            cc.on_packet_sent(packet_number, MSS)
            cc.on_packets_acked([(packet_number, MSS)])
            acked += MSS
            packet_number += 1
        assert window < cc.congestion_window <= window + 2 * MSS

    def test_loss_halves_window_once_per_recovery_epoch(self) -> None:
        cc = NewRenoCongestionController()
        for packet_number in range(10):
            cc.on_packet_sent(packet_number, MSS)
        window = cc.congestion_window
        cc.on_packets_lost([(3, MSS)])
        assert cc.congestion_events == 1
        assert cc.congestion_window == int(window * 0.5)
        # Further losses of packets sent *before* the epoch opened are not
        # fresh congestion signals.
        reduced = cc.congestion_window
        cc.on_packets_lost([(5, MSS), (7, MSS)])
        assert cc.congestion_events == 1
        assert cc.congestion_window == reduced
        # A loss of a packet sent after the epoch opened starts a new one.
        cc.on_packet_sent(10, MSS)
        cc.on_packets_lost([(10, MSS)])
        assert cc.congestion_events == 2
        assert cc.congestion_window == int(reduced * 0.5)

    def test_window_never_collapses_below_minimum(self) -> None:
        cc = NewRenoCongestionController()
        floor = MSS * MINIMUM_WINDOW_PACKETS
        for packet_number in range(40):
            cc.on_packet_sent(packet_number, MSS)
            cc.on_packets_lost([(packet_number, MSS)])
        assert cc.congestion_window == floor
        assert cc.ssthresh == floor

    def test_can_send_respects_bytes_in_flight(self) -> None:
        cc = NewRenoCongestionController()
        window = cc.congestion_window
        assert cc.can_send(window)
        cc.on_packet_sent(0, window - 100)
        assert cc.can_send(100)
        assert not cc.can_send(101)
        cc.on_packets_acked([(0, window - 100)])
        assert cc.can_send(window)

    def test_discard_releases_flight_without_congestion_signal(self) -> None:
        cc = NewRenoCongestionController()
        cc.on_packet_sent(0, 500)
        window = cc.congestion_window
        cc.on_packets_discarded([(0, 500)])
        assert cc.bytes_in_flight == 0
        assert cc.congestion_window == window
        assert cc.congestion_events == 0

    def test_acks_inside_recovery_epoch_do_not_grow_the_window(self) -> None:
        cc = NewRenoCongestionController()
        for packet_number in range(8):
            cc.on_packet_sent(packet_number, MSS)
        cc.on_packets_lost([(0, MSS)])
        reduced = cc.congestion_window
        cc.on_packets_acked([(pn, MSS) for pn in range(1, 8)])
        assert cc.congestion_window == reduced


class TestNullController:
    def test_null_controller_is_inert_and_shared(self) -> None:
        assert NullCongestionController.active is False
        assert NULL_CONGESTION.can_send(10**9)
        NULL_CONGESTION.on_packet_sent(0, 1200)
        NULL_CONGESTION.on_packets_lost([(0, 1200)])
        assert NULL_CONGESTION.congestion_window == 0
        assert NULL_CONGESTION.bytes_in_flight == 0
        assert NULL_CONGESTION.congestion_events == 0


SERVER = "server"
CLIENT = "client"
RTT = 0.1


def _connected_pair(congestion_controller=None):
    simulator = Simulator(seed=5)
    network = Network(simulator)
    network.add_host(SERVER)
    network.add_host(CLIENT)
    network.connect(SERVER, CLIENT, LinkConfig(delay=RTT / 2))
    QuicEndpoint(
        network.host(SERVER),
        port=4443,
        server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
        on_connection=lambda connection: None,
    )
    client_endpoint = QuicEndpoint(network.host(CLIENT))
    config = ConnectionConfig(
        alpn_protocols=("moq-00",), congestion_controller=congestion_controller
    )
    connection = client_endpoint.connect(Address(SERVER, 4443), config)
    simulator.run(until=1.0)
    assert connection.handshake_complete
    return simulator, connection


class TestConnectionIntegration:
    def test_default_connection_installs_the_null_singleton(self) -> None:
        _, connection = _connected_pair()
        assert connection.congestion is NULL_CONGESTION
        assert connection.cwnd_blocked_packets == 0

    def test_small_window_blocks_then_acks_drain_the_backlog(self) -> None:
        simulator, connection = _connected_pair(
            small_window_controller
        )
        stream = connection.open_stream()
        # Far more than two packets' worth of data: the window must hold
        # some packets back immediately after the burst.
        for chunk in range(12):
            connection.send_stream_data(stream, bytes(600))
        assert connection.cwnd_blocked_packets > 0
        assert connection.congestion.bytes_in_flight > 0
        # ACKs open the window; the backlog must drain completely.
        simulator.run(until=simulator.now + 20 * RTT)
        assert connection.cwnd_blocked_packets == 0
        assert connection.congestion.bytes_in_flight == 0
        assert connection.congestion.congestion_events == 0

    def test_drained_and_closed_backlogs_are_handed_back(self) -> None:
        """A drained FIFO is ``()``; a connection closed with packets held
        back drops them (its endpoint lists it for good, so they used to be
        kept, stream chunks included, with the gauge stuck above zero)."""
        simulator, connection = _connected_pair(
            small_window_controller
        )
        stream = connection.open_stream()

        def burst(chunks: int) -> None:
            for _ in range(chunks):
                connection.send_stream_data(stream, bytes(600))
            assert connection.cwnd_blocked_packets > 0

        burst(12)
        simulator.run(until=simulator.now + 20 * RTT)
        assert connection._cwnd_blocked == ()
        burst(100)  # the window grew; blocks again after the hand-back
        connection.close()
        assert connection.cwnd_blocked_packets == 0 and connection._cwnd_blocked == ()
        assert connection.congestion.bytes_in_flight == 0
        simulator.run(until=simulator.now + 20 * RTT)
        assert connection.cwnd_blocked_packets == 0

    def test_acknowledged_stream_packets_leave_no_bytes_in_flight(self) -> None:
        """Forty kilobyte packets, each acknowledged before the next: the
        controller releases every byte and slow start grows the window."""
        simulator, connection = _connected_pair(NewRenoCongestionController)
        stream = connection.open_stream()
        window = connection.congestion.congestion_window
        for _ in range(40):
            connection.send_stream_data(stream, bytes(1000))
            assert connection.congestion.bytes_in_flight > 0
            simulator.run(until=simulator.now + 2 * RTT)
            assert connection.congestion.bytes_in_flight == 0
        assert connection.unacked_packets == 0
        assert connection.statistics.retransmissions == 0
        assert connection.cwnd_blocked_packets == 0
        assert connection.congestion.congestion_window > window + 40_000

    def test_newreno_connection_reaches_the_same_payload(self) -> None:
        """Same delivered stream bytes with and without a tight window —
        congestion control delays, never drops."""

        def run(controller):
            simulator = Simulator(seed=5)
            network = Network(simulator)
            network.add_host(SERVER)
            network.add_host(CLIENT)
            network.connect(SERVER, CLIENT, LinkConfig(delay=RTT / 2))
            received: list[bytes] = []

            def handler(connection):
                delegate_to(
                    connection,
                    on_stream_data=lambda stream_id, data, fin: received.append(bytes(data)),
                )

            QuicEndpoint(
                network.host(SERVER),
                port=4443,
                server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
                on_connection=handler,
            )
            client_endpoint = QuicEndpoint(network.host(CLIENT))
            connection = client_endpoint.connect(
                Address(SERVER, 4443),
                ConnectionConfig(
                    alpn_protocols=("moq-00",), congestion_controller=controller
                ),
            )
            simulator.run(until=1.0)
            stream = connection.open_stream()
            for chunk in range(20):
                connection.send_stream_data(stream, bytes([chunk]) * 400)
            simulator.run(until=simulator.now + 30 * RTT)
            return b"".join(received)

        tight = run(
            small_window_controller
        )
        unlimited = run(None)
        assert tight == unlimited
        assert len(tight) == 20 * 400
