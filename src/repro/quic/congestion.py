"""Pluggable congestion control for :class:`~repro.quic.connection.QuicConnection`.

Two controllers ship:

* :class:`NullCongestionController` — the default.  Never blocks a send,
  keeps no state, costs nothing on the hot path; every frozen seeded
  experiment output is bit-identical with it installed (it *is* the
  pre-congestion-control behaviour).  A process-wide singleton
  (:data:`NULL_CONGESTION`) is shared by every connection that does not
  configure a controller.
* :class:`NewRenoCongestionController` — a NewReno-style loss-based
  controller in the shape of RFC 9002 §7: slow start doubles cwnd per RTT
  (cwnd grows by the acked bytes), congestion avoidance adds roughly one
  MSS per cwnd of acked data, and a loss event halves cwnd into a recovery
  epoch.  Packets lost inside the current recovery epoch do not trigger a
  second reduction (NewReno's single-reduction-per-round rule, keyed on
  packet numbers: only a loss *above* the epoch's largest-sent packet
  starts a new reduction).

The controller interface is deliberately small — four packet-lifecycle
hooks plus :meth:`CongestionController.can_send` — and is driven entirely
from the connection's existing send/ACK/PTO paths, so alternative
controllers (CUBIC, BBR-lite) drop in without touching the connection.

Determinism: controllers are pure functions of the packet-event sequence;
they draw no randomness and read no wall clock, so a seeded run with a
given controller is exactly reproducible.
"""

from __future__ import annotations

__all__ = [
    "CongestionController",
    "NullCongestionController",
    "NewRenoCongestionController",
    "NULL_CONGESTION",
    "DEFAULT_MSS",
    "INITIAL_WINDOW_PACKETS",
    "MINIMUM_WINDOW_PACKETS",
    "LOSS_REDUCTION_FACTOR",
]

#: Assumed maximum segment size in bytes.  The simulator's QUIC packets are
#: not MTU-fragmented, so this is a unit for window arithmetic rather than a
#: hard packet-size cap; 1280 matches QUIC's minimum datagram size
#: (RFC 9000 §14) and msquic's default.
DEFAULT_MSS = 1280

#: Initial congestion window, in MSS units (RFC 9002 §7.2 recommends 10).
INITIAL_WINDOW_PACKETS = 10

#: Floor for the congestion window after repeated reductions (RFC 9002 §7.2).
MINIMUM_WINDOW_PACKETS = 2

#: Multiplicative decrease applied on a loss event (RFC 9002 §7.3.2).
LOSS_REDUCTION_FACTOR = 0.5


class CongestionController:
    """Interface driven by :class:`~repro.quic.connection.QuicConnection`.

    Hook call contract (all sizes in wire bytes of the UDP payload):

    * :meth:`on_packet_sent` — once per ack-eliciting packet, at transmit;
    * :meth:`on_packets_acked` — once per ACK frame that newly acknowledges
      ack-eliciting packets, with ``(packet_number, size)`` pairs in
      ascending packet-number order;
    * :meth:`on_packets_lost` — once per loss event (PTO fire), with the
      pairs declared lost, ascending;
    * :meth:`on_packets_discarded` — for packets removed from the in-flight
      ledger without being acked or counting as a congestion signal
      (0-RTT packets re-queued after rejection);
    * :meth:`can_send` — consulted before sending a *new* ack-eliciting
      packet of ``size`` bytes; retransmissions bypass it (a PTO probe must
      be able to leave even with the window full, RFC 9002 §7.5).
    """

    __slots__ = ()

    #: Class-level fast-path flag: connections skip every hook call when the
    #: installed controller declares itself inert.  Real controllers leave
    #: this True.
    active = True

    def on_packet_sent(self, packet_number: int, size: int) -> None:
        raise NotImplementedError

    def on_packets_acked(self, packets: list[tuple[int, int]]) -> None:
        raise NotImplementedError

    def on_packets_lost(self, packets: list[tuple[int, int]]) -> None:
        raise NotImplementedError

    def on_packets_discarded(self, packets: list[tuple[int, int]]) -> None:
        raise NotImplementedError

    def can_send(self, size: int) -> bool:
        raise NotImplementedError

    # ---------------------------------------------------------------- stats
    @property
    def congestion_window(self) -> int:
        """Current congestion window in bytes (telemetry gauge)."""
        raise NotImplementedError

    @property
    def bytes_in_flight(self) -> int:
        """Ack-eliciting bytes sent but not yet acked/lost (telemetry gauge)."""
        raise NotImplementedError

    @property
    def congestion_events(self) -> int:
        """Number of window reductions taken (monotonic counter)."""
        raise NotImplementedError


class NullCongestionController(CongestionController):
    """No congestion control: never blocks, tracks nothing.

    This is the default and the bit-identity baseline — with it installed
    the connection's behaviour (and therefore every frozen seeded
    experiment output) is exactly the pre-controller behaviour.  The
    connection checks :attr:`active` once and skips the hook calls
    entirely, so the steady-state fan-out path does not even pay the
    method dispatch.
    """

    __slots__ = ()

    active = False

    def on_packet_sent(self, packet_number: int, size: int) -> None:
        pass

    def on_packets_acked(self, packets: list[tuple[int, int]]) -> None:
        pass

    def on_packets_lost(self, packets: list[tuple[int, int]]) -> None:
        pass

    def on_packets_discarded(self, packets: list[tuple[int, int]]) -> None:
        pass

    def can_send(self, size: int) -> bool:
        return True

    @property
    def congestion_window(self) -> int:
        return 0

    @property
    def bytes_in_flight(self) -> int:
        return 0

    @property
    def congestion_events(self) -> int:
        return 0


#: Shared stateless instance installed by default on every connection.
NULL_CONGESTION = NullCongestionController()


class NewRenoCongestionController(CongestionController):
    """NewReno-style loss-based congestion control (RFC 9002 §7 shape).

    State machine:

    * **slow start** (``cwnd < ssthresh``, initially always): every newly
      acked byte grows cwnd by one byte — doubling per RTT;
    * **congestion avoidance**: each acked packet grows cwnd by
      ``mss * size // cwnd`` — roughly one MSS per cwnd of acked data;
    * **recovery**: a loss event sets ``ssthresh = cwnd / 2`` (floored at
      the minimum window), collapses cwnd to ssthresh and opens a recovery
      epoch covering every packet number sent so far.  Losses of packets
      inside the epoch are *not* new congestion signals — only a lost
      packet sent after the epoch opened triggers the next reduction.

    There is no explicit RTT input: the connection's PTO machinery decides
    *when* packets are lost; this controller only decides how the window
    reacts.
    """

    __slots__ = (
        "_mss",
        "_cwnd",
        "_ssthresh",
        "_minimum_window",
        "_bytes_in_flight",
        "_recovery_until",
        "_largest_sent",
        "_congestion_events",
    )

    def __init__(self) -> None:
        self._mss = DEFAULT_MSS
        self._cwnd = DEFAULT_MSS * INITIAL_WINDOW_PACKETS
        self._ssthresh = float("inf")
        self._minimum_window = DEFAULT_MSS * MINIMUM_WINDOW_PACKETS
        self._bytes_in_flight = 0
        # Packet numbers <= _recovery_until were sent before (or during) the
        # current recovery epoch; their loss is attributed to the reduction
        # already taken.  -1 means no epoch yet.
        self._recovery_until = -1
        self._largest_sent = -1
        self._congestion_events = 0

    # ------------------------------------------------------------- lifecycle
    def on_packet_sent(self, packet_number: int, size: int) -> None:
        self._bytes_in_flight += size
        if packet_number > self._largest_sent:
            self._largest_sent = packet_number

    def on_packets_acked(self, packets: list[tuple[int, int]]) -> None:
        for packet_number, size in packets:
            self._bytes_in_flight -= size
            if packet_number <= self._recovery_until:
                # Acked packets from before the reduction do not grow the
                # collapsed window (RFC 9002 §7.3.2: recovery ends when a
                # post-epoch packet is acked; growth resumes with those).
                continue
            if self._cwnd < self._ssthresh:
                self._cwnd += size
            else:
                self._cwnd += self._mss * size // self._cwnd
        if self._bytes_in_flight < 0:
            self._bytes_in_flight = 0

    def on_packets_lost(self, packets: list[tuple[int, int]]) -> None:
        largest_lost = -1
        for packet_number, size in packets:
            self._bytes_in_flight -= size
            if packet_number > largest_lost:
                largest_lost = packet_number
        if self._bytes_in_flight < 0:
            self._bytes_in_flight = 0
        if largest_lost > self._recovery_until:
            # New congestion signal: multiplicative decrease, one reduction
            # per round — everything sent up to now joins this epoch.
            self._congestion_events += 1
            reduced = int(self._cwnd * LOSS_REDUCTION_FACTOR)
            self._ssthresh = max(reduced, self._minimum_window)
            self._cwnd = self._ssthresh
            self._recovery_until = self._largest_sent

    def on_packets_discarded(self, packets: list[tuple[int, int]]) -> None:
        for _packet_number, size in packets:
            self._bytes_in_flight -= size
        if self._bytes_in_flight < 0:
            self._bytes_in_flight = 0

    def can_send(self, size: int) -> bool:
        return self._bytes_in_flight + size <= self._cwnd

    # ---------------------------------------------------------------- stats
    @property
    def congestion_window(self) -> int:
        return self._cwnd

    @property
    def bytes_in_flight(self) -> int:
        return self._bytes_in_flight

    @property
    def congestion_events(self) -> int:
        return self._congestion_events

    @property
    def ssthresh(self) -> float:
        """Slow-start threshold in bytes (``inf`` until the first loss)."""
        return self._ssthresh

    @property
    def in_slow_start(self) -> bool:
        """Whether the controller is still in slow start."""
        return self._cwnd < self._ssthresh
