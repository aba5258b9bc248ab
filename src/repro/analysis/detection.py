"""Closed-form model of in-band failure-detection latency (E13).

A crashed relay never announces anything: the only signals an orphan's
transport gives are the two QUIC timers, and which one fires first depends
entirely on whether the connection has ack-eliciting data outstanding when
the peer dies:

* **PTO-suspect path** — connections that keep sending (relay uplinks with
  keepalive PINGs enabled) notice through consecutive probe timeouts.  The
  first unacknowledged send arms the probe timer; with doubling backoff the
  n-th consecutive timeout fires ``pto * (2**n - 1)`` after that send, so
  suspicion (n = :data:`repro.quic.connection.QuicConnection.LIVENESS_SUSPECT_AFTER`)
  costs ``3 x pto`` at the default threshold of 2.  The total detection
  latency adds the phase of the keepalive schedule: the crash has to wait
  for the next PING before anything can go unacknowledged.
* **Idle-timeout path** — connections with nothing in flight (a subscriber
  that only ever receives) have no probe timer running; the idle timer,
  pushed back by every packet, runs out exactly ``idle_timeout`` after the
  last activity.  Detection latency is therefore the idle deadline at crash
  time minus the crash time.

Failover stacks on top: once detected, re-attaching through a new parent
costs the 3-RTT floor (QUIC handshake, MoQT SETUP, SUBSCRIBE) modelled by
:mod:`repro.analysis.churn` — so the subscriber-visible outage is
``detection + 3 x RTT``, and the gap
that the recovery FETCH must fill is bounded by the publish rate times that
window.

The measured counterpart is :mod:`repro.experiments.failure_detection`,
which crashes relays silently (zero control-plane kill signals) under a
live CDN tree and compares the measured detection latency of both paths
against this model.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The transport's defaults, restated here as independent closed-form
#: constants (this package deliberately never imports the implementation,
#: so model/implementation drift is caught by tests, not hidden by an
#: alias): suspect after 2 consecutive PTOs, backoff capped at 2**3 probe
#: intervals, give-up after 8 consecutive timeouts — matching
#: ``QuicConnection.LIVENESS_SUSPECT_AFTER`` /
#: ``PTO_BACKOFF_EXPONENT_CAP`` / ``MAX_CONSECUTIVE_LOSS_TIMEOUTS``.
DEFAULT_SUSPECT_AFTER = 2
DEFAULT_BACKOFF_CAP = 3


def pto_fire_offsets(pto: float, count: int, backoff_cap: int) -> tuple[float, ...]:
    """Offsets (after the unacknowledged send) of consecutive PTO firings.

    The first probe fires ``pto`` after the send; each later one waits twice
    the previous interval, capped at ``2**backoff_cap`` probe intervals.
    """
    if pto <= 0:
        raise ValueError(f"probe timeout must be positive: {pto}")
    if count < 1:
        raise ValueError(f"need at least one firing: {count}")
    offsets: list[float] = []
    elapsed = 0.0
    for n in range(count):
        elapsed += pto * (2.0 ** min(n, backoff_cap))
        offsets.append(elapsed)
    return tuple(offsets)


def suspect_latency(pto: float) -> float:
    """Seconds from an unacknowledged send to the *suspect* transition.

    ``pto * (2**n - 1)`` below the backoff cap — ``3 x pto`` at the
    threshold of two consecutive probe timeouts.
    """
    return pto_fire_offsets(pto, DEFAULT_SUSPECT_AFTER, DEFAULT_BACKOFF_CAP)[-1]


@dataclass(frozen=True)
class DetectionModel:
    """Predicted in-band detection latency for one orphan connection.

    Instantiated from the orphan's transport state *at crash time* — the
    experiment reads the live connection's probe timeout and timer
    deadlines just before injecting the fault, then checks the measured
    detection latency against these closed forms.

    Attributes
    ----------
    crashed_at:
        Virtual time the peer silently crashed.
    probe_timeout:
        The connection's probe-timeout base interval at crash time
        (``max(2.5 x smoothed_rtt, 0.02)``).
    next_send_at:
        When the orphan will next send ack-eliciting data (the keepalive
        deadline for a PING-driven uplink); None when it never will.
    idle_deadline:
        The idle timer's absolute deadline at crash time.  Only final for
        a connection that never sends again: every later transmission
        (the keepalive PING and each PTO retransmission) restarts the
        idle timer, which the detection walk accounts for.
    suspect_after:
        Consecutive PTOs before the suspect transition.
    idle_timeout:
        The connection's ``max_idle_timeout`` — needed to track the idle
        deadline as sends keep restarting it.  When None, probing is
        assumed to keep the connection from idling (exact whenever the
        idle timeout exceeds the largest backoff gap).
    """

    crashed_at: float
    probe_timeout: float
    next_send_at: float | None
    idle_deadline: float
    suspect_after: int = DEFAULT_SUSPECT_AFTER
    backoff_cap: int = DEFAULT_BACKOFF_CAP
    idle_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.idle_deadline < self.crashed_at:
            raise ValueError("idle deadline predates the crash")
        if self.next_send_at is not None and self.next_send_at < self.crashed_at:
            raise ValueError("next send predates the crash")
        if self.idle_timeout is not None and self.idle_timeout <= 0:
            raise ValueError(f"idle timeout must be positive: {self.idle_timeout}")

    @property
    def idle_dead_at(self) -> float:
        """When the idle timer fires if nothing is ever sent again."""
        return self.idle_deadline

    def _detection(self) -> tuple[float, str]:
        """Walk the send/backoff schedule to the first in-band signal.

        The crash-time idle deadline only holds until the next send: the
        keepalive PING and every PTO retransmission restart the idle
        timer, so past that point the idle path can fire only inside a
        backoff gap longer than the idle timeout.
        """
        if self.next_send_at is None or self.idle_dead_at <= self.next_send_at:
            return self.idle_dead_at, "idle-timeout"
        last_send = self.next_send_at
        for offset in pto_fire_offsets(
            self.probe_timeout, self.suspect_after, self.backoff_cap
        ):
            fire_at = self.next_send_at + offset
            if (
                self.idle_timeout is not None
                and last_send + self.idle_timeout < fire_at
            ):
                return last_send + self.idle_timeout, "idle-timeout"
            last_send = fire_at
        return last_send, "pto-suspect"

    @property
    def detected_at(self) -> float:
        """Whichever in-band signal fires first."""
        return self._detection()[0]

    @property
    def path(self) -> str:
        """Which signal wins: ``"pto-suspect"`` or ``"idle-timeout"``."""
        return self._detection()[1]

    @property
    def detection_latency(self) -> float:
        """Seconds from the silent crash to the first in-band signal."""
        return self.detected_at - self.crashed_at
