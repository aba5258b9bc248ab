"""Closed-form flash-crowd admission model (E16).

A storm of ``count`` subscribers joins a single leaf relay inside
``window`` seconds, evenly spaced, against an
:class:`~repro.relaynet.admission.AdmissionPolicy` token bucket
(``subscribe_rate`` admissions per second, burst ``bucket_depth``).  On
the simulated stack each join's first SUBSCRIBE reaches the relay a fixed
number of one-way link trips after the join fires:

1. QUIC handshake — 1 RTT (2 trips);
2. MoQT session setup (CLIENT_SETUP / SERVER_SETUP) — 1 RTT, elided when
   version negotiation rides the QUIC/TLS ALPN (§5.2's optimisation);
3. the SUBSCRIBE itself — half an RTT (1 trip).

An admitted SUBSCRIBE is answered half an RTT later, so an unthrottled
join costs 3 RTTs end to end — the same arithmetic as
:mod:`repro.analysis.churn`'s re-attach model.  A *rejected* SUBSCRIBE
rides the reservation contract instead: the relay hands back the exact
virtual token slot the subscriber owns as ``retry_after`` (rounded up to
whole milliseconds on the wire), the client waits exactly that long after
receiving the error, and the single retry is admitted unconditionally.
So the rejected join's timeline is::

    join -> (5 trips) SUBSCRIBE arrives, slot reserved
         -> (1 trip)  SUBSCRIBE_ERROR at client
         -> ceil_ms(retry_after) wait
         -> (1 trip)  retry SUBSCRIBE arrives, reservation honored
         -> (1 trip)  SUBSCRIBE_OK at client

The bucket arithmetic itself is *shared with the implementation*: the
model drives a fresh :class:`~repro.relaynet.admission.AdmissionController`
over the closed-form arrival times, so the float folds that decide
admit-vs-reserve (and each reservation's slot) are the same code the
relay executes — which is what makes the predicted completion time and
join-latency distribution **bit-exact** against the measured storm, the
same replay discipline as E15's constrained-path model.

Exactness preconditions (all enforced by the E16 experiment setup):

* one leaf relay, loss-free subscriber links with no bandwidth cap (no
  serialisation folds, no retransmissions, no spillover);
* the storm's track is pre-warmed (an earlier subscriber holds the
  relay's upstream subscription active), so every admitted SUBSCRIBE is
  answered synchronously instead of waiting on an upstream round trip;
* the policy advertises ``retry_after`` and the client retry budget
  covers one retry (the reservation contract needs exactly one);
* joins are evenly spaced with the same ``(i * window) / count`` fold
  :meth:`~repro.relaynet.topology.RelayTopology.flash_crowd` uses, from
  the same absolute start time (float addition is not translation
  invariant, so the model replays absolute simulator timestamps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.relaynet.admission import AdmissionController, AdmissionPolicy

#: One-way link trips from a join firing to its SUBSCRIBE arriving at the
#: relay: QUIC handshake (2) + MoQT setup (2) + the SUBSCRIBE itself (1).
TRIPS_TO_SUBSCRIBE = 5


@dataclass(frozen=True)
class StormJoin:
    """One modelled subscriber's predicted admission timeline."""

    index: int
    joined_at: float
    first_arrival: float
    #: The reserved token slot, None when admitted on the first try.
    slot: float | None
    admitted_at: float

    @property
    def rejected(self) -> bool:
        """Whether this join needed the retry-after reservation path."""
        return self.slot is not None

    @property
    def join_latency(self) -> float:
        """Seconds from the join firing to SUBSCRIBE_OK at the client."""
        return self.admitted_at - self.joined_at


@dataclass(frozen=True)
class AdmissionModel:
    """Predicts a flash crowd's admission schedule from policy knobs.

    Attributes
    ----------
    count / window / start:
        The storm shape: joins fire at ``start + (i * window) / count``
        (``start`` is the absolute simulator time the storm was injected —
        passed through so float folds match the measured run).
    policy:
        The leaf relay's admission policy; must rate-limit for the
        reservation replay to apply.
    link_delay:
        One-way delay of the subscriber <-> leaf link, in seconds.
    """

    count: int
    window: float
    start: float
    policy: AdmissionPolicy
    link_delay: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be at least 1: {self.count}")
        if self.window < 0:
            raise ValueError(f"window must be non-negative: {self.window}")
        if self.link_delay < 0:
            raise ValueError(f"link delay must be non-negative: {self.link_delay}")
        if self.policy.subscribe_rate is None:
            raise ValueError("the admission model needs a rate-limited policy")

    def joins(self) -> list[StormJoin]:
        """Replay the storm: per-join reserved slots and admission times.

        The returned list is in join order.  Slot decisions come from a
        fresh :class:`AdmissionController` driven over the closed-form
        arrival times, so the folds match the relay's bit for bit.
        """
        controller = AdmissionController(self.policy)
        delay = self.link_delay
        joins: list[StormJoin] = []
        for index in range(self.count):
            joined_at = self.start + (index * self.window) / self.count
            # Event times accumulate one hop at a time, exactly as the
            # simulator schedules them (each hop is a separate addition).
            arrival = joined_at
            for _ in range(TRIPS_TO_SUBSCRIBE):
                arrival += delay
            decision = controller.decide(index, arrival, 0)
            if decision.admitted:
                joins.append(
                    StormJoin(
                        index=index,
                        joined_at=joined_at,
                        first_arrival=arrival,
                        slot=None,
                        admitted_at=arrival + delay,
                    )
                )
                continue
            # SUBSCRIBE_ERROR back (1 trip), the advertised wait (rounded
            # up to the wire's whole milliseconds), the retry (1 trip,
            # honored by the reservation), SUBSCRIBE_OK back (1 trip).
            error_at_client = arrival + delay
            retry_sent = error_at_client + decision.retry_after_ms / 1000.0
            retry_arrival = retry_sent + delay
            honored = controller.decide(index, retry_arrival, 0)
            if not honored.admitted:  # pragma: no cover - reservation contract
                raise AssertionError("reserved retry must be admitted")
            joins.append(
                StormJoin(
                    index=index,
                    joined_at=joined_at,
                    first_arrival=arrival,
                    slot=arrival + decision.retry_after,
                    admitted_at=retry_arrival + delay,
                )
            )
        return joins

    # ----------------------------------------------------------------- summary
    def completion_time(self) -> float:
        """Seconds from storm start to the last SUBSCRIBE_OK at a client."""
        return max(join.admitted_at for join in self.joins()) - self.start

    def rejections(self) -> int:
        """How many joins get rejected once (the reservation path)."""
        return sum(1 for join in self.joins() if join.rejected)

    def join_latencies(self) -> list[float]:
        """Per-join latencies in join order."""
        return [join.join_latency for join in self.joins()]

    def p99_join_latency(self) -> float:
        """Nearest-rank 99th-percentile join latency."""
        return percentile(self.join_latencies(), 0.99)

    def drain_time_lower_bound(self) -> float:
        """The token-bucket drain floor: ``(count - depth) / rate``.

        The analytic sanity anchor the replay must dominate: admitting
        ``count`` subscribers through a bucket that starts ``depth`` deep
        and refills at ``rate`` per second takes at least this long,
        before any propagation or handshake cost.
        """
        rate = self.policy.subscribe_rate
        excess = self.count - self.policy.bucket_depth
        if excess <= 0:
            return 0.0
        return excess / rate


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the E16 reporting convention)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1]: {fraction}")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[rank - 1]
