"""Flash-crowd admission control for relays (bounded queues, retry-after).

Every relay before this module admitted SUBSCRIBEs unboundedly: a flash
crowd of tens of thousands of joins landing inside one second was accepted
instantly, which is exactly the load pattern that collapses a real edge
relay.  This module is the overload-protection layer:

* :class:`AdmissionPolicy` — the declarative knobs: a token-bucket
  subscribe-rate limit (``subscribe_rate`` admissions per second with a
  burst of ``bucket_depth``) and a bound on the relay's pending-subscribe
  queue (``max_pending_subscribes``, the downstream subscribes deferred
  while the aggregated upstream subscription is in flight).  The default
  policy is **unlimited** — no state, no RNG draws, no wire changes — so
  every frozen seeded experiment output stays bit-identical unless a
  deployment opts in.
* :class:`AdmissionController` — the per-relay runtime state.  Past a
  bound, the relay answers ``SUBSCRIBE_ERROR(TOO_MANY_SUBSCRIBERS,
  retry_after=...)`` instead of silently queueing.  Rate rejections are
  **reservations**: the controller hands the rejected session the exact
  virtual token slot it will own, advances the bucket past it, and admits
  the session's retry unconditionally once the slot's time has passed — so
  a storm drains in deterministic FIFO order with exactly one retry per
  rejected subscriber instead of a thundering-herd collision cascade.
* Admission only ever polices *new* SUBSCRIBEs: established
  subscriptions are structurally untouchable.

The token bucket is the virtual-scheduling (GCRA-like) formulation: the
bucket was last observed full at an *anchor* time and has granted ``k``
tokens since, so the next slot is ``anchor + (k - depth + 1) / rate`` —
one product per decision, never an accumulating sum, so a burst of
exactly ``bucket_depth`` admits at one instant regardless of float
rounding.  Pure float arithmetic over simulator timestamps — no refill
loops, no drift — which is what lets :mod:`repro.analysis.admission`
replay the exact fold and predict the measured admission-completion time
bit-for-bit (E16).

The client half of the contract (waiting the advertised ``retry_after``,
a bounded retry budget, spillover placement) lives in
:meth:`repro.relaynet.topology.RelayTopology.flash_crowd`.  Every
rejection advertises a hint of at least 1 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def retry_after_to_ms(retry_after: float) -> int:
    """Encode a retry-after hint in whole milliseconds, rounding *up*.

    Rounding up keeps the reservation contract safe — a client that waits
    the advertised time can never arrive before its slot — and because the
    analysis model replays the same ceiling, quantisation does not break
    bit-exact completion-time prediction.
    """
    return max(1, math.ceil(retry_after * 1000.0))


@dataclass(frozen=True)
class AdmissionPolicy:
    """Declarative admission-control knobs for one relay.

    Attributes
    ----------
    subscribe_rate:
        Sustained admissions per second through the token bucket; ``None``
        (the default) disables rate limiting entirely.
    bucket_depth:
        Burst size: how many subscribes an idle relay admits back-to-back
        before the rate limit bites.
    max_pending_subscribes:
        Bound on the pending-subscribe queue — downstream SUBSCRIBEs
        deferred while the aggregated upstream subscription is in flight.
        ``None`` (the default) leaves the queue unbounded.
    queue_retry_after:
        Retry-after hint (seconds) attached to queue-bound rejections.
        Unlike rate rejections the queue drains on an upstream *answer*,
        not on a clock, so the hint is a fixed policy quantum rather than
        a computed slot.
    """

    subscribe_rate: float | None = None
    bucket_depth: int = 1
    max_pending_subscribes: int | None = None
    queue_retry_after: float = 0.05

    def __post_init__(self) -> None:
        if self.subscribe_rate is not None and self.subscribe_rate <= 0:
            raise ValueError(f"subscribe_rate must be positive: {self.subscribe_rate}")
        if self.bucket_depth < 1:
            raise ValueError(f"bucket_depth must be at least 1: {self.bucket_depth}")
        if self.max_pending_subscribes is not None and self.max_pending_subscribes < 1:
            raise ValueError(
                f"max_pending_subscribes must be at least 1: {self.max_pending_subscribes}"
            )
        if self.queue_retry_after <= 0:
            raise ValueError(f"queue_retry_after must be positive: {self.queue_retry_after}")

    @property
    def limited(self) -> bool:
        """Whether this policy constrains anything at all."""
        return self.subscribe_rate is not None or self.max_pending_subscribes is not None


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """One SUBSCRIBE's verdict.

    ``retry_after`` is in seconds (0.0 when admitted); ``cause`` is ``""``
    when admitted, else ``"rate"`` or ``"queue"``.
    """

    admitted: bool
    retry_after: float = 0.0
    cause: str = ""

    @property
    def retry_after_ms(self) -> int:
        """The wire encoding of the hint (0 when there is none)."""
        if self.retry_after <= 0.0:
            return 0
        return retry_after_to_ms(self.retry_after)


_ADMITTED = AdmissionDecision(admitted=True)


class AdmissionController:
    """Per-relay admission state: one virtual-clock token bucket plus the
    reservation table that makes retries collision-free.

    The controller is only instantiated for *limited* policies; an
    unlimited relay carries ``admission = None`` and pays nothing.
    """

    __slots__ = ("policy", "_interval", "_anchor", "_granted", "_reservations")

    def __init__(self, policy: AdmissionPolicy) -> None:
        if not policy.limited:
            raise ValueError("an unlimited policy needs no AdmissionController")
        self.policy = policy
        self._interval = (
            1.0 / policy.subscribe_rate if policy.subscribe_rate is not None else 0.0
        )
        #: The bucket was last observed *full* at ``_anchor`` and has granted
        #: ``_granted`` tokens since.  Slot times are computed as
        #: ``_anchor + k * interval`` — one product per decision, never an
        #: accumulating sum — so a burst of exactly ``bucket_depth`` admits
        #: at one instant regardless of float rounding, and the analysis
        #: model's replay folds identically.
        self._anchor = float("-inf")
        self._granted = 0
        #: Rate-rejected sessions and the slot each one owns.  Honored (and
        #: removed) on the session's next SUBSCRIBE; forgotten when the
        #: session closes without retrying.
        self._reservations: dict[object, float] = {}

    # ------------------------------------------------------------------ verdicts
    def decide(
        self,
        session: object,
        now: float,
        pending: int,
    ) -> AdmissionDecision:
        """Admit or reject one SUBSCRIBE arriving at ``now``.

        ``pending`` is the relay's current pending-subscribe queue depth
        (subscribes deferred awaiting the upstream answer); ``session`` is
        the identity reservations are keyed on.
        """
        policy = self.policy
        bound = policy.max_pending_subscribes
        if bound is not None and pending >= bound:
            return AdmissionDecision(
                admitted=False, retry_after=policy.queue_retry_after, cause="queue"
            )
        if policy.subscribe_rate is None:
            return _ADMITTED
        reserved = self._reservations.pop(session, None)
        if reserved is not None:
            if reserved <= now:
                return _ADMITTED
            # Retried before its slot (an impatient client): keep the
            # reservation and restate the remaining wait.
            self._reservations[session] = reserved
            return AdmissionDecision(admitted=False, retry_after=reserved - now, cause="rate")
        slot = self._take_slot(now)
        if slot <= now:
            return _ADMITTED
        # Rejected — but the slot just consumed is *this* session's
        # reservation, so its retry cannot lose a race against later
        # arrivals (they reserved later slots).
        self._reservations[session] = slot
        return AdmissionDecision(admitted=False, retry_after=slot - now, cause="rate")

    def _take_slot(self, now: float) -> float:
        """Consume the next token slot: the virtual time its token is free.

        A slot at or before ``now`` is an admission; a future slot is a
        reservation.  The bucket re-anchors whenever every granted token has
        been earned back (``now >= anchor + granted * interval``) — the
        full-bucket condition — after which ``bucket_depth`` slots are in
        the past again.
        """
        interval = self._interval
        if now >= self._anchor + self._granted * interval:
            self._anchor = now
            self._granted = 0
        slot = self._anchor + (self._granted - self.policy.bucket_depth + 1) * interval
        self._granted += 1
        if slot > now:
            return slot
        return now

    # ------------------------------------------------------------------- queries
    def saturated(self, now: float, pending: int) -> bool:
        """Whether a fresh arrival at ``now`` would be rejected.

        A pure peek — consumes no token and makes no reservation — used by
        the topology's spillover placement to skip leaves that would just
        bounce the subscriber.
        """
        policy = self.policy
        bound = policy.max_pending_subscribes
        if bound is not None and pending >= bound:
            return True
        if policy.subscribe_rate is None:
            return False
        interval = self._interval
        if now >= self._anchor + self._granted * interval:
            return False  # fully refilled: the next arrival re-anchors
        slot = self._anchor + (self._granted - policy.bucket_depth + 1) * interval
        return slot > now

    @property
    def outstanding_reservations(self) -> int:
        """Rate-rejected sessions whose retry has not arrived yet."""
        return len(self._reservations)

    # ---------------------------------------------------------------- lifecycle
    def forget(self, session: object) -> None:
        """Drop a session's reservation (it closed, or spilled elsewhere)."""
        self._reservations.pop(session, None)
