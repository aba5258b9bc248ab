"""Closed-form recovery model for relay failover (E12).

When a relay dies mid-stream, every orphan (child relay or subscriber)
re-homes by opening a fresh session to its new parent and re-subscribing.
On the simulated stack that costs a fixed number of round trips on the
orphan <-> new-parent link:

1. QUIC handshake — 1 RTT;
2. MoQT session setup (CLIENT_SETUP / SERVER_SETUP) — 1 RTT (a relay
   negotiates the version in SETUP, not in ALPN);
3. SUBSCRIBE / SUBSCRIBE_OK — 1 RTT.

So re-attach latency is ``3 x RTT``, independent of tree size — which is what makes relay churn
tolerable at CDN scale: killing a mid-tier relay under 1,000 subscribers
costs each orphaned edge the same three metro round trips it would cost
under ten.

Gap recovery adds one more round trip: the FETCH against the new parent's
cache is issued once SUBSCRIBE_OK arrives, and (for a warm cache) its
answer completes one RTT later.  A cold cache forwards the FETCH one tier
up, adding the upstream RTT.  The number of objects the FETCH must return
is bounded by the publish rate times the outage window.

The measured counterpart is :mod:`repro.experiments.relay_churn`, which
kills relays under a live 1,000-subscriber CDN tree and compares per-tier
re-attach latencies against this model.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Round trips consumed before the re-SUBSCRIBE can be sent.
QUIC_HANDSHAKE_RTTS = 1
MOQT_SETUP_RTTS = 1
SUBSCRIBE_RTTS = 1


@dataclass(frozen=True)
class RecoveryModel:
    """Re-attach and gap-recovery latency for one orphan class.

    Attributes
    ----------
    link_delay:
        One-way delay of the orphan <-> new-parent link, in seconds.
    """

    link_delay: float

    def __post_init__(self) -> None:
        if self.link_delay < 0:
            raise ValueError(f"link delay must be non-negative: {self.link_delay}")

    @property
    def rtt(self) -> float:
        """Round-trip time on the orphan <-> new-parent link."""
        return 2.0 * self.link_delay

    @property
    def reattach_round_trips(self) -> int:
        """Round trips until the new parent has accepted the subscription."""
        return QUIC_HANDSHAKE_RTTS + MOQT_SETUP_RTTS + SUBSCRIBE_RTTS

    @property
    def reattach_latency(self) -> float:
        """Seconds from failover start to an accepted re-subscription."""
        return self.reattach_round_trips * self.rtt


def recovery_model(link_delay: float) -> RecoveryModel:
    """Model an orphan re-homing over a link with the given one-way delay."""
    return RecoveryModel(link_delay=link_delay)
