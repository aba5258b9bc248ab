"""Closed-form model of origin promotion latency (E14).

When the *origin* itself dies silently, recovery is the composition of
three phases, each already modelled in this package:

1. **Detection** — a tier-0 relay's keepalive'd uplink notices the dead
   active through consecutive probe timeouts (or, for a send-less uplink,
   an idle expiry): :class:`repro.analysis.detection.DetectionModel`.
2. **Election** — the first detector's report deposes the active and
   promotes the lowest-index alive standby.  The election is a
   deterministic local computation at the topology controller — no ballots
   cross the wire, no quorum is awaited — so on the simulated stack it
   costs **zero** virtual time.  The term is kept explicit (rather than
   folded away) because any distributed election — leases, a consensus
   round — would land exactly here, and the model should name the seam.
3. **Re-attach** — every tier-0 relay switches its uplink to the promoted
   standby over the pre-established link, paying the same 3-RTT floor
   (QUIC handshake, MoQT SETUP, SUBSCRIBE) as any relay-tier failover:
   :class:`repro.analysis.churn.RecoveryModel`.

So the subscriber-visible promotion latency is ``detection + election +
3 x RTT`` on the origin <-> tier-0 link, independent of the audience size —
the whole population below tier 0 rides along untouched, which is what
makes a replicated origin free at CDN scale.  The gap the tier-0 relays'
FETCH must fill against the standby's warm cache is bounded by the publish
rate times that window.

The measured counterpart is :mod:`repro.experiments.origin_failover`,
which silently crashes the active origin under a live 1,000-subscriber CDN
tree and compares the measured promotion latency against this closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.churn import RecoveryModel, recovery_model
from repro.analysis.detection import DetectionModel

#: Virtual-time cost of the election itself on the simulated stack: the
#: first in-band detector promotes synchronously, so no time passes between
#: the detection signal and the deposed/promoted role swap.
ELECTION_LATENCY = 0.0


@dataclass(frozen=True)
class PromotionModel:
    """Predicted end-to-end promotion latency for one origin death.

    Attributes
    ----------
    detection:
        The first detector's in-band detection model, instantiated from
        that tier-0 uplink's transport state at crash time (the experiment
        snapshots every tier-0 uplink and takes the earliest signal —
        first detector wins, exactly like the implementation).
    reattach:
        The re-attach floor a tier-0 relay pays against the promoted
        standby (3-RTT on the origin link).

    The election between them costs :data:`ELECTION_LATENCY`.
    """

    detection: DetectionModel
    reattach: RecoveryModel

    @property
    def detection_latency(self) -> float:
        """Seconds from the silent crash to the first in-band signal."""
        return self.detection.detection_latency

    @property
    def path(self) -> str:
        """The winning detection path (``"pto-suspect"`` / ``"idle-timeout"``)."""
        return self.detection.path

    @property
    def reattach_latency(self) -> float:
        """The per-relay re-attach floor after the promotion."""
        return self.reattach.reattach_latency

    @property
    def promotion_latency(self) -> float:
        """Seconds from the silent crash to tier-0 re-subscribed through
        the promoted standby: detection + election + the re-attach floor."""
        return self.detection_latency + ELECTION_LATENCY + self.reattach_latency


def promotion_model(detection: DetectionModel, link_delay: float) -> PromotionModel:
    """Model a promotion detected by ``detection`` with tier-0 relays
    re-attaching over a link with the given one-way delay."""
    return PromotionModel(detection=detection, reattach=recovery_model(link_delay))
