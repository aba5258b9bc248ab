"""Unicast vs. relay-tree update traffic (§3, §5.3).

Without relays, the origin pushes every update to every subscriber itself:
its egress is ``subscribers x updates`` objects.  With a relay tree, each
node sends one copy per *child*, so the origin's egress is its branching
factor — independent of the subscriber count — and every tier's ingress
equals the number of relays in that tier.  These closed forms are what the
:mod:`repro.experiments.relay_fanout` experiment checks the simulated relay
hierarchy against.

Wire bytes are modelled as ``messages x bytes_per_update``, where
``bytes_per_update`` is the on-the-wire size of one pushed object (payload
plus MoQT subgroup-stream and QUIC framing).  The experiment calibrates it
from a minimal one-relay, one-subscriber run, so the model's predictive
content is the per-tier message *count* scaling, not the framing constant.
"""

from __future__ import annotations

from dataclasses import dataclass


def tier_ingress_messages(receivers: int, updates: int) -> int:
    """Objects entering a tier: one per receiving node per update."""
    if receivers < 0 or updates < 0:
        raise ValueError("receivers and updates must be non-negative")
    return receivers * updates


def unicast_origin_messages(subscribers: int, updates: int) -> int:
    """Origin pushes without a relay tree: one per subscriber per update.

    The degenerate tree — every subscriber is a direct child of the origin.
    """
    return tier_ingress_messages(subscribers, updates)


@dataclass(frozen=True)
class FanoutModel:
    """Closed-form per-tier traffic for one tree shape and update batch.

    ``tier_receivers`` lists, top-down, how many nodes receive each pushed
    object at every level below the origin: first the origin's direct
    children, then each deeper relay tier, and finally the subscribers.
    """

    subscribers: int
    updates: int
    tier_receivers: tuple[int, ...]
    bytes_per_update: float

    def __post_init__(self) -> None:
        if not self.tier_receivers:
            raise ValueError("at least one tier of receivers is required")
        if self.tier_receivers[-1] != self.subscribers:
            raise ValueError(
                "the last receiver tier must be the subscribers: "
                f"{self.tier_receivers[-1]} != {self.subscribers}"
            )

    # ------------------------------------------------------------- messages
    def tier_messages(self) -> tuple[int, ...]:
        """Objects entering each tier (top-down, subscribers last)."""
        return tuple(
            tier_ingress_messages(receivers, self.updates) for receivers in self.tier_receivers
        )

    @property
    def origin_messages(self) -> int:
        """Objects the origin sends — O(branching factor), not O(subscribers)."""
        return self.tier_messages()[0]

    @property
    def unicast_messages(self) -> int:
        """Objects the origin would send without the tree."""
        return unicast_origin_messages(self.subscribers, self.updates)

    @property
    def origin_reduction_factor(self) -> float:
        """How much relay fan-out shrinks origin egress (>1 favours the tree)."""
        if self.origin_messages <= 0:
            return float("inf")
        return self.unicast_messages / self.origin_messages

    # ---------------------------------------------------------------- bytes
    def tier_bytes(self) -> tuple[float, ...]:
        """Wire bytes entering each tier (top-down, subscribers last)."""
        return tuple(messages * self.bytes_per_update for messages in self.tier_messages())

    @property
    def origin_egress_bytes(self) -> float:
        """Wire bytes the origin sends into the top tier."""
        return self.tier_bytes()[0]

    @property
    def unicast_origin_bytes(self) -> float:
        """Wire bytes the origin would send without the tree."""
        return self.unicast_messages * self.bytes_per_update


def fanout_model(
    subscribers: int,
    updates: int,
    tier_sizes: tuple[int, ...],
    bytes_per_update: float,
) -> FanoutModel:
    """Model a tree whose relay tiers have ``tier_sizes`` nodes (top-down).

    Because relays aggregate, a relay with no subscribing descendants never
    subscribes upstream and receives nothing.  With round-robin subscriber
    placement a tier's *effective* receiver count is therefore capped by the
    active population below it: ``min(tier_size, active_below)``, computed
    bottom-up.  With ``subscribers >= tier_sizes[-1]`` every relay is active
    and the chain is simply the tier sizes followed by the subscribers.
    """
    receivers: list[int] = []
    active = subscribers
    for size in reversed(tier_sizes):
        active = min(size, active)
        receivers.append(active)
    receivers.reverse()
    return FanoutModel(
        subscribers=subscribers,
        updates=updates,
        tier_receivers=tuple(receivers) + (subscribers,),
        bytes_per_update=bytes_per_update,
    )


def relative_deviation(measured: float, predicted: float) -> float:
    """``|measured - predicted| / predicted`` (0 when both are zero)."""
    if predicted == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - predicted) / predicted
