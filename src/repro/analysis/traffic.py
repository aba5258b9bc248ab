"""Upstream traffic: polling requests vs. pub/sub pushes (§2 and §5).

With request/response DNS, every interested resolver re-requests a record
once per TTL (when continuously interested), regardless of whether the record
changed.  With pub/sub, the authoritative server pushes one object per
*change* per subscriber, and no requests flow at all after the initial
subscription.  The crossover therefore depends on the ratio of the change
interval to the TTL and on the number of interested resolvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def polling_requests(duration: float, ttl: float, resolvers: int = 1) -> float:
    """Number of upstream requests under TTL-driven polling.

    Each continuously interested resolver issues ``ceil(duration / ttl)``
    requests over the period (the first lookup plus one per expiry).
    """
    if duration < 0 or ttl <= 0 or resolvers < 0:
        raise ValueError("duration >= 0, ttl > 0 and resolvers >= 0 required")
    return resolvers * math.ceil(duration / ttl)


def pubsub_messages(
    duration: float, change_interval: float, resolvers: int = 1, include_setup: bool = True
) -> float:
    """Number of messages under pub/sub for the same period.

    One push per record change per subscribed resolver, plus (optionally) the
    initial subscribe+fetch exchange per resolver.
    """
    if duration < 0 or resolvers < 0:
        raise ValueError("duration >= 0 and resolvers >= 0 required")
    if change_interval <= 0:
        changes = 0.0
    else:
        changes = math.floor(duration / change_interval)
    setup = resolvers if include_setup else 0
    return resolvers * changes + setup


@dataclass(frozen=True)
class TrafficComparison:
    """Polling vs. pub/sub message counts for one record and period."""

    duration: float
    ttl: float
    change_interval: float
    resolvers: int
    polling: float
    pubsub: float

    @property
    def pubsub_wins(self) -> bool:
        """Whether pub/sub needs fewer messages over the period."""
        return self.pubsub < self.polling


def traffic_comparison(
    duration: float,
    ttl: float,
    change_interval: float,
    resolvers: int = 1,
    include_setup: bool = True,
) -> TrafficComparison:
    """Compare polling and pub/sub message counts for one record."""
    return TrafficComparison(
        duration=duration,
        ttl=ttl,
        change_interval=change_interval,
        resolvers=resolvers,
        polling=polling_requests(duration, ttl, resolvers),
        pubsub=pubsub_messages(duration, change_interval, resolvers, include_setup),
    )
