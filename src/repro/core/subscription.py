"""Subscription state management and teardown policies (§4.4).

Resolvers that speak DNS over MoQT must track which DNS questions they are
subscribed to, when those subscriptions were last useful, and when to drop
them.  The paper points out the trade-off: keeping subscriptions costs state
(and leaves a privacy trail), dropping them early forces a new session and
subscription on the next lookup.

:class:`SubscriptionRegistry` keeps per-track bookkeeping (lookup counts,
last use, last pushed update, last known group ID for resumption after
reconnects) and applies a pluggable :class:`TeardownPolicy`:

* :class:`NeverTearDown` — keep everything (maximum freshness, maximum state);
* :class:`IdleTimeoutPolicy` — drop tracks not looked up for a fixed period;
* :class:`LruBudgetPolicy` — keep at most N tracks, dropping the least
  recently used;
* :class:`AdaptivePolicy` — the paper's suggestion of adapting to lookup
  history: tracks that are looked up frequently get a longer retention
  period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.mapping import DnsQuestionKey


@dataclass(slots=True)
class TrackedSubscription:
    """Bookkeeping for one subscribed DNS question."""

    key: DnsQuestionKey
    created_at: float
    last_lookup_at: float
    lookups: int = 1
    updates_received: int = 0
    last_update_at: float | None = None
    last_group_id: int | None = None

    def record_lookup(self, now: float) -> None:
        """Note that a client asked for this question again."""
        self.lookups += 1
        self.last_lookup_at = now

    def record_update(self, now: float, group_id: int) -> None:
        """Note a pushed update for this question."""
        self.updates_received += 1
        self.last_update_at = now
        if self.last_group_id is None or group_id > self.last_group_id:
            self.last_group_id = group_id


class TeardownPolicy:
    """Decides which subscriptions to drop; subclasses override :meth:`select_victims`."""

    name = "base"

    def select_victims(
        self, subscriptions: Iterable[TrackedSubscription], now: float
    ) -> list[TrackedSubscription]:
        """Return the subscriptions that should be torn down now."""
        raise NotImplementedError


class NeverTearDown(TeardownPolicy):
    """Keep every subscription for the lifetime of the resolver."""

    name = "never"

    def select_victims(
        self, subscriptions: Iterable[TrackedSubscription], now: float
    ) -> list[TrackedSubscription]:
        return []


class IdleTimeoutPolicy(TeardownPolicy):
    """Drop subscriptions that have not been looked up for ``idle_timeout`` seconds."""

    name = "idle-timeout"

    def __init__(self, idle_timeout: float = 3600.0) -> None:
        if idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive: {idle_timeout}")
        self.idle_timeout = idle_timeout

    def select_victims(
        self, subscriptions: Iterable[TrackedSubscription], now: float
    ) -> list[TrackedSubscription]:
        return [
            subscription
            for subscription in subscriptions
            if now - subscription.last_lookup_at >= self.idle_timeout
        ]


class LruBudgetPolicy(TeardownPolicy):
    """Keep at most ``budget`` subscriptions, evicting the least recently used."""

    name = "lru-budget"

    def __init__(self, budget: int) -> None:
        if budget <= 0:
            raise ValueError(f"budget must be positive: {budget}")
        self.budget = budget

    def select_victims(
        self, subscriptions: Iterable[TrackedSubscription], now: float
    ) -> list[TrackedSubscription]:
        ordered = sorted(subscriptions, key=lambda s: s.last_lookup_at)
        excess = len(ordered) - self.budget
        return ordered[:excess] if excess > 0 else []


class AdaptivePolicy(TeardownPolicy):
    """Retention proportional to observed lookup frequency.

    A track looked up often earns a retention period of
    ``base_retention * min(lookups, cap)``; rarely used tracks fall back to
    the base retention.  This models the paper's suggestion of adapting the
    clean-up dynamics to how likely a domain is to be requested again.
    """

    name = "adaptive"

    def __init__(self, base_retention: float = 600.0, cap: int = 32) -> None:
        if base_retention <= 0:
            raise ValueError(f"base_retention must be positive: {base_retention}")
        self.base_retention = base_retention
        self.cap = cap

    def retention_for(self, subscription: TrackedSubscription) -> float:
        """The retention period earned by a subscription."""
        return self.base_retention * min(subscription.lookups, self.cap)

    def select_victims(
        self, subscriptions: Iterable[TrackedSubscription], now: float
    ) -> list[TrackedSubscription]:
        return [
            subscription
            for subscription in subscriptions
            if now - subscription.last_lookup_at >= self.retention_for(subscription)
        ]


@dataclass
class RegistryStatistics:
    """Counters kept by the registry."""

    tracked: int = 0
    torn_down: int = 0
    resumptions: int = 0


class SubscriptionRegistry:
    """Tracks the DNS questions a resolver is subscribed to.

    The registry is passive: the resolver records lookups and updates, and
    periodically calls :meth:`collect_victims` with the configured policy to
    learn which subscriptions to unsubscribe.  The last known group ID is
    retained even after teardown so a later re-subscription can resume with a
    fetch from that version (§4.4).
    """

    def __init__(self, policy: TeardownPolicy | None) -> None:
        self.policy = policy if policy is not None else NeverTearDown()
        self.statistics = RegistryStatistics()
        self._active: dict[DnsQuestionKey, TrackedSubscription] = {}
        self._last_known_group: dict[DnsQuestionKey, int] = {}

    def __len__(self) -> int:
        return len(self._active)

    def active(self) -> list[TrackedSubscription]:
        """All currently tracked subscriptions."""
        return list(self._active.values())

    def get(self, key: DnsQuestionKey) -> TrackedSubscription | None:
        """The tracked subscription for a question, if any."""
        return self._active.get(key)

    def record_lookup(self, key: DnsQuestionKey, now: float) -> TrackedSubscription:
        """Record a client lookup, creating the tracking entry if needed."""
        subscription = self._active.get(key)
        if subscription is None:
            subscription = TrackedSubscription(key=key, created_at=now, last_lookup_at=now)
            self._active[key] = subscription
            self.statistics.tracked += 1
            if key in self._last_known_group:
                subscription.last_group_id = self._last_known_group[key]
                self.statistics.resumptions += 1
        else:
            subscription.record_lookup(now)
        return subscription

    def record_update(self, key: DnsQuestionKey, now: float, group_id: int) -> None:
        """Record a pushed update for a question (ignored if not tracked)."""
        subscription = self._active.get(key)
        if subscription is not None:
            subscription.record_update(now, group_id)
        self._last_known_group[key] = max(self._last_known_group.get(key, -1), group_id)

    def collect_victims(self, now: float) -> list[TrackedSubscription]:
        """Apply the policy and remove (and return) the victims."""
        victims = self.policy.select_victims(self._active.values(), now)
        for victim in victims:
            self._active.pop(victim.key, None)
            if victim.last_group_id is not None:
                self._last_known_group[victim.key] = victim.last_group_id
            self.statistics.torn_down += 1
        return victims

    def last_known_group(self, key: DnsQuestionKey) -> int | None:
        """The last group ID seen for a question (survives teardown)."""
        return self._last_known_group.get(key)

    def state_size(self) -> int:
        """Number of active subscriptions (the §5.1 state metric)."""
        return len(self._active)
