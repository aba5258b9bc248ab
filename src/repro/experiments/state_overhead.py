"""E9 — §5.1: state-management overhead and subscription teardown policies.

Classic DNS over UDP keeps no connection state; DNS over MoQT keeps a QUIC
connection and MoQT session per upstream plus one subscription per tracked
question.  The experiment subscribes a resolver to a configurable number of
questions, measures its state counters, converts them to approximate bytes
with the analytical state model, and then compares the teardown policies of
§4.4 on a synthetic lookup history (how much state each retains and how many
re-subscriptions it would force).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.state_overhead import StateModel, endpoint_state_bytes, state_comparison
from repro.core.mapping import DnsQuestionKey
from repro.core.subscription import (
    AdaptivePolicy,
    IdleTimeoutPolicy,
    LruBudgetPolicy,
    NeverTearDown,
    SubscriptionRegistry,
    TeardownPolicy,
)
from repro.dns.name import Name
from repro.dns.types import RecordType

#: Distinct questions in the lookup history, its length in virtual seconds
#: (one day), the history's seed and the upstream servers a resolver keeps
#: sessions with.
QUESTIONS = 200
DURATION = 86_400.0
SEED = 11
UPSTREAM_SERVERS = 8


@dataclass
class PolicyOutcome:
    """How one teardown policy behaves on the synthetic lookup history."""

    policy: str
    tracked_at_end: int
    torn_down: int
    forced_resubscriptions: int
    state_bytes: int

    def as_row(self) -> dict[str, object]:
        """Row representation for report tables."""
        return {
            "policy": self.policy,
            "tracked": self.tracked_at_end,
            "torn_down": self.torn_down,
            "re_subscriptions": self.forced_resubscriptions,
            "state_kib": round(self.state_bytes / 1024, 1),
        }


@dataclass
class StateOverheadResult:
    """Per-policy outcomes plus the classic-vs-MoQT comparison."""

    policies: list[PolicyOutcome]
    classic_vs_moqt: dict[str, int]

    def rows(self) -> list[dict[str, object]]:
        """Table rows."""
        return [outcome.as_row() for outcome in self.policies]


def _question(index: int) -> DnsQuestionKey:
    return DnsQuestionKey(
        qname=Name.from_text(f"site{index:05d}.com."), qtype=RecordType.A
    )


def _run_policy(
    policy: TeardownPolicy, lookups_per_question: dict[int, list[float]], model: StateModel
) -> PolicyOutcome:
    registry = SubscriptionRegistry()
    forced_resubscriptions = 0
    events: list[tuple[float, int]] = [
        (time, index)
        for index, times in lookups_per_question.items()
        for time in times
    ]
    events.sort()
    maintenance_interval = DURATION / 50.0
    next_maintenance = maintenance_interval
    torn_down = 0
    for time, index in events:
        while time >= next_maintenance:
            torn_down += len(registry.collect_victims(next_maintenance, policy, ()))
            next_maintenance += maintenance_interval
        key = _question(index)
        if registry.get(key) is None and registry.last_known_group(key) is not None:
            forced_resubscriptions += 1
        registry.record_lookup(key, time)
        registry.record_update(key, group_id=int(time))
    torn_down += len(registry.collect_victims(DURATION, policy, ()))
    state_bytes = endpoint_state_bytes(
        connections=UPSTREAM_SERVERS,
        sessions=UPSTREAM_SERVERS,
        subscriptions=registry.state_size(),
        cache_entries=registry.state_size(),
        model=model,
    )
    return PolicyOutcome(
        policy=policy.name,
        tracked_at_end=registry.state_size(),
        torn_down=torn_down,
        forced_resubscriptions=forced_resubscriptions,
        state_bytes=state_bytes,
    )


def run_state_overhead() -> StateOverheadResult:
    """Run the state-overhead experiment.

    A synthetic one-day lookup history of ``QUESTIONS`` questions is
    generated with Zipf-like skew (a few hot questions looked up many times,
    a long tail looked up once or twice), then each §4.4 policy is replayed
    over it.
    """
    rng = random.Random(SEED)
    lookups_per_question: dict[int, list[float]] = {}
    for index in range(QUESTIONS):
        # Rank-dependent lookup counts: hot questions get many lookups.
        rate = max(1, int(50 / (1 + index // 20)))
        times = sorted(rng.uniform(0, DURATION) for _ in range(rate))
        lookups_per_question[index] = times

    model = StateModel()
    policies: list[TeardownPolicy] = [
        NeverTearDown(),
        IdleTimeoutPolicy(idle_timeout=3600.0),
        LruBudgetPolicy(budget=max(10, QUESTIONS // 4)),
        AdaptivePolicy(base_retention=600.0),
    ]
    outcomes = [_run_policy(policy, lookups_per_question, model) for policy in policies]
    return StateOverheadResult(
        policies=outcomes,
        classic_vs_moqt=state_comparison(QUESTIONS, UPSTREAM_SERVERS, model),
    )
