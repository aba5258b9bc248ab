"""Tests for subscription tracking, teardown policies and the session manager."""

from __future__ import annotations

import pytest

from repro.core.mapping import DnsQuestionKey
from repro.core.session_manager import SessionManagerConfig, UpstreamSessionManager
from repro.core.subscription import (
    AdaptivePolicy,
    IdleTimeoutPolicy,
    LruBudgetPolicy,
    NeverTearDown,
    SubscriptionRegistry,
    TrackedSubscription,
)
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.moqt.session import MoqtSession
from repro.moqt.track import FullTrackName
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext


def _key(index: int) -> DnsQuestionKey:
    return DnsQuestionKey(Name.from_text(f"d{index}.example."), RecordType.A)


class TestRegistry:
    def test_record_lookup_creates_and_updates(self):
        registry = SubscriptionRegistry()
        first = registry.record_lookup(_key(1), now=0.0)
        again = registry.record_lookup(_key(1), now=5.0)
        assert first is again
        assert again.lookups == 2
        assert registry.state_size() == 1

    def test_record_update_tracks_group_ids(self):
        registry = SubscriptionRegistry()
        registry.record_lookup(_key(1), now=0.0)
        registry.record_update(_key(1), group_id=4)
        registry.record_update(_key(1), group_id=9)
        registry.record_update(_key(1), group_id=7)  # stale, ignored for max
        assert registry.get(_key(1)).last_group_id == 9
        assert registry.last_known_group(_key(1)) == 9

    def test_teardown_keeps_last_known_group_for_resumption(self):
        registry = SubscriptionRegistry()
        registry.record_lookup(_key(1), now=0.0)
        registry.record_update(_key(1), group_id=5)
        victims = registry.collect_victims(100.0, IdleTimeoutPolicy(idle_timeout=10.0), ())
        assert [victim.key for victim in victims] == [_key(1)]
        assert registry.state_size() == 0
        assert registry.last_known_group(_key(1)) == 5
        resumed = registry.record_lookup(_key(1), now=101.0)
        assert resumed.last_group_id == 5
        assert registry.statistics.resumptions == 1

    def test_a_pinned_question_is_no_candidate(self):
        # A resolver pins what a lookup in flight or a downstream subscriber holds.
        registry = SubscriptionRegistry()
        for index in (1, 2, 3):
            registry.record_lookup(_key(index), now=float(index))
        victims = registry.collect_victims(10.0, LruBudgetPolicy(budget=1), {_key(1)})
        assert [victim.key for victim in victims] == [_key(2)]
        assert registry.get(_key(1)) is not None and registry.state_size() == 2

    def test_statistics_counters(self):
        registry = SubscriptionRegistry()
        registry.record_lookup(_key(1), now=0.0)
        registry.record_lookup(_key(2), now=0.5)
        registry.collect_victims(100.0, IdleTimeoutPolicy(idle_timeout=1.0), ())
        assert registry.statistics.tracked == 2
        assert registry.statistics.torn_down == 2


class TestPolicies:
    def _subscriptions(self, count: int, last_lookup: float = 0.0) -> list[TrackedSubscription]:
        return [
            TrackedSubscription(key=_key(i), last_lookup_at=last_lookup + i)
            for i in range(count)
        ]

    def test_never_policy_keeps_everything(self):
        assert NeverTearDown().select_victims(self._subscriptions(5), now=1e9) == []

    def test_idle_timeout_selects_only_idle(self):
        policy = IdleTimeoutPolicy(idle_timeout=100.0)
        subscriptions = self._subscriptions(3)
        subscriptions[2].last_lookup_at = 990.0
        victims = policy.select_victims(subscriptions, now=1000.0)
        assert subscriptions[2] not in victims
        assert len(victims) == 2

    def test_lru_budget_evicts_least_recently_used(self):
        policy = LruBudgetPolicy(budget=2)
        subscriptions = self._subscriptions(4)
        victims = policy.select_victims(subscriptions, now=100.0)
        assert [victim.key for victim in victims] == [_key(0), _key(1)]

    def test_adaptive_policy_retains_hot_questions_longer(self):
        policy = AdaptivePolicy(base_retention=10.0, cap=10)
        cold = TrackedSubscription(key=_key(1), last_lookup_at=0.0, lookups=1)
        hot = TrackedSubscription(key=_key(2), last_lookup_at=0.0, lookups=8)
        victims = policy.select_victims([cold, hot], now=50.0)
        assert cold in victims and hot not in victims
        assert policy.retention_for(hot) == 80.0

    def test_policy_parameter_validation(self):
        with pytest.raises(ValueError):
            IdleTimeoutPolicy(idle_timeout=0)
        with pytest.raises(ValueError):
            LruBudgetPolicy(budget=0)
        with pytest.raises(ValueError):
            AdaptivePolicy(base_retention=0)


class TestSessionManager:
    def _build(self, config: SessionManagerConfig | None = None):
        simulator = Simulator(seed=5)
        network = Network(simulator)
        network.add_host("1.1.1.1")
        network.add_host("2.2.2.2")
        network.connect("1.1.1.1", "2.2.2.2", LinkConfig(delay=0.01))

        def on_connection(connection):
            MoqtSession(connection, is_client=False)

        QuicEndpoint(
            network.host("2.2.2.2"),
            port=4443,
            server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
            on_connection=on_connection,
        )
        manager = UpstreamSessionManager(network.host("1.1.1.1"), config=config)
        return simulator, manager

    def test_sessions_are_reused(self):
        simulator, manager = self._build()
        upstream = Address("2.2.2.2", 4443)
        first = manager.get_session(upstream)
        simulator.run(until=1.0)
        second = manager.get_session(upstream)
        assert first is second
        assert manager.statistics.sessions_created == 1
        assert manager.statistics.sessions_reused == 1
        assert manager.session_count() == 1

    def test_closed_sessions_are_replaced_with_0rtt(self):
        simulator, manager = self._build()
        upstream = Address("2.2.2.2", 4443)
        first = manager.get_session(upstream)
        simulator.run(until=1.0)
        manager.close_session(upstream)
        simulator.run(until=2.0)
        second = manager.get_session(upstream)
        simulator.run(until=3.0)
        assert second is not first
        assert manager.statistics.zero_rtt_attempts == 1
        assert second.connection.used_0rtt

    def test_upstream_connections_are_configured_once_and_checked_when_built(self):
        # One ConnectionConfig, validated when the manager's config is
        # built; every upstream connection uses it as given.
        with pytest.raises(ValueError, match="idle_timeout"):
            SessionManagerConfig(connection=ConnectionConfig(idle_timeout=0))
        connection = ConnectionConfig(keepalive_interval=None, idle_timeout=1e9, initial_rtt=1.0)
        simulator, manager = self._build(SessionManagerConfig(connection=connection))
        session = manager.get_session(Address("2.2.2.2", 4443))
        assert session.connection.config is connection

    @pytest.mark.parametrize(
        "timer", [{"idle_timeout": -1.0}, {"keepalive_interval": 0.0}, {"initial_rtt": 0.0}]
    )
    def test_a_bad_timer_fails_where_the_config_is_written(self, timer):
        # No manager, no session: the connection config refuses the timer.
        (name,) = timer
        with pytest.raises(ValueError, match=name):
            SessionManagerConfig(connection=ConnectionConfig(**timer))

    def test_state_summary_counts_open_sessions(self):
        simulator, manager = self._build()
        manager.get_session(Address("2.2.2.2", 4443))
        simulator.run(until=1.0)
        summary = manager.state_summary()
        assert summary["open_sessions"] == 1
        manager.close_all()
        assert manager.state_summary()["open_sessions"] == 0
