"""Unit tests for the §4.5 compatibility helpers."""

from __future__ import annotations

import pytest

from repro.core.compatibility import (
    CapabilityMemo,
    CompatibilityMode,
    RefreshScheduler,
    UpstreamCapability,
)
from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.netsim.simulator import Simulator


def _key(name: str) -> DnsQuestionKey:
    return DnsQuestionKey(Name.from_text(name), RecordType.A)


class TestCapabilityMemo:
    def test_starts_unknown(self):
        memo = CapabilityMemo()
        assert memo.get("1.2.3.4") is UpstreamCapability.UNKNOWN
        assert len(memo) == 0

    def test_records_and_overrides_capabilities(self):
        memo = CapabilityMemo()
        memo.note_udp_only("1.2.3.4")
        assert memo.get("1.2.3.4") is UpstreamCapability.UDP_ONLY
        memo.note_moqt_success("1.2.3.4")
        assert memo.get("1.2.3.4") is UpstreamCapability.MOQT
        assert memo.known_moqt_hosts() == ["1.2.3.4"]


class TestRefreshScheduler:
    def test_refreshes_at_interval_until_cancelled(self):
        simulator = Simulator()
        scheduler = RefreshScheduler(simulator)
        refreshed = []
        scheduler.schedule(_key("a.example."), interval=10.0, refresh=refreshed.append)
        simulator.run(until=35.0)
        assert len(refreshed) == 3
        assert scheduler.refresh_counts()[_key("a.example.")] == 3
        assert scheduler.cancel(_key("a.example.")) is True
        simulator.run(until=100.0)
        assert len(refreshed) == 3

    def test_duplicate_schedule_is_idempotent(self):
        simulator = Simulator()
        scheduler = RefreshScheduler(simulator)
        refreshed = []
        scheduler.schedule(_key("a.example."), 5.0, refreshed.append)
        scheduler.schedule(_key("a.example."), 1.0, refreshed.append)
        simulator.run(until=6.0)
        assert len(refreshed) == 1
        assert len(scheduler) == 1

    def test_cancel_unknown_returns_false(self):
        simulator = Simulator()
        scheduler = RefreshScheduler(simulator)
        assert scheduler.cancel(_key("missing.example.")) is False

    def test_is_scheduled(self):
        simulator = Simulator()
        scheduler = RefreshScheduler(simulator)
        assert not scheduler.is_scheduled(_key("a.example."))
        scheduler.schedule(_key("a.example."), 5.0, lambda key: None)
        assert scheduler.is_scheduled(_key("a.example."))


class TestCompatibilityMode:
    def test_modes_enumerated(self):
        assert CompatibilityMode.DECLINE_SUBSCRIPTION.value == "decline"
        assert CompatibilityMode.PERIODIC_REFRESH.value == "periodic-refresh"
