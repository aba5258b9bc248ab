"""Compatibility with the traditional DNS (§4.5).

Incremental deployment requires a recursive resolver to interoperate with
authoritative servers that do not speak MoQT:

* :class:`CapabilityMemo` remembers which upstream hosts support MoQT so the
  happy-eyeballs race is only run the first time a server is contacted;
* :data:`MOQT_TIMEOUT` bounds the MoQT attempt that races the classic
  DNS-over-UDP query;
* :class:`RefreshScheduler` implements the alternative described in the
  paper: instead of declining the downstream subscription, the recursive
  resolver re-requests the record from the non-MoQT authoritative server once
  per TTL and pushes changes to its subscribers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.core.mapping import DnsQuestionKey
from repro.netsim.simulator import PeriodicTask, Simulator


class UpstreamCapability(enum.Enum):
    """What we currently believe about an upstream server's MoQT support."""

    UNKNOWN = "unknown"
    MOQT = "moqt"
    UDP_ONLY = "udp-only"


class CompatibilityMode(enum.Enum):
    """How a resolver handles downstream subscriptions for non-MoQT upstreams."""

    DECLINE_SUBSCRIPTION = "decline"
    PERIODIC_REFRESH = "periodic-refresh"


#: Seconds after which an unanswered MoQT attempt at an upstream is
#: abandoned (and, without the happy-eyeballs race, UDP tried instead).
MOQT_TIMEOUT = 1.0

class CapabilityMemo:
    """Per-host memory of upstream MoQT support."""

    def __init__(self) -> None:
        self._capabilities: dict[str, UpstreamCapability] = {}

    def get(self, host: str) -> UpstreamCapability:
        """Current belief for a host."""
        return self._capabilities.get(host, UpstreamCapability.UNKNOWN)

    def note_moqt_success(self, host: str) -> None:
        """Record that a host answered over MoQT."""
        self._capabilities[host] = UpstreamCapability.MOQT

    def note_udp_only(self, host: str) -> None:
        """Record that a host only answered over classic DNS."""
        self._capabilities[host] = UpstreamCapability.UDP_ONLY

    def known_moqt_hosts(self) -> list[str]:
        """Hosts currently believed to support MoQT."""
        return [
            host
            for host, capability in self._capabilities.items()
            if capability is UpstreamCapability.MOQT
        ]

    def __len__(self) -> int:
        return len(self._capabilities)


@dataclass
class _RefreshEntry:
    """One periodically refreshed question."""

    key: DnsQuestionKey
    task: PeriodicTask
    refreshes: int = 0


class RefreshScheduler:
    """Periodically re-resolves questions served by non-MoQT upstreams.

    The refresh interval equals the record's TTL, which the paper notes is
    also the maximum rate at which traditional DNS would have re-requested
    the record, so the upstream sees no extra load.
    """

    def __init__(self, simulator: Simulator) -> None:
        self._simulator = simulator
        self._entries: dict[DnsQuestionKey, _RefreshEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def is_scheduled(self, key: DnsQuestionKey) -> bool:
        """Whether a refresh loop is active for this question."""
        return key in self._entries

    def schedule(
        self, key: DnsQuestionKey, interval: float, refresh: Callable[[DnsQuestionKey], None]
    ) -> None:
        """Start refreshing ``key`` every ``interval`` seconds."""
        if key in self._entries:
            return
        entry = _RefreshEntry(key=key, task=None)  # type: ignore[arg-type]

        def tick() -> None:
            entry.refreshes += 1
            refresh(key)

        entry.task = PeriodicTask(self._simulator, interval, tick)
        entry.task.start()
        self._entries[key] = entry

    def cancel(self, key: DnsQuestionKey) -> bool:
        """Stop refreshing ``key``."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        entry.task.stop()
        return True

    def refresh_counts(self) -> dict[DnsQuestionKey, int]:
        """Number of refreshes performed per question."""
        return {key: entry.refreshes for key, entry in self._entries.items()}
