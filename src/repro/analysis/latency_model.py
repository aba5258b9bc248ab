"""Round-trip accounting for query latency (§5.2).

The paper's argument is purely in round trips:

* classic DNS over UDP resolves a name from an authoritative server in a
  single round trip;
* DNS over MoQT with no existing connection needs at least three — one for
  the QUIC handshake, one for the MoQT session setup, one for the
  subscription/fetch;
* reusing an established connection and session brings it back to one;
* QUIC 0-RTT removes the connection round trip (two remain with today's
  MoQT);
* moving MoQT version negotiation into ALPN (a future protocol change)
  combined with 0-RTT brings even the first contact down to one round trip.

These functions turn round-trip counts into latencies for the hop RTTs an
experiment uses, including the full recursive chain a stub resolver
experiences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TransportScenario(enum.Enum):
    """The lookup scenarios compared in §5.2."""

    UDP = "udp"
    MOQT_COLD = "moqt-cold"
    MOQT_REUSED_SESSION = "moqt-reused"
    MOQT_0RTT = "moqt-0rtt"
    MOQT_0RTT_ALPN = "moqt-0rtt-alpn"


#: Round trips from "resolver decides to ask a server" to "answer received".
_ROUND_TRIPS = {
    TransportScenario.UDP: 1.0,
    TransportScenario.MOQT_COLD: 3.0,
    TransportScenario.MOQT_REUSED_SESSION: 1.0,
    TransportScenario.MOQT_0RTT: 2.0,
    TransportScenario.MOQT_0RTT_ALPN: 1.0,
}


def lookup_round_trips(scenario: TransportScenario) -> float:
    """Round trips needed for one lookup to one server in a scenario."""
    return _ROUND_TRIPS[scenario]


def lookup_latency(scenario: TransportScenario, rtt: float) -> float:
    """Latency of one lookup to one server over a link with the given RTT."""
    if rtt < 0:
        raise ValueError(f"RTT must be non-negative: {rtt}")
    return lookup_round_trips(scenario) * rtt


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latency of a full stub-observed lookup, split by segment."""

    stub_to_recursive: float
    recursive_to_authorities: float

    @property
    def total(self) -> float:
        """Total stub-observed latency."""
        return self.stub_to_recursive + self.recursive_to_authorities


def recursive_lookup_latency(
    scenario: TransportScenario,
    stub_rtt: float,
    upstream_rtts: list[float],
    recursive_cache_hit: bool = False,
    stub_scenario: TransportScenario | None = None,
) -> LatencyBreakdown:
    """Stub-observed latency of a recursive lookup.

    Parameters
    ----------
    scenario:
        Transport scenario between the recursive resolver and each upstream
        authority (root, TLD, authoritative, ...).
    stub_rtt:
        RTT between the stub (or forwarder) and the recursive resolver.
    upstream_rtts:
        RTTs between the recursive resolver and each authority it must
        contact, in resolution order; empty when the answer is cached.
    recursive_cache_hit:
        When True the upstream segment is skipped entirely.
    stub_scenario:
        Transport scenario on the stub-to-recursive hop; defaults to the same
        scenario as upstream.
    """
    stub = stub_scenario if stub_scenario is not None else scenario
    downstream = lookup_latency(stub, stub_rtt)
    if recursive_cache_hit:
        return LatencyBreakdown(stub_to_recursive=downstream, recursive_to_authorities=0.0)
    upstream = sum(lookup_latency(scenario, rtt) for rtt in upstream_rtts)
    return LatencyBreakdown(stub_to_recursive=downstream, recursive_to_authorities=upstream)
