#!/usr/bin/env python3
"""Deep space DNS: pre-positioning records across interplanetary links (§1, §5.3).

The IETF TIPTOP work explores running IP (and DNS) across deep-space links
where a single round trip takes minutes.  Handshake-heavy lookups are
hopeless there; actively replicating records to the remote site is the
proposed alternative.  This example places a "Mars" recursive resolver behind
a long-delay link, lets it subscribe to the records its site needs while the
link is available, and then shows that

* local lookups on Mars are answered immediately from the replicated state,
  with zero light-trip waits;
* an on-Earth record change reaches Mars after exactly one one-way
  propagation delay — rather than TTL expiry plus three round trips;
* throttling high-churn (CDN-style) records keeps the update traffic tiny.

The one-way delay is set to 60 s so the example finishes quickly; real
Mars delays (3–22 minutes) only scale the same numbers.

Run with:  python examples/deep_space.py
"""

from __future__ import annotations

from repro.analysis.usecases import deep_space_update_traffic_bps
from repro.core.forwarder import ForwarderConfig, MoqForwarder
from repro.core.mapping import DnsQuestionKey
from repro.core.session_manager import SessionManagerConfig
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import RECURSIVE_HOST, STUB_HOST, SmallTopology, SmallTopologyConfig
from repro.netsim.link import LinkConfig
from repro.netsim.packet import Address

ONE_WAY_DELAY = 60.0  # seconds Earth -> Mars
MARS_HOST = "10.99.0.1"


def main() -> None:
    # Earth side: the usual hierarchy with an MoQT recursive resolver.  The
    # resolver's stub-facing QUIC parameters are relaxed so connections from
    # Mars survive the path delay (no 30 s idle timeout, RTT-sized
    # retransmission timer).
    from repro.quic.connection import ConnectionConfig

    config = SmallTopologyConfig(
        domain="ops.mission.example.",
        record_ttl=300,
        resolver_downstream_connection=ConnectionConfig(
            alpn_protocols=("moq-00",),
            idle_timeout=1e9,
            initial_rtt=2 * ONE_WAY_DELAY,
        ),
    )
    topology = SmallTopology(config)
    simulator = topology.simulator
    network = topology.network

    # Mars side: a forwarder behind a 60 s one-way link to Earth's resolver.
    network.add_host(MARS_HOST)
    network.connect(
        MARS_HOST,
        RECURSIVE_HOST,
        LinkConfig(delay=ONE_WAY_DELAY, bandwidth=2_000_000.0),
    )
    mars = MoqForwarder(
        network.host(MARS_HOST),
        recursive_moqt_address=Address(RECURSIVE_HOST, 4443),
        config=ForwarderConfig(
            upstream_timeout=20 * ONE_WAY_DELAY,
            # Deep-space transport profile (cf. the TIPTOP QUIC profile the
            # paper cites): no keepalives, effectively no idle timeout, and a
            # retransmission timer seeded with the real path RTT.
            session_manager=SessionManagerConfig(
                connection=ConnectionConfig(
                    keepalive_interval=None,
                    idle_timeout=1e9,
                    initial_rtt=2 * ONE_WAY_DELAY,
                ),
            ),
        ),
    )
    key = DnsQuestionKey(qname=Name.from_text(config.domain), qtype=RecordType.A)

    print("== Deep-space DNS over MoQT (60 s one-way delay) ==\n")
    print("-- 1. Pre-positioning: Mars subscribes to the records it needs --")
    started = simulator.now
    answers = []
    mars.resolve(key, lambda message, version: answers.append(simulator.now - started))
    topology.run(20 * ONE_WAY_DELAY)
    print(f"  initial subscription + fetch completed after {answers[0] / 60:.1f} minutes "
          "(paid once, while the link is up)")

    print("\n-- 2. Local lookups on Mars are instant --")
    local = []
    mars.resolve(key, lambda message, version: local.append(message))
    print(f"  answer served locally: {[r.rdata.to_text() for r in local[0].answers]}"
          " (no light-trip round trips)")

    print("\n-- 3. A record change on Earth propagates in one one-way delay --")
    updates = []
    mars.on_record_updated.append(lambda _key, record: updates.append(simulator.now))
    change_time = simulator.now
    topology.update_record("198.51.100.42")
    topology.run(3 * ONE_WAY_DELAY)
    delay = updates[0] - change_time
    print(f"  new version on Mars after {delay / 60:.2f} minutes "
          f"(TTL-based caching could lag by up to {config.record_ttl / 60:.0f} minutes "
          "plus several round trips of re-resolution)")

    print("\n-- 4. Throttled update traffic towards the deep-space site --")
    estimate = deep_space_update_traffic_bps()
    print(
        "  10k subscribed domains, 90% throttled to daily forwarding: "
        f"{estimate.kbps:.2f} kbit/s across the deep-space link"
    )


if __name__ == "__main__":
    main()
