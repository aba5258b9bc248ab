#!/usr/bin/env python3
"""Dynamic DNS: home servers behind changing IP addresses (§1, §5.3).

A home user runs a server behind an ISP connection whose address changes a
couple of times per day.  With DNS over MoQT, the parties interested in that
host subscribe once and receive every address change as a push — this example
simulates one such domain with a handful of subscribed resolvers, shows the
update reaching all of them within propagation delay, and reproduces the
paper's global traffic estimate (~5.5 Gbit/s for 100 M users).

Run with:  python examples/dynamic_dns.py
"""

from __future__ import annotations

from repro.analysis.usecases import ddns_update_traffic_bps
from repro.core.mapping import DnsQuestionKey, question_to_track
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import AUTH_HOST, STUB_HOST, SmallTopology, SmallTopologyConfig
from repro.moqt.session import MoqtSession
from repro.netsim.packet import Address
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint


def main() -> None:
    config = SmallTopologyConfig(domain="myhome.example.com.", record_ttl=60,
                                 initial_address="203.0.113.10")
    topology = SmallTopology(config)
    simulator = topology.simulator
    key = DnsQuestionKey(qname=Name.from_text(config.domain), qtype=RecordType.A)

    print("== Dynamic DNS over MoQT ==")
    print(f"domain: {config.domain}  initial address: {config.initial_address}\n")

    # The forwarder on the stub host subscribes via the recursive resolver,
    # and three additional interested parties subscribe straight to the
    # authoritative server (e.g. friends' resolvers elsewhere).
    topology.forwarder.resolve(key, lambda message, version: None)
    interested = []
    for index in range(3):
        endpoint = QuicEndpoint(topology.network.host(STUB_HOST))
        connection = endpoint.connect(
            Address(AUTH_HOST, 4443), ConnectionConfig(alpn_protocols=("moq-00",))
        )
        session = MoqtSession(connection, is_client=True)
        received: list[float] = []
        session.subscribe(question_to_track(key), on_object=lambda obj, r=received: r.append(simulator.now))
        interested.append(received)
    topology.run(5.0)
    print(f"subscribers attached: forwarder + {len(interested)} direct MoQT subscribers")

    # The ISP reassigns the address twice (the paper's two updates per day).
    for new_address in ("203.0.113.111", "198.51.100.23"):
        change_time = simulator.now
        updates: list[float] = []
        topology.forwarder.on_record_updated.append(
            lambda _key, record, u=updates: u.append(simulator.now)
        )
        topology.update_record(new_address)
        topology.run(2.0)
        delays = [u[-1] - change_time for u in interested if u] + (
            [updates[0] - change_time] if updates else []
        )
        print(
            f"address change to {new_address}: pushed to {len(delays)} subscribers, "
            f"max delay {max(delays) * 1000:.1f} ms"
        )

    auth_stats = topology.moqt_auth.statistics
    print(f"\nauthoritative server pushed {auth_stats.updates_published} objects "
          f"({auth_stats.update_bytes_published} bytes) for 2 address changes")

    print("\n== Scaling to the paper's global estimate ==")
    estimate = ddns_update_traffic_bps()
    print(
        "100M users x 2 updates/day x 1000 interested parties x 300 B "
        f"= {estimate.gbps:.2f} Gbit/s globally (paper: ~5.5 Gbit/s) — negligible at global scale"
    )


if __name__ == "__main__":
    main()
