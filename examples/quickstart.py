#!/usr/bin/env python3
"""Quickstart: one DNS-over-MoQT lookup, then a pushed record update.

The script builds the three-level hierarchy of Fig. 2 on the discrete-event
simulator (stub + forwarder, recursive resolver, root / TLD / authoritative
servers — every authority speaking both classic DNS and MoQT), performs a
cold lookup through the forwarder, and then changes the record at the
authoritative zone to show the update being *pushed* all the way to the stub
without any new request.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import SmallTopology, SmallTopologyConfig


def main() -> None:
    config = SmallTopologyConfig(
        domain="www.example.com.",
        record_ttl=300,
        upstream_rtt=0.040,   # 40 ms between resolver and each authority
    )
    topology = SmallTopology(config)
    simulator = topology.simulator
    key = DnsQuestionKey(qname=Name.from_text(config.domain), qtype=RecordType.A)

    print("== 1. Cold lookup over DNS-over-MoQT (subscribe + joining fetch) ==")
    started = simulator.now

    def on_answer(message, version):
        addresses = [record.rdata.to_text() for record in message.answers]
        latency_ms = (simulator.now - started) * 1000
        print(f"  answer after {latency_ms:.1f} ms: {addresses} (zone version {version})")
        print("  (3 RTTs per hop: QUIC handshake, MoQT session, subscribe+fetch)")

    topology.forwarder.resolve(key, on_answer)
    topology.run(5.0)

    print("\n== 2. Warm lookup: the forwarder answers locally, zero packets ==")
    datagrams_before = topology.network.total_link_statistics()["datagrams_sent"]
    topology.forwarder.resolve(
        key,
        lambda message, version: print(
            f"  answer immediately: {[r.rdata.to_text() for r in message.answers]}"
        ),
    )
    datagrams_after = topology.network.total_link_statistics()["datagrams_sent"]
    print(f"  datagrams sent for the warm lookup: {datagrams_after - datagrams_before}")

    print("\n== 3. The record changes at the authoritative server ==")
    updates = []
    topology.forwarder.on_record_updated.append(
        lambda _key, record: updates.append((simulator.now, record))
    )
    change_time = simulator.now
    new_serial = topology.update_record("203.0.113.77")
    print(f"  zone serial bumped to {new_serial}; the server pushes the new version")
    topology.run(2.0)
    push_time, record = updates[0]
    print(
        f"  pushed update reached the stub after {(push_time - change_time) * 1000:.1f} ms: "
        f"{[r.rdata.to_text() for r in record.message.answers]}"
    )
    print(
        "  (a TTL-based cache would have served the stale record for up to "
        f"{config.record_ttl} s)"
    )

    print("\n== 4. Resolver state (the §5.1 trade-off) ==")
    for name, value in topology.moqt_recursive.state_summary().items():
        print(f"  {name}: {value}")


if __name__ == "__main__":
    main()
