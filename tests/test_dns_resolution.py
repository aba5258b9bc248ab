"""End-to-end tests for classic DNS: transport, authoritative server, resolvers."""

from __future__ import annotations

import pytest

from repro.dns.message import make_query
from repro.dns.name import Name
from repro.dns.resolver import RecursiveResolver, ResolutionError, StubResolver
from repro.dns.server import AuthoritativeServer
from repro.dns.transport import DEFAULT_QUERY_TIMEOUT, DEFAULT_RETRIES, DnsUdpEndpoint
from repro.dns.types import Rcode, RecordType
from repro.dns.zone import Zone
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator

ROOT, TLD, AUTH, REC, STUB = "198.41.0.4", "192.5.6.30", "93.184.216.1", "10.0.0.53", "10.0.0.2"


def _build_hierarchy(loss_rate: float = 0.0, record_ttl: int = 300):
    simulator = Simulator(seed=3)
    network = Network(simulator)
    for host in (ROOT, TLD, AUTH, REC, STUB):
        network.add_host(host)
    network.connect(STUB, REC, LinkConfig(delay=0.005, loss_rate=loss_rate))
    for upstream in (ROOT, TLD, AUTH):
        network.connect(REC, upstream, LinkConfig(delay=0.02, loss_rate=loss_rate))

    root_zone = Zone(".")
    root_zone.add("com.", "NS", "a.gtld-servers.net.", ttl=3600, bump=False)
    root_zone.add("a.gtld-servers.net.", "A", TLD, ttl=3600, bump=False)
    tld_zone = Zone("com.")
    tld_zone.add("example.com.", "NS", "ns1.example.com.", ttl=3600, bump=False)
    tld_zone.add("ns1.example.com.", "A", AUTH, ttl=3600, bump=False)
    auth_zone = Zone("example.com.")
    auth_zone.add("www.example.com.", "A", "192.0.2.10", ttl=record_ttl, bump=False)
    auth_zone.add("www.example.com.", "AAAA", "2001:db8::10", ttl=record_ttl, bump=False)

    AuthoritativeServer(network.host(ROOT), [root_zone])
    AuthoritativeServer(network.host(TLD), [tld_zone])
    auth_server = AuthoritativeServer(network.host(AUTH), [auth_zone])
    recursive = RecursiveResolver(network.host(REC), [Address(ROOT, 53)], serve_port=53)
    stub = StubResolver(network.host(STUB), Address(REC, 53))
    return simulator, network, recursive, stub, auth_server, auth_zone


class TestUdpTransport:
    def test_query_response_roundtrip(self, simulator, two_host_network):
        network = two_host_network
        answers = []

        def handler(query, source, respond):
            from repro.dns.message import make_response

            respond(make_response(query, rcode=Rcode.NOERROR))

        DnsUdpEndpoint(network.host("10.0.0.2"), port=53, handler=handler)
        client = DnsUdpEndpoint(network.host("10.0.0.1"))
        client.query(make_query("x.example.", "A"), Address("10.0.0.2", 53), answers.append)
        simulator.run()
        assert len(answers) == 1 and answers[0] is not None
        assert client.statistics.responses_received == 1

    def test_timeout_invokes_callback_with_none(self, simulator, two_host_network):
        network = two_host_network
        answers = []
        client = DnsUdpEndpoint(network.host("10.0.0.1"))
        # Port 53 on the peer is not bound: the query is silently dropped.
        client.query(make_query("x.example.", "A"), Address("10.0.0.2", 53), answers.append)
        simulator.run()
        assert answers == [None]
        assert client.statistics.timeouts == 1
        assert client.statistics.retransmissions == DEFAULT_RETRIES
        assert simulator.now == pytest.approx((DEFAULT_RETRIES + 1) * DEFAULT_QUERY_TIMEOUT)

    def test_unbound_handler_refuses_queries(self, simulator, two_host_network):
        network = two_host_network
        answers = []
        DnsUdpEndpoint(network.host("10.0.0.2"), port=53)  # no handler installed
        client = DnsUdpEndpoint(network.host("10.0.0.1"))
        client.query(make_query("x.example.", "A"), Address("10.0.0.2", 53), answers.append)
        simulator.run()
        assert answers[0] is not None and answers[0].rcode == Rcode.REFUSED


class TestAuthoritativeServer:
    def test_serves_answers_and_referrals(self):
        simulator, network, recursive, stub, auth_server, _ = _build_hierarchy()
        www = Name.from_text("www.example.com.")
        result = auth_server.zone_for(www).lookup(www, RecordType.A)
        assert result.rcode == Rcode.NOERROR and result.answers
        assert auth_server.zone_for(Name.from_text("www.other.org.")) is None

    def test_zone_for_picks_most_specific(self):
        simulator = Simulator()
        network = Network(simulator)
        host = network.add_host("1.2.3.4")
        parent = Zone("example.com.")
        child = Zone("sub.example.com.")
        server = AuthoritativeServer(host, [parent, child])
        assert server.zone_for(Name.from_text("x.sub.example.com.")) is child
        assert server.zone_for(Name.from_text("x.example.com.")) is parent


class TestRecursiveResolution:
    def test_full_recursive_lookup(self):
        simulator, network, recursive, stub, _, _ = _build_hierarchy()
        outcomes = []
        stub.resolve("www.example.com.", "A", outcomes.append)
        simulator.run()
        outcome = outcomes[0]
        assert outcome.rcode == Rcode.NOERROR
        assert outcome.rrset is not None
        assert outcome.rrset.sorted_rdata_texts() == ["192.0.2.10"]
        # 1 stub RTT (10 ms) + 3 upstream RTTs (40 ms each).
        assert outcome.duration == pytest.approx(0.13, abs=1e-6)
        assert recursive.statistics.upstream_queries == 3
        assert recursive.statistics.referrals_followed == 2

    def test_second_lookup_served_from_recursive_cache(self):
        simulator, network, recursive, stub, _, _ = _build_hierarchy()
        stub.resolve("www.example.com.", "A", lambda o: None)
        simulator.run()
        upstream_before = recursive.statistics.upstream_queries
        outcomes = []
        other_stub = StubResolver(network.host(STUB), Address(REC, 53))
        other_stub.resolve("www.example.com.", "A", outcomes.append)
        simulator.run()
        assert outcomes[0].rcode == Rcode.NOERROR
        assert recursive.statistics.upstream_queries == upstream_before
        assert outcomes[0].duration == pytest.approx(0.01, abs=1e-6)

    def test_stub_cache_hit_avoids_network(self):
        simulator, network, recursive, stub, _, _ = _build_hierarchy()
        stub.resolve("www.example.com.", "A", lambda o: None)
        simulator.run()
        outcomes = []
        stub.resolve("www.example.com.", "A", outcomes.append)
        assert outcomes[0].from_cache is True

    def test_nxdomain_propagates(self):
        simulator, network, recursive, stub, _, _ = _build_hierarchy()
        outcomes = []
        stub.resolve("missing.example.com.", "A", outcomes.append)
        simulator.run()
        assert outcomes[0].rcode == Rcode.NXDOMAIN

    def test_nodata_answer_is_noerror_without_records(self):
        simulator, network, recursive, stub, _, _ = _build_hierarchy()
        outcomes = []
        stub.resolve("www.example.com.", "TXT", outcomes.append)
        simulator.run()
        assert outcomes[0].rcode == Rcode.NOERROR
        assert outcomes[0].rrset is None

    def test_aaaa_resolution(self):
        simulator, network, recursive, stub, _, _ = _build_hierarchy()
        outcomes = []
        stub.resolve("www.example.com.", "AAAA", outcomes.append)
        simulator.run()
        assert outcomes[0].rrset.sorted_rdata_texts() == ["2001:db8::10"]

    def test_resolution_survives_moderate_loss(self):
        simulator, network, recursive, stub, _, _ = _build_hierarchy(loss_rate=0.15)
        outcomes = []
        stub.resolve("www.example.com.", "A", outcomes.append)
        simulator.run()
        # Retries should eventually succeed despite 15% loss on every link.
        assert outcomes and outcomes[0].rcode in (Rcode.NOERROR, Rcode.SERVFAIL)

    def test_resolver_requires_root_servers(self):
        simulator = Simulator()
        network = Network(simulator)
        host = network.add_host("9.9.9.9")
        with pytest.raises(ResolutionError):
            RecursiveResolver(host, [], serve_port=53)

    def test_cache_expiry_triggers_refetch(self):
        simulator, network, recursive, stub, _, _ = _build_hierarchy(record_ttl=30)
        stub.resolve("www.example.com.", "A", lambda o: None)
        simulator.run()
        upstream_before = recursive.statistics.upstream_queries
        simulator.advance(31.0)
        fresh_stub = StubResolver(network.host(STUB), Address(REC, 53))
        fresh_stub.resolve("www.example.com.", "A", lambda o: None)
        simulator.run()
        assert recursive.statistics.upstream_queries > upstream_before
