"""Tests for the MoQT authoritative server, recursive resolver and forwarder."""

from __future__ import annotations

import pytest

from repro.core.auth_server import MoqAuthoritativeServer
from repro.core.compatibility import CompatibilityMode
from repro.core.forwarder import ForwarderConfig, MoqForwarder
from repro.core.mapping import DnsQuestionKey
from repro.core.recursive import MoqRecursiveResolver
from repro.core.subscribing import DEFAULT_NEGATIVE_TTL
from repro.dns.message import make_query
from repro.dns.name import Name
from repro.dns.resolver import StubResolver
from repro.dns.transport import DnsUdpEndpoint
from repro.dns.types import MOQT_PORT, Rcode, RecordType
from repro.experiments.topology import (
    AUTH_HOST,
    RECURSIVE_HOST,
    STUB_HOST,
    SmallTopology,
    SmallTopologyConfig,
)
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.session import MoqtSession
from repro.moqt.track import FullTrackName
from repro.netsim.packet import Address
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint


def _key(name: str = "www.example.com.", rdtype: RecordType = RecordType.A) -> DnsQuestionKey:
    return DnsQuestionKey(qname=Name.from_text(name), qtype=rdtype)


def _subscribe_directly(topology: SmallTopology, key: DnsQuestionKey):
    """Open a MoQT session from the stub host straight to the auth server."""
    from repro.core.mapping import question_to_track

    endpoint = QuicEndpoint(topology.network.host(STUB_HOST))
    # Reach the auth server through the recursive host (multi-hop routing).
    connection = endpoint.connect(
        Address(AUTH_HOST, 4443), ConnectionConfig(alpn_protocols=("moq-00",))
    )
    session = MoqtSession(connection, is_client=True)
    pushed = []
    fetched = []
    subscription = session.subscribe(
        question_to_track(key), on_object=pushed.append,
        on_response=lambda s: fetched.append(("sub", s.state)),
    )
    session.joining_fetch(subscription, on_complete=lambda f: fetched.append(("fetch", f)))
    return session, subscription, pushed, fetched


def _subscribe_to_recursive(topology: SmallTopology, key: DnsQuestionKey):
    """A stub's own MoQT session to the recursive resolver, subscribed to ``key``."""
    from repro.core.mapping import question_to_track

    endpoint = QuicEndpoint(topology.network.host(STUB_HOST))
    connection = endpoint.connect(Address(RECURSIVE_HOST, MOQT_PORT), ConnectionConfig())
    session = MoqtSession(connection, is_client=True)
    pushed = []
    subscription = session.subscribe(question_to_track(key), on_object=pushed.append)
    return endpoint, session, subscription, pushed


class TestMoqAuthoritativeServer:
    def test_fetch_returns_current_record_with_zone_serial(self):
        topology = SmallTopology()
        session, subscription, pushed, events = _subscribe_directly(topology, _key())
        topology.run(5.0)
        assert ("sub", "active") in events
        fetch = [payload for kind, payload in events if kind == "fetch"][0]
        assert fetch.succeeded
        from repro.core.encapsulation import decapsulate_response

        message = decapsulate_response(fetch.objects[-1])
        assert message.answers[0].rdata.to_text() == "192.0.2.10"
        assert fetch.objects[-1].group_id == topology.auth_zone.serial
        assert topology.moqt_auth.statistics.fetches_served == 1
        assert topology.moqt_auth.statistics.subscribes_accepted == 1

    def test_zone_change_pushes_new_object_to_subscribers(self):
        topology = SmallTopology()
        session, subscription, pushed, _ = _subscribe_directly(topology, _key())
        topology.run(5.0)
        serial = topology.update_record("203.0.113.5")
        topology.run(2.0)
        assert len(pushed) == 1
        assert pushed[0].group_id == serial
        from repro.core.encapsulation import decapsulate_response

        assert decapsulate_response(pushed[0]).answers[0].rdata.to_text() == "203.0.113.5"
        assert topology.moqt_auth.statistics.updates_published == 1

    def test_unrelated_zone_change_does_not_push(self):
        topology = SmallTopology()
        session, subscription, pushed, _ = _subscribe_directly(topology, _key())
        topology.run(5.0)
        topology.auth_zone.add("other.example.com.", "A", "198.51.100.9")
        topology.run(2.0)
        assert pushed == []
        assert topology.moqt_auth.statistics.zone_changes_seen >= 1

    def test_subscribe_outside_served_zones_rejected(self):
        topology = SmallTopology()
        session, subscription, pushed, events = _subscribe_directly(
            topology, _key("www.unrelated.org.")
        )
        topology.run(5.0)
        assert ("sub", "error") in events
        assert topology.moqt_auth.statistics.subscribes_rejected == 1

    def test_nxdomain_answer_is_served_and_updated_when_created(self):
        topology = SmallTopology()
        key = _key("new.example.com.")
        session, subscription, pushed, events = _subscribe_directly(topology, key)
        topology.run(5.0)
        fetch = [payload for kind, payload in events if kind == "fetch"][0]
        from repro.core.encapsulation import decapsulate_response

        assert decapsulate_response(fetch.objects[-1]).rcode == Rcode.NXDOMAIN
        topology.auth_zone.add("new.example.com.", "A", "198.51.100.77")
        topology.run(2.0)
        assert pushed, "creating the record must push an update to the subscriber"
        assert decapsulate_response(pushed[-1]).rcode == Rcode.NOERROR


class TestMoqRecursiveResolver:
    def test_cold_lookup_resolves_through_hierarchy(self):
        topology = SmallTopology()
        outcomes = []
        topology.moqt_recursive.resolve(_key(), outcomes.append)
        topology.run(5.0)
        outcome = outcomes[0]
        assert outcome.is_success and outcome.via_moqt
        assert outcome.message.answers[0].rdata.to_text() == "192.0.2.10"
        assert outcome.upstream_operations == 3
        assert topology.moqt_recursive.statistics.upstream_subscribe_fetch == 3

    def test_second_lookup_is_a_cache_hit(self):
        topology = SmallTopology()
        topology.moqt_recursive.resolve(_key(), lambda o: None)
        topology.run(5.0)
        outcomes = []
        topology.moqt_recursive.resolve(_key(), outcomes.append)
        assert outcomes[0].from_cache
        assert topology.moqt_recursive.statistics.cache_hits == 1

    def test_pushed_update_keeps_cache_fresh_beyond_ttl(self):
        topology = SmallTopology(SmallTopologyConfig(record_ttl=10))
        topology.moqt_recursive.resolve(_key(), lambda o: None)
        topology.run(5.0)
        serial = topology.update_record("203.0.113.99")
        topology.run(30.0)  # far beyond the 10 s TTL
        outcomes = []
        topology.moqt_recursive.resolve(_key(), outcomes.append)
        assert outcomes[0].from_cache, "subscribed records never expire"
        assert outcomes[0].message.answers[0].rdata.to_text() == "203.0.113.99"
        assert outcomes[0].version == serial
        assert topology.moqt_recursive.statistics.pushes_received >= 1

    def test_concurrent_lookups_share_one_resolution(self):
        topology = SmallTopology()
        outcomes = []
        topology.moqt_recursive.resolve(_key(), outcomes.append)
        topology.moqt_recursive.resolve(_key(), outcomes.append)
        topology.run(5.0)
        assert len(outcomes) == 2
        assert topology.moqt_recursive.statistics.upstream_subscribe_fetch == 3

    def test_serves_classic_udp_clients(self):
        topology = SmallTopology()
        stub = StubResolver(
            topology.network.host(STUB_HOST), Address(RECURSIVE_HOST, 53)
        )
        outcomes = []
        stub.resolve("www.example.com.", "A", outcomes.append)
        topology.run(5.0)
        assert outcomes[0].rcode == Rcode.NOERROR
        assert outcomes[0].rrset.sorted_rdata_texts() == ["192.0.2.10"]
        assert topology.moqt_recursive.statistics.client_queries_udp == 1

    def test_udp_fallback_when_auth_has_no_moqt(self):
        topology = SmallTopology(
            SmallTopologyConfig(moqt_on_auth=False, happy_eyeballs=True)
        )
        outcomes = []
        topology.moqt_recursive.resolve(_key(), outcomes.append)
        topology.run(10.0)
        outcome = outcomes[0]
        assert outcome.is_success
        assert not outcome.via_moqt
        assert topology.moqt_recursive.statistics.upstream_udp_queries >= 1
        entry = topology.moqt_recursive.record(_key())
        assert entry is not None and not entry.via_moqt

    def test_state_summary_reports_sessions_and_subscriptions(self):
        topology = SmallTopology()
        topology.moqt_recursive.resolve(_key(), lambda o: None)
        topology.run(5.0)
        summary = topology.moqt_recursive.state_summary()
        assert summary["open_sessions"] == 3
        assert summary["records"] >= 3
        assert summary["tracked_questions"] >= 1

    def test_departed_downstream_subscribers_are_forgotten(self):
        topology = SmallTopology()
        resolver = topology.moqt_recursive
        stubs = [_subscribe_to_recursive(topology, _key()) for _ in range(3)]
        topology.run(5.0)

        def subscribers() -> int:
            return resolver.state_summary()["downstream_subscribers"]

        assert subscribers() == 3
        _, session, subscription, _ = stubs[0]
        session.unsubscribe(subscription)
        topology.run(1.0)
        assert subscribers() == 2
        stubs[1][1].close("bye")
        topology.run(1.0)
        assert subscribers() == 1
        stubs[2][0].abandon()  # silent: only the resolver's idle timer notices
        topology.run(60.0)
        assert subscribers() == 0
        assert resolver._downstream == {}
        assert all(s.publisher_subscriptions() == [] for s in resolver.downstream_sessions())

        forwarded = resolver.statistics.pushes_forwarded
        topology.update_record("203.0.113.5")
        topology.run(5.0)
        assert resolver.statistics.pushes_received >= 1
        assert resolver.statistics.pushes_forwarded == forwarded
        assert all(pushed == [] for *_, pushed in stubs)

    def test_run_teardown_applies_policy(self):
        from repro.core.subscription import IdleTimeoutPolicy, NeverTearDown

        topology = SmallTopology()
        resolver = topology.moqt_recursive
        resolver.resolve(_key(), lambda o: None)
        topology.run(5.0)
        assert resolver.run_teardown(NeverTearDown()) == 0
        assert resolver.run_teardown(IdleTimeoutPolicy(idle_timeout=10.0)) == 0, "looked up 5 s ago"
        assert topology.moqt_auth.state_summary()["subscribers"] == 1
        assert resolver.run_teardown(IdleTimeoutPolicy(idle_timeout=1.0)) == 1
        topology.run(1.0)
        entry = resolver.record(_key())
        assert entry is not None and not entry.subscribed
        # The UNSUBSCRIBE reached the authoritative server; the root's and the
        # TLD's NS subscriptions, which no policy tracks, stay.
        assert topology.moqt_auth.state_summary() == {
            "zones": 1, "tracks": 0, "subscribers": 0, "watched_names": 0
        }
        assert resolver.state_summary()["subscriptions"] == 2

    def test_pushed_updates_accumulate_on_the_one_record(self):
        # Every push used to build a fresh record and count it as the first.
        topology = SmallTopology()
        resolver = topology.moqt_recursive
        resolver.resolve(_key(), lambda o: None)
        topology.run(5.0)
        record = resolver.record(_key())
        pushes = resolver.statistics.pushes_received
        for address in ("203.0.113.1", "203.0.113.2", "203.0.113.3"):
            serial = topology.update_record(address)
            topology.run(2.0)
        assert resolver.record(_key()) is record, "updated in place"
        assert resolver.statistics.pushes_received == pushes + 3
        assert record.version == serial
        assert record.message.answers[0].rdata.to_text() == "203.0.113.3"


class TestMoqForwarder:
    def test_forwarder_answers_classic_stub_queries(self):
        topology = SmallTopology()
        client = DnsUdpEndpoint(topology.network.host(STUB_HOST))
        responses = []
        client.query(
            make_query("www.example.com.", "A"), Address(STUB_HOST, 53), responses.append
        )
        topology.run(10.0)
        assert responses[0] is not None
        assert responses[0].rcode == Rcode.NOERROR
        assert responses[0].answers[0].rdata.to_text() == "192.0.2.10"
        assert topology.forwarder.statistics.client_queries == 1

    def test_the_classic_listener_is_bound_at_the_listen_port(self):
        topology = SmallTopology()
        assert topology.forwarder.address == Address(STUB_HOST, 53)
        # A second forwarder on the same host listens where it is told and
        # answers classic clients there, over its own MoQT session.
        forwarder = MoqForwarder(
            topology.network.host(STUB_HOST),
            recursive_moqt_address=Address(RECURSIVE_HOST, MOQT_PORT),
            config=ForwarderConfig(listen_port=5353),
        )
        assert forwarder.address == Address(STUB_HOST, 5353)
        client = DnsUdpEndpoint(topology.network.host(STUB_HOST))
        responses = []
        client.query(
            make_query("www.example.com.", "A"), Address(STUB_HOST, 5353), responses.append
        )
        topology.run(10.0)
        assert responses[0].answers[0].rdata.to_text() == "192.0.2.10"
        assert forwarder.statistics.client_queries == 1
        assert topology.forwarder.statistics.client_queries == 0

    def test_repeat_queries_answered_locally_without_network(self):
        topology = SmallTopology()
        key = _key()
        topology.forwarder.resolve(key, lambda m, v: None)
        topology.run(5.0)
        datagrams_before = topology.network.total_link_statistics()["datagrams_sent"]
        answers = []
        topology.forwarder.resolve(key, lambda m, v: answers.append(v))
        assert answers, "local answer must be synchronous"
        assert topology.network.total_link_statistics()["datagrams_sent"] == datagrams_before
        assert topology.forwarder.statistics.local_answers == 1

    def test_pushed_update_reaches_forwarder_and_its_clients(self):
        topology = SmallTopology()
        key = _key()
        topology.forwarder.resolve(key, lambda m, v: None)
        topology.run(5.0)
        updates = []
        topology.forwarder.on_record_updated.append(lambda k, record: updates.append(record))
        serial = topology.update_record("198.51.100.200")
        topology.run(2.0)
        assert updates and updates[0].version == serial
        assert updates[0].message.answers[0].rdata.to_text() == "198.51.100.200"
        # A classic client asking the forwarder now gets the new version
        # without any additional upstream traffic.
        answers = []
        topology.forwarder.resolve(key, lambda m, v: answers.append(m))
        assert answers[0].answers[0].rdata.to_text() == "198.51.100.200"

    def test_concurrent_identical_queries_deduplicated(self):
        topology = SmallTopology()
        key = _key()
        answers = []
        topology.forwarder.resolve(key, lambda m, v: answers.append(v))
        topology.forwarder.resolve(key, lambda m, v: answers.append(v))
        topology.run(5.0)
        assert len(answers) == 2
        assert topology.forwarder.statistics.upstream_lookups == 1

    def test_state_summary(self):
        topology = SmallTopology()
        topology.forwarder.resolve(_key(), lambda m, v: None)
        topology.run(5.0)
        summary = topology.forwarder.state_summary()
        assert summary["records"] == 1
        assert summary["open_sessions"] == 1

    def test_missing_name_is_answered_nxdomain(self):
        topology = SmallTopology()
        answers = []
        topology.forwarder.resolve(_key("missing.example.com."), lambda m, v: answers.append(m))
        topology.run(5.0)
        assert answers[0].rcode == Rcode.NXDOMAIN
        assert answers[0].answers == ()
        assert topology.forwarder.statistics.failures == 0

    def test_missing_aaaa_is_answered_nodata(self):
        topology = SmallTopology()
        answers = []
        topology.forwarder.resolve(_key(rdtype=RecordType.AAAA), lambda m, v: answers.append(m))
        topology.run(5.0)
        assert answers[0].rcode == Rcode.NOERROR
        assert answers[0].answers == ()

    def test_https_record_reaches_the_client_with_its_alpn_list(self):
        topology = SmallTopology()
        topology.auth_zone.add("www.example.com.", "HTTPS", "1 . alpn=h2,h3", ttl=300)
        answers = []
        topology.forwarder.resolve(_key(rdtype=RecordType.HTTPS), lambda m, v: answers.append(m))
        topology.run(5.0)
        assert [record.rdata.alpns() for record in answers[0].answers] == [["h2", "h3"]]

    def test_classic_client_gets_nxdomain_through_the_listener(self):
        topology = SmallTopology()
        client = DnsUdpEndpoint(topology.network.host(STUB_HOST))
        responses = []
        client.query(
            make_query("missing.example.com.", "A"), Address(STUB_HOST, 53), responses.append
        )
        topology.run(10.0)
        assert responses[0] is not None and responses[0].rcode == Rcode.NXDOMAIN
        assert topology.forwarder.statistics.client_queries == 1

    def test_pushed_updates_keep_answers_current_without_lookups(self):
        topology = SmallTopology()
        key = _key()
        topology.forwarder.resolve(key, lambda m, v: None)
        topology.run(5.0)
        topology.update_record("203.0.113.200")
        topology.run(2.0)
        datagrams_before = topology.network.total_link_statistics()["datagrams_sent"]
        fresh = []
        topology.forwarder.resolve(key, lambda m, v: fresh.append(m))
        assert [r.rdata.to_text() for r in fresh[0].answers] == ["203.0.113.200"]
        assert topology.network.total_link_statistics()["datagrams_sent"] == datagrams_before
        assert topology.forwarder.statistics.pushes_received >= 1
        assert topology.forwarder.statistics.upstream_lookups == 1


class TestCompatibilityModes:
    def test_decline_mode_rejects_downstream_subscription_but_answers_fetch(self):
        topology = SmallTopology(
            SmallTopologyConfig(
                moqt_on_auth=False,
                happy_eyeballs=True,
                compatibility_mode=CompatibilityMode.DECLINE_SUBSCRIPTION,
            )
        )
        key = _key()
        answers = []
        topology.forwarder.resolve(key, lambda m, v: answers.append(m))
        topology.run(10.0)
        assert answers and answers[0] is not None
        assert topology.moqt_recursive.statistics.subscriptions_declined >= 1
        # No pushes can arrive: the record is not subscribed anywhere.
        updates = []
        topology.forwarder.on_record_updated.append(lambda k, r: updates.append(r))
        topology.update_record("198.51.100.9")
        topology.run(5.0)
        assert updates == []

    def test_periodic_refresh_mode_pushes_within_one_ttl(self):
        ttl = 10
        topology = SmallTopology(
            SmallTopologyConfig(
                record_ttl=ttl,
                moqt_on_auth=False,
                happy_eyeballs=True,
                compatibility_mode=CompatibilityMode.PERIODIC_REFRESH,
            )
        )
        key = _key()
        topology.forwarder.resolve(key, lambda m, v: None)
        topology.run(5.0)
        updates = []
        topology.forwarder.on_record_updated.append(lambda k, r: updates.append(topology.simulator.now))
        change_time = topology.simulator.now
        topology.update_record("198.51.100.10")
        topology.run(ttl * 2 + 5.0)
        assert updates, "periodic refresh must propagate the change"
        assert updates[0] - change_time <= ttl * 1.5
        assert topology.moqt_recursive.statistics.refresh_republishes >= 1

    def test_periodic_refresh_of_a_zero_ttl_record_polls_at_the_default(self):
        # A TTL of 0 cannot be the polling interval: the refresh polls at the
        # default negative TTL instead.
        topology = SmallTopology(
            SmallTopologyConfig(record_ttl=0, moqt_on_auth=False, happy_eyeballs=True)
        )
        resolver = topology.moqt_recursive
        answers = []
        topology.forwarder.resolve(_key(), lambda m, v: answers.append(m))
        topology.run(5.0)
        assert answers[0].answers[0].ttl == 0 and resolver.refresher.is_scheduled(_key())
        queries = resolver.statistics.upstream_udp_queries
        topology.run(DEFAULT_NEGATIVE_TTL * 3)
        assert resolver.statistics.upstream_udp_queries - queries == 3

    def test_periodic_refresh_stops_with_its_last_subscriber(self):
        topology = SmallTopology(SmallTopologyConfig(moqt_on_auth=False, record_ttl=5))
        resolver = topology.moqt_recursive
        key = _key()
        _, session, _, _ = _subscribe_to_recursive(topology, key)
        topology.run(10.0)
        assert resolver.refresher.is_scheduled(key)
        session.close("bye")
        topology.run(1.0)
        assert not resolver.refresher.is_scheduled(key)
        queries = resolver.statistics.upstream_udp_queries
        topology.run(300.0)
        assert resolver.statistics.upstream_udp_queries == queries

        # A returning subscriber re-arms the loop.
        _subscribe_to_recursive(topology, key)
        topology.run(12.0)
        assert resolver.refresher.is_scheduled(key)
        assert resolver.statistics.upstream_udp_queries > queries + 1
