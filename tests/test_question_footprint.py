"""What one subscribed question holds, and what a finished lookup leaves (``docs/resolvers.md``).

The paper's price for pub/sub DNS is "a higher overhead for endpoints due to
additional state management" (§5.1).  The resolver chain that pays it — stub
or forwarder, recursive resolver — shares one core
(``repro.core.subscribing``), whose rule is that a finished lookup leaves
nothing behind: only the question's record, its registry entry and the push
handler on its subscription outlive it.  Pinned here:

* (a) live bytes and blocks per subscribed question, per layer — 1,000 A
  questions after 200 warm-ups on ``build_workload_topology`` with 8
  authoritative hosts — are rows of the exact-cost ledger
  (``tests/exact/``, ``question.*``).  The network keeps no per-question
  state of its own: a ``question.bytes.netsim`` row in the kilobytes is a
  datagram trace recording by default again;
* (b) retention, read from the same run — once the warm-up has opened a
  session to every upstream host, the numbers of live attempt, ``Timer``,
  ``FetchRequest`` and resolution-task objects do not depend on how many
  questions have been resolved, no closure graph is parked per question and
  no lookup is left in flight;
* (c) ``run_teardown`` on both roles: teardown → re-lookup → zone change ends
  with the current answer in the one record;
* (d) the two SUBSCRIBE_ERROR policies, against an upstream that declines the
  subscription and answers the joining FETCH: the forwarder waits for the
  FETCH, the recursive resolver fails the step at once.

Source mutations tried when this file was written, each failing a test: the
attempt keeping its callback after finishing (d: the outcome is reported
twice) or leaving itself on the subscription's ``on_response`` (b); a
completed or errored fetch left in ``MoqtSession._fetches`` (the ledger's
``question.*`` rows, b); a fresh record built per push (c, and
``test_core_servers.py``); the forwarder handed the recursive's
``on_response`` and the reverse (d).
"""

from __future__ import annotations

import pytest

from repro.core.compatibility import MOQT_TIMEOUT
from repro.core.encapsulation import encapsulate_response
from repro.core.forwarder import MoqForwarder
from repro.core.mapping import DnsQuestionKey, track_to_question
from repro.core.recursive import MoqRecursiveResolver
from repro.core.subscription import IdleTimeoutPolicy
from repro.dns.message import make_query, make_response
from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rr import ResourceRecord
from repro.dns.types import MOQT_PORT, RecordType
from repro.experiments.topology import SmallTopology
from repro.moqt.errors import SubscribeErrorCode
from repro.moqt.session import MOQT_ALPN, FetchResult, MoqtSession, SubscribeResult
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext


# ---------------------------------------------------------- (b) retention
def test_a_finished_lookup_leaves_nothing_behind(exact_costs):
    """The ledger's question scenario (``tests/exact/collect.py``) counts the
    live objects of each kind after 250 and after 500 of its 1,000 questions:
    the difference per question is what a finished lookup leaves."""
    rows, _ = exact_costs
    for kind in ("SubscribeFetch", "Timer", "FetchRequest", "_ResolutionTask"):
        assert rows[f"question.retained.{kind}"] == 0, kind
    # The push handler is one slotted object (``PushHandler``): no closure per question.
    assert rows["question.retained.function"] <= 1 and rows["question.retained.cell"] <= 2
    assert rows["question.inflight_lookups"] == 0


# ---------------------------------------------------------------- (c) teardown
KEY = DnsQuestionKey(qname=Name.from_text("www.example.com."), qtype=RecordType.A)


def _addresses(message) -> list[str]:
    return [record.rdata.to_text() for record in message.answers]


@pytest.mark.parametrize("role", ["forwarder", "moqt_recursive"])
def test_teardown_then_relookup_then_zone_change(role):
    topology = SmallTopology()
    node = getattr(topology, role)
    node.registry.policy = IdleTimeoutPolicy(idle_timeout=1.0)
    answers = []

    def lookup() -> None:
        if role == "forwarder":
            node.resolve(KEY, lambda message, version: answers.append(message))
        else:
            node.resolve(KEY, lambda outcome: answers.append(outcome.message))

    lookup()
    topology.run(5.0)
    assert node.run_teardown() >= 1
    assert node.registry.get(KEY) is None
    if role == "forwarder":
        assert node.records() == {}, "the forwarder's teardown forgets the record"
    else:
        assert not node.record(KEY).subscribed, "the resolver's record ages by its TTL again"
    lookup()
    topology.run(5.0)
    assert [_addresses(message) for message in answers] == [["192.0.2.10"]] * 2
    serial = topology.update_record("203.0.113.9")
    topology.run(5.0)
    record = node.record(KEY)
    assert _addresses(record.message) == ["203.0.113.9"] and record.version == serial
    assert record.subscribed
    assert sum(1 for key in node.records() if key == KEY) == 1
    if role == "forwarder":
        assert len(node.records()) == 1
    assert node.state_summary()["inflight_lookups"] == 0


# ------------------------------------------------- (d) SUBSCRIBE_ERROR policies
UPSTREAM, CLIENT, RTT = "198.51.100.1", "10.0.0.1", 0.040


class _DecliningUpstream:
    """Declines every SUBSCRIBE, then answers its joining FETCH (version 7)."""

    def handle_subscribe(self, session, message):
        return None  # decided when the joining FETCH arrives, SUBSCRIBE_ERROR first

    def handle_fetch(self, session, message, full_track_name):
        session.complete_subscribe(
            message.joining_request_id,
            SubscribeResult(ok=False, error_code=SubscribeErrorCode.NOT_SUPPORTED, reason="no"),
        )
        key = track_to_question(full_track_name)
        answer = ResourceRecord(key.qname, RecordType.A, ARdata("192.0.2.77"), ttl=60)
        response = make_response(make_query(key.qname, key.qtype), answers=[answer])
        obj = encapsulate_response(response, 7)
        return FetchResult(ok=True, objects=[obj], largest=obj.location)


def _declining_upstream():
    simulator = Simulator(seed=9)
    network = Network(simulator)
    network.add_host(UPSTREAM)
    network.add_host(CLIENT)
    network.connect(UPSTREAM, CLIENT, LinkConfig(delay=RTT / 2))
    delegate = _DecliningUpstream()
    sessions = []
    QuicEndpoint(
        network.host(UPSTREAM),
        port=MOQT_PORT,
        server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
        on_connection=lambda connection: sessions.append(
            MoqtSession(connection, is_client=False, publisher_delegate=delegate)
        ),
    )
    return simulator, network.host(CLIENT), Address(UPSTREAM, MOQT_PORT)


def test_forwarder_waits_for_the_joining_fetch_of_a_declined_subscription():
    simulator, host, upstream = _declining_upstream()
    forwarder = MoqForwarder(host, upstream)
    answers = []
    forwarder.resolve(KEY, lambda message, version: answers.append((message, version)))
    simulator.run(until=2.0)
    ((message, version),) = answers
    assert _addresses(message) == ["192.0.2.77"] and version == 7
    assert forwarder.record(KEY).version == 7
    assert forwarder.statistics.failures == 0
    assert forwarder.state_summary()["subscriptions"] == 0, "the subscription was declined"


def test_recursive_fails_the_step_at_once_when_the_subscription_is_declined():
    simulator, host, upstream = _declining_upstream()
    resolver = MoqRecursiveResolver(host, root_servers=[upstream])
    outcomes = []
    resolver.moqt_subscribe_fetch(
        upstream, KEY, lambda message, version: outcomes.append((message, version, simulator.now))
    )
    simulator.run(until=5.0)
    ((message, version, at),) = outcomes
    assert (message, version) == (None, 0)
    # Handshake + SETUP + the SUBSCRIBE_ERROR: long before the 1 s timeout, and
    # the FETCH answer that followed changed nothing.
    assert at < MOQT_TIMEOUT / 2
    assert resolver.record(KEY) is None
