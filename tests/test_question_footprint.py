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
* (c) ``run_teardown(policy)`` on both roles: the UNSUBSCRIBE empties the
  authoritative server's track, subscriber and watched-name tables, a zone
  change then pushes nothing, a lookup inside the TTL is answered from the
  aged record and one past it subscribes again and gets the current answer;
  a question the forwarder still follows is no victim at the recursive
  resolver, and a SUBSCRIBE for one it tore down subscribes upstream again;
* (d) the two SUBSCRIBE_ERROR policies, against an upstream that declines the
  subscription and answers the joining FETCH: the forwarder waits for the
  FETCH and files its one-shot answer unsubscribed, so on ``SmallTopology``
  under §4.5's decline it is not served past its TTL; the recursive resolver
  fails the step at once.

Source mutations tried when this file was written, each failing a test: the
attempt keeping its callback after finishing (d: the outcome is reported
twice) or leaving itself on the subscription's ``on_response`` (b); a
completed or errored fetch left in ``MoqtSession._fetches`` (the ledger's
``question.*`` rows, b); a fresh record built per push
(``test_core_servers.py``); ``run_teardown`` sending no UNSUBSCRIBE, tearing
down a question the forwarder follows, the forwarder answering from a record
past its TTL, and the recursive resolver accepting a SUBSCRIBE from a
torn-down record (c); the forwarder handed the recursive's ``on_response``
and the reverse, and the forwarder filing a declined answer subscribed (d).
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.core.compatibility import MOQT_TIMEOUT, CompatibilityMode
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
from repro.experiments.topology import SmallTopology, SmallTopologyConfig
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


#: A record TTL short enough to outlive in a test, and the §4.4 policy that
#: picks a question looked up more than a second ago.
TTL, IDLE = 30, IdleTimeoutPolicy(idle_timeout=1.0)
NOTHING_HELD = {"zones": 1, "tracks": 0, "subscribers": 0, "watched_names": 0}


def _asker(node, answers: list) -> Callable[[], None]:
    if isinstance(node, MoqForwarder):
        return lambda: node.resolve(KEY, lambda message, version: answers.append(_addresses(message)))
    return lambda: node.resolve(KEY, lambda outcome: answers.append(_addresses(outcome.message)))


@pytest.mark.parametrize("role", ["forwarder", "moqt_recursive"])
def test_teardown_then_relookup_then_zone_change(role):
    topology = SmallTopology(SmallTopologyConfig(record_ttl=TTL))
    node = getattr(topology, role)
    answers = []
    lookup = _asker(node, answers)
    lookup()
    topology.run(5.0)
    # The forwarder's question is relayed: the recursive resolver's teardown
    # ends the upstream half once the forwarder's UNSUBSCRIBE has arrived.
    for resolver in (node, topology.moqt_recursive)[: 2 if role == "forwarder" else 1]:
        assert resolver.run_teardown(IDLE) == 1
        topology.run(1.0)
    assert topology.moqt_auth.state_summary() == NOTHING_HELD
    assert node.registry.get(KEY) is None and not node.record(KEY).subscribed
    assert node.state_summary()["subscriptions"] == (0 if role == "forwarder" else 2)

    pushes = node.statistics.pushes_received
    serial = topology.update_record("203.0.113.9")
    topology.run(5.0)
    assert node.statistics.pushes_received == pushes, "a zone change pushes nothing"
    lookup()  # inside the TTL: the aged record
    topology.run(5.0)
    assert answers == [["192.0.2.10"]] * 2
    topology.run(TTL)
    lookup()  # past it: subscribe again, and get the new answer
    topology.run(5.0)
    assert answers[-1] == ["203.0.113.9"]
    record = node.record(KEY)
    assert record.subscribed and record.version == serial
    assert topology.moqt_auth.state_summary()["subscribers"] == 1
    assert node.state_summary()["inflight_lookups"] == 0


def test_a_subscriber_to_a_torn_down_question_gets_the_next_push():
    # The recursive resolver's record is aged but inside its TTL; accepting the
    # forwarder's SUBSCRIBE from it, with nothing subscribed upstream, would
    # leave the forwarder's subscribed record stale at the next zone change.
    topology = SmallTopology()
    recursive = topology.moqt_recursive
    recursive.resolve(KEY, lambda outcome: None)
    topology.run(5.0)
    assert recursive.run_teardown(IDLE) == 1
    topology.run(1.0)
    topology.forwarder.resolve(KEY, lambda message, version: None)
    topology.run(5.0)
    assert topology.moqt_auth.state_summary()["subscribers"] == 1
    serial = topology.update_record("203.0.113.9")
    topology.run(5.0)
    record = topology.forwarder.record(KEY)
    assert _addresses(record.message) == ["203.0.113.9"] and record.version == serial


def test_a_teardown_at_the_recursive_resolver_spares_what_the_forwarder_follows():
    topology = SmallTopology()
    topology.forwarder.resolve(KEY, lambda message, version: None)
    topology.run(5.0)
    recursive = topology.moqt_recursive
    assert recursive.run_teardown(IDLE) == 0
    topology.run(1.0)
    assert recursive.record(KEY).subscribed and recursive.registry.get(KEY) is not None
    assert topology.moqt_auth.state_summary()["subscribers"] == 1
    serial = topology.update_record("203.0.113.9")
    topology.run(5.0)
    record = topology.forwarder.record(KEY)
    assert _addresses(record.message) == ["203.0.113.9"] and record.version == serial


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
    assert not forwarder.record(KEY).subscribed, "a one-shot answer: it ages by its TTL"
    assert forwarder.statistics.failures == 0
    assert forwarder.state_summary()["subscriptions"] == 0, "the subscription was declined"


def test_the_forwarder_does_not_serve_a_declined_answer_past_its_ttl():
    topology = SmallTopology(
        SmallTopologyConfig(
            record_ttl=TTL,
            moqt_on_auth=False,
            happy_eyeballs=True,
            compatibility_mode=CompatibilityMode.DECLINE_SUBSCRIPTION,
        )
    )
    answers = []
    lookup = _asker(topology.forwarder, answers)
    lookup()
    topology.run(5.0)
    topology.update_record("192.0.2.123")
    lookup()  # inside the TTL: the one-shot answer
    topology.run(10 * TTL)
    lookup()
    topology.run(5.0)
    assert answers == [["192.0.2.10"], ["192.0.2.10"], ["192.0.2.123"]]
    assert topology.moqt_recursive.statistics.subscriptions_declined == 2


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
