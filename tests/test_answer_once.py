"""A question is answered once per zone version (``docs/dns-push.md``).

The authoritative server keeps each subscribed track's encapsulated answer —
computed at the track's first SUBSCRIBE, replaced by every push — and serves
a FETCH from it while its group ID is the zone's serial; a SUBSCRIBE to an
existing track reads the serial from the track's zone.  Pinned here:

* exactness: a property test drives a two-zone server through record
  changes with and without a serial bump, at watched and at unwatched names
  (a CNAME re-point, a wildcard, a delegation with glue, re-ordered
  RRsets, a cleared RRset), a late ``add_zone`` of a more specific zone,
  SUBSCRIBE, joining FETCH, standalone FETCH and UNSUBSCRIBE from two
  sessions.  Every FETCH object's ``(group_id, payload)`` and every
  SUBSCRIBE_OK's largest location must equal :func:`reference` — a fresh
  lookup on the governing zone, encapsulated, reading no server state — at
  that instant;
* the request path on ``build_workload_topology`` (forwarder -> recursive ->
  TLD and authoritative servers): a second resolver subscribing the same
  question at the authoritative server costs no ``Zone.lookup`` and no
  encode there (``-s`` prints the counts).  What one cold lookup costs —
  2 ``Zone.lookup``, 2 ``Message.to_wire``, 2 ``Message.from_wire`` and
  1 ``track_to_question`` (4 / 3 / 2 / 6 before answers were kept) — is the
  exact-cost ledger's ``cold_lookup.*`` rows (``tests/exact/``).

Source mutations tried when this file was written, each failing the
property test: the serial check in ``handle_fetch`` dropped; ``_reanswer``
keeping ``current`` when it publishes nothing; ``_reanswer`` (and so
``add_zone``) not refreshing ``state.zone``.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.encapsulation import encapsulate_response
from repro.core.mapping import DnsQuestionKey, question_to_track
from repro.core.recursive import MoqRecursiveResolver
from repro.dns.message import Flags, Header, Message
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import MOQT_PORT, RecordType
from repro.dns.zone import Zone, find_zone
from repro.moqt.objectmodel import Location
from repro.netsim.link import LinkConfig
from repro.netsim.packet import Address
from test_dns_decode_memo import _chain, _subscribe, wrap_track_to_question
from test_dns_push import (
    CHILD, PARENT, SCAFFOLD, SCAFFOLD_QNAMES, World, _key, _name, owners, rdatas,
)

def reference(zones: list[Zone], key: DnsQuestionKey) -> tuple[int, bytes] | None:
    """``(group_id, payload)`` of the answer to ``key`` now, from scratch:
    the governing zone's lookup as a response, encapsulated under its serial.
    ``None``: no served zone covers the name."""
    zone = find_zone({zone.origin: zone for zone in zones}, key.qname)
    if zone is None:
        return None
    result = zone.lookup(key.qname, key.qtype)
    flags = Flags(qr=True, aa=not result.is_referral, rd=key.recursion_desired,
                  cd=key.checking_disabled)
    response = Message(
        header=Header(message_id=0, flags=flags, opcode=key.opcode, rcode=result.rcode),
        questions=(key.to_question(),),
        answers=result.answers,
        authorities=result.authorities,
        additionals=result.additionals,
    )
    obj = encapsulate_response(response, zone.serial)
    return obj.group_id, obj.payload


# ----------------------------------------------------------------- exactness
#: The questions the sessions ask: one per mechanism of the scaffold (a CNAME
#: chain, a wildcard, a delegation with glue, the child zone, NXDOMAIN) and
#: one no served zone covers, as A and as NS questions.
QUESTIONS = [
    _key(qname, qtype) for qname in [*SCAFFOLD_QNAMES, "ext.other."]
    for qtype in (RecordType.A, RecordType.NS)
]
#: The two-record RRsets a re-order lands on: the fingerprint stays, the bytes move.
TWO_RECORD_SETS = [(PARENT, "a.example."), (CHILD, "a.sub.example.")]

questions = st.sampled_from(QUESTIONS)
changes = st.tuples(
    st.sampled_from(["add", "replace", "clear"]), owners, rdatas, st.booleans()
)
reorders = st.tuples(
    st.just("reorder"), st.sampled_from(TWO_RECORD_SETS), st.just((RecordType.A, None)),
    st.booleans(),
)
operations = st.one_of(
    changes,
    changes,
    reorders,
    st.tuples(st.just("subscribe"), st.integers(0, 1), questions),
    st.tuples(st.just("join"), st.integers(0, 1), st.integers(0, 50)),
    st.tuples(st.just("fetch"), st.integers(0, 1), questions),
    st.tuples(st.just("unsubscribe"), st.integers(0, 1), st.integers(0, 50)),
    st.tuples(st.just("add_child")),
)


def change(zones: dict[str, Zone], operation: tuple) -> None:
    kind, (zone_name, owner_text), (rdtype, rdata), bump = operation
    zone, owner = zones[zone_name], _name(owner_text)
    if kind == "add":
        zone.add_record(ResourceRecord(owner, rdtype, rdata, 300), bump=bump)
    elif kind == "replace":
        record = ResourceRecord(owner, rdtype, rdata, 300)
        zone.replace_rrset(RRset(owner, rdtype, [record]), bump=bump)
    elif kind == "clear":
        zone.replace_rrset(RRset(owner, rdtype), bump=bump)
    else:
        rrset = zone.get_rrset(owner, rdtype)
        if rrset is not None and len(rrset) > 1:
            zone.replace_rrset(RRset(owner, rdtype, reversed(list(rrset))), bump=bump)


class Session:
    """One client session's requests, each checked against :func:`reference`
    taken when it was sent (nothing changes the zones while it is in flight)."""

    def __init__(self, world: World) -> None:
        self.client = world.client()
        self.checks: list = []

    def subscribe(self, served: list[Zone], key: DnsQuestionKey) -> None:
        """SUBSCRIBE and its joining FETCH, as a resolver sends them."""
        subscriptions = self.client.subscriptions
        if key not in subscriptions:
            self.client.subscribe(key)
            self.checks.append(("subscribe", subscriptions[key], reference(served, key)))
            self.join(served, key)

    def join(self, served: list[Zone], key: DnsQuestionKey) -> None:
        fetch = self.client.session.joining_fetch(self.client.subscriptions[key], on_complete=lambda fetch: None)
        self.checks.append(("fetch", fetch, reference(served, key)))

    def fetch(self, served: list[Zone], key: DnsQuestionKey) -> None:
        fetch = self.client.session.fetch(
            question_to_track(key), Location(0, 0), Location(0, 0), on_complete=lambda fetch: None
        )
        self.checks.append(("fetch", fetch, reference(served, key)))

    def active(self, index: int) -> DnsQuestionKey | None:
        """The ``index``-th (modulo) of the accepted subscriptions, if any."""
        keys = [key for key, sub in self.client.subscriptions.items() if sub.state == "active"]
        return keys[index % len(keys)] if keys else None

    def verify(self, operation: tuple) -> None:
        for kind, request, answer in self.checks:
            if answer is None:
                assert request.state == "error", operation
            elif kind == "subscribe":
                assert request.largest == Location(answer[0], 0), operation
            else:
                assert request.succeeded, operation
                fetched = [(obj.group_id, obj.payload) for obj in request.objects]
                assert fetched == [answer], operation
        self.checks.clear()
        self.client.take()


@settings(max_examples=150, deadline=None)
@given(script=st.lists(operations, min_size=10, max_size=40))
def test_every_fetch_and_subscribe_ok_equals_a_fresh_answer(script):
    zones = {PARENT: Zone(PARENT), CHILD: Zone(CHILD)}
    for origin, records in SCAFFOLD.items():
        for owner, rdtype, rdata in records:
            zones[origin].add(owner, rdtype, rdata)
    zones[PARENT].add("a.example.", "A", "192.0.2.3")
    zones[CHILD].add("a.sub.example.", "A", "198.51.100.3")
    served = [zones[PARENT]]
    world = World(list(served))
    server = world.server
    sessions = [Session(world), Session(world)]
    for key in QUESTIONS[::2]:  # session 0 asks every A question first
        sessions[0].subscribe(served, key)
        world.settle()  # the server creates tracks in SUBSCRIBE arrival order
    sessions[0].verify(("presubscribe",))

    for operation in script:
        kind = operation[0]
        if kind in ("add", "replace", "delete", "reorder"):
            change(zones, operation)
        elif kind == "subscribe":
            sessions[operation[1]].subscribe(served, operation[2])
        elif kind == "fetch":
            sessions[operation[1]].fetch(served, operation[2])
        elif kind in ("join", "unsubscribe"):
            session = sessions[operation[1]]
            key = session.active(operation[2])
            if key is not None and kind == "join":
                session.join(served, key)
            elif key is not None:
                session.client.unsubscribe(key)
        elif kind == "add_child" and len(served) == 1:
            served.append(zones[CHILD])
            server.add_zone(zones[CHILD])
        world.settle()
        for session in sessions:
            session.verify(operation)


# ------------------------------------------------------------ request path
def _counting(monkeypatch) -> Counter:
    """Count the four pieces of DNS work, wherever the code calls them from."""
    counts: Counter = Counter()

    def wrap(function, label):
        def counted(*args, **kwargs):
            counts[label] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(Zone, "lookup", wrap(Zone.lookup, "Zone.lookup"))
    monkeypatch.setattr(Message, "to_wire", wrap(Message.to_wire, "Message.to_wire"))
    monkeypatch.setattr(
        Message, "from_wire",
        classmethod(wrap(Message.from_wire.__func__, "Message.from_wire")),
    )
    wrap_track_to_question(monkeypatch, lambda parse: wrap(parse, "track_to_question"))
    return counts


def test_a_second_resolver_subscribing_at_the_authoritative_server_costs_no_lookup(monkeypatch):
    topology, names = _chain()
    key = _subscribe(topology, names[0])
    auth_host = topology.zones.assignments[key.qname].auth_host
    topology.network.add_host("10.9.9.9")
    topology.network.connect("10.9.9.9", auth_host, LinkConfig(delay=0.020))
    second = MoqRecursiveResolver(
        topology.network.host("10.9.9.9"), root_servers=[Address(auth_host, MOQT_PORT)]
    )
    counts = _counting(monkeypatch)
    answers = []
    second.moqt_subscribe_fetch(
        Address(auth_host, MOQT_PORT), key,
        lambda message, version: answers.append((message, version)),
    )
    topology.simulator.run(until=topology.simulator.now + 5.0)
    print(f"\nsecond subscriber at the authoritative server: {dict(counts)}")
    ((message, version),) = answers
    assert message is topology.recursive.record(key).message  # equal bytes, one decode
    assert version == topology.zones.assignments[key.qname].zone.serial
    assert counts["Zone.lookup"] == counts["Message.to_wire"] == 0, dict(counts)
    assert topology.moqt_servers[auth_host].subscriber_count() == 2
