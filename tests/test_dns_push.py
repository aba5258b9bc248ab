"""Change-scoped push on the MoQT authoritative server.

A zone change re-answers only the tracks that watch the changed owner name
(``docs/dns-push.md``).  The property test drives random multi-zone servers
through random mutations, a late ``add_zone`` and subscriber churn and checks
that subscribers receive exactly what a full rescan — the algorithm the index
replaced, kept here as a test-local oracle — says they should; the rest pins
the cost (tracks evaluated per change), the state accounting and the
UNSUBSCRIBE / session-close clean-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.core.auth_server import MOQT_ALPN, MoqAuthoritativeServer
from repro.core.encapsulation import encapsulate_response
from repro.core.mapping import DnsQuestionKey, question_to_track
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import AAAARdata, ARdata, CNAMERdata, NSRdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import MOQT_PORT, RecordType
from repro.dns.zone import Zone
from repro.moqt.session import MoqtSession
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint

AUTH = "auth"
SETTLE = 0.2  # virtual seconds: far more than one round trip on the test link


def _name(text: str) -> Name:
    return Name.from_text(text)


def _key(text: str, qtype: RecordType = RecordType.A) -> DnsQuestionKey:
    return DnsQuestionKey(qname=_name(text), qtype=qtype)


class World:
    """One authoritative server and any number of directly attached clients."""

    def __init__(self, zones: list[Zone]) -> None:
        self.simulator = Simulator(seed=1)
        self.network = Network(self.simulator)
        self.network.add_host(AUTH)
        self.server = MoqAuthoritativeServer(self.network.host(AUTH), zones)
        self.clients: list[Client] = []

    def client(self) -> "Client":
        client = Client(self, len(self.clients))
        self.clients.append(client)
        return client

    def settle(self) -> None:
        self.simulator.run(until=self.simulator.now + SETTLE)


class Client:
    """A MoQT session straight to the server, logging every pushed object."""

    def __init__(self, world: World, index: int) -> None:
        self.index = index
        host = f"resolver{index}"
        world.network.add_host(host)
        world.network.connect(AUTH, host, LinkConfig(delay=0.005))
        connection = QuicEndpoint(world.network.host(host)).connect(
            Address(AUTH, MOQT_PORT), ConnectionConfig(alpn_protocols=(MOQT_ALPN,))
        )
        self.session = MoqtSession(connection, is_client=True)
        self.subscriptions: dict[DnsQuestionKey, object] = {}
        self.received: list[tuple[DnsQuestionKey, int, bytes]] = []

    def subscribe(self, key: DnsQuestionKey) -> None:
        self.subscriptions[key] = self.session.subscribe(
            question_to_track(key),
            on_object=lambda obj: self.received.append((key, obj.group_id, obj.payload)),
        )

    def unsubscribe(self, key: DnsQuestionKey) -> None:
        self.session.unsubscribe(self.subscriptions.pop(key))

    def take(self) -> list[tuple[DnsQuestionKey, int, bytes]]:
        received, self.received = self.received, []
        return received


def check_index(server: MoqAuthoritativeServer) -> None:
    """The watcher index files every live track under exactly its watched names."""
    filed: dict[int, list[Name]] = {}
    for name, bucket in server._watchers.items():
        assert bucket, f"empty bucket left behind for {name}"
        for state in bucket:
            filed.setdefault(id(state), []).append(name)
    for state in server._tracks.values():
        assert state.subscribers
        assert state.watched[0] == state.key.qname
        assert sorted(filed.pop(id(state))) == sorted(state.watched)
    assert not filed, "a dropped track is still filed in the watcher index"
    summary = server.state_summary()
    assert summary["tracks"] == len(server._tracks)
    assert summary["watched_names"] == len(server._watchers)
    subscriptions = sum(len(s.publisher_subscriptions()) for s in server.sessions())
    assert summary["subscribers"] == server.subscriber_count() == subscriptions


# ------------------------------------------------------------- rescan oracle
def fingerprint(message: Message) -> tuple[str, ...]:
    lines = [r.to_text() for r in message.records() if r.rdtype != RecordType.SOA]
    return tuple(sorted(lines + [f"rcode={int(message.rcode)}"]))


@dataclass
class OracleTrack:
    fingerprint: tuple[str, ...]
    clients: list[int] = field(default_factory=list)


class RescanOracle:
    """The push algorithm the watcher index replaced: after every event that
    can change an answer, re-answer *every* subscribed track (in creation
    order) and push the ones whose fingerprint moved."""

    def __init__(self, server: MoqAuthoritativeServer) -> None:
        self.server = server
        self.tracks: dict[DnsQuestionKey, OracleTrack] = {}

    def subscribe(self, key: DnsQuestionKey, client: int) -> None:
        answer = self.server.answer_question(key)
        if answer is None:
            return  # the server rejects the SUBSCRIBE
        track = self.tracks.get(key)
        if track is None:
            track = self.tracks[key] = OracleTrack(fingerprint(answer[0]))
        track.clients.append(client)

    def unsubscribe(self, key: DnsQuestionKey, client: int) -> None:
        track = self.tracks.get(key)
        if track is not None and client in track.clients:
            track.clients.remove(client)
            if not track.clients:
                del self.tracks[key]

    def drop_client(self, client: int) -> None:
        for key in [key for key, track in self.tracks.items() if client in track.clients]:
            self.unsubscribe(key, client)

    def push(self, key: DnsQuestionKey, expected: dict[int, list]) -> None:
        response, zone = self.server.answer_question(key)
        track = self.tracks[key]
        track.fingerprint = fingerprint(response)
        payload = encapsulate_response(response, zone.serial).payload
        for client in track.clients:
            expected.setdefault(client, []).append((key, zone.serial, payload))

    def rescan(self) -> dict[int, list]:
        """Expected deliveries per client, in publish order."""
        expected: dict[int, list] = {}
        for key, track in self.tracks.items():
            response, _ = self.server.answer_question(key)
            if fingerprint(response) != track.fingerprint:
                self.push(key, expected)
        return expected


# ---------------------------------------------------------------- strategies
PARENT = "example."
CHILD = "sub.example."
PARENT_OWNERS = [
    "example.", "a.example.", "*.example.", "w.example.", "x.w.example.", "*.w.example.",
    "d.example.", "ns.d.example.", "h.d.example.", "c1.example.", "c2.example.",
    "sub.example.", "a.sub.example.", "ns.sub.example.",
]
CHILD_OWNERS = [
    "sub.example.", "a.sub.example.", "*.sub.example.", "ns.sub.example.", "c.sub.example.",
]
# CNAME / NS targets come from a small pool so that chains, glue and dangling
# targets (in zone, in the other zone, out of every zone) actually form.
TARGETS = [
    "a.example.", "c1.example.", "c2.example.", "ns.d.example.", "x.w.example.",
    "a.sub.example.", "ns.sub.example.", "ext.other.", "nx.example.",
]
QNAMES = sorted(set(PARENT_OWNERS + CHILD_OWNERS + TARGETS)) + [
    "deep.x.w.example.", "q.d.example.", "zz.sub.example.", "y.a.example.",
]
QTYPES = [RecordType.A, RecordType.AAAA, RecordType.CNAME, RecordType.NS]

# Every example starts from this scaffold — a CNAME chain, a wildcard, a
# delegation with glue, a child zone whose alias points back into the parent —
# with client 0 subscribed to a question for each mechanism, so the random
# mutations land on answers that depend on more than their own owner name.
SCAFFOLD = {
    PARENT: [
        ("c1.example.", "CNAME", "c2.example."),
        ("c2.example.", "CNAME", "a.example."),
        ("a.example.", "A", "192.0.2.1"),
        ("*.w.example.", "A", "192.0.2.2"),
        ("d.example.", "NS", "ns.d.example."),
        ("ns.d.example.", "A", "192.0.2.53"),
    ],
    CHILD: [
        ("a.sub.example.", "A", "198.51.100.1"),
        ("c.sub.example.", "CNAME", "a.sub.example."),
        ("*.sub.example.", "A", "198.51.100.2"),
    ],
}
SCAFFOLD_QNAMES = [
    "c1.example.", "c2.example.", "a.example.", "x.w.example.", "q.d.example.",
    "a.sub.example.", "c.sub.example.", "zz.sub.example.", "nx.example.",
]

rdatas = st.one_of(
    st.sampled_from(["192.0.2.1", "192.0.2.2", "198.51.100.7"]).map(
        lambda text: (RecordType.A, ARdata(text))
    ),
    st.sampled_from(["2001:db8::1", "2001:db8::2"]).map(
        lambda text: (RecordType.AAAA, AAAARdata(text))
    ),
    st.sampled_from(TARGETS).map(lambda text: (RecordType.CNAME, CNAMERdata(_name(text)))),
    st.sampled_from(TARGETS).map(lambda text: (RecordType.NS, NSRdata(_name(text)))),
)
owners = st.one_of(
    st.tuples(st.just(PARENT), st.sampled_from(PARENT_OWNERS)),
    st.tuples(st.just(CHILD), st.sampled_from(CHILD_OWNERS)),
)
keys = st.builds(_key, st.sampled_from(QNAMES), st.sampled_from(QTYPES))
mutations = st.one_of(
    st.tuples(st.just("add"), owners, rdatas),
    st.tuples(st.just("replace"), owners, st.lists(rdatas, max_size=2)),
    st.tuples(st.just("clear"), owners, st.sampled_from(QTYPES)),
)
operations = st.one_of(
    mutations,
    mutations,
    st.tuples(st.just("subscribe"), st.integers(0, 1), keys),
    st.tuples(st.just("unsubscribe"), st.integers(0, 1), st.integers(0, 50)),
    st.tuples(st.just("add_child")),
    st.tuples(st.just("close_client"), st.integers(0, 1)),
)


def mutate(zones: dict[str, Zone], operation: tuple) -> None:
    kind, (zone_name, owner_text), argument = operation
    zone, owner = zones[zone_name], _name(owner_text)
    if kind == "add":
        rdtype, rdata = argument
        zone.add_record(ResourceRecord(owner, rdtype, rdata, 300), bump=True)
    elif kind == "replace":
        # One RRset per call: every drawn record of the first record's type.
        rdtype = argument[0][0] if argument else RecordType.A
        records = [
            ResourceRecord(owner, rdtype, rdata, 300) for drawn, rdata in argument if drawn == rdtype
        ]
        zone.replace_rrset(RRset(owner, rdtype, records))
    else:
        zone.replace_rrset(RRset(owner, argument))


@settings(max_examples=200, deadline=None)
@given(
    child_from_start=st.booleans(),
    initial=st.lists(mutations, max_size=10),
    presubscribed=st.lists(st.tuples(st.integers(0, 1), keys), min_size=4, max_size=30),
    script=st.lists(operations, min_size=10, max_size=40),
)
def test_indexed_push_equals_a_full_rescan(child_from_start, initial, presubscribed, script):
    zones = {PARENT: Zone(PARENT), CHILD: Zone(CHILD)}
    for origin, records in SCAFFOLD.items():
        for owner, rdtype, rdata in records:
            zones[origin].add(owner, rdtype, rdata)
    for operation in initial:
        mutate(zones, operation)
    world = World([zones[PARENT], zones[CHILD]] if child_from_start else [zones[PARENT]])
    server = world.server
    oracle = RescanOracle(server)
    clients = [world.client(), world.client()]
    closed: set[int] = set()
    child_served = child_from_start

    def subscribe(index: int, key: DnsQuestionKey) -> None:
        if index not in closed and key not in clients[index].subscriptions:
            clients[index].subscribe(key)
            world.settle()  # the server creates tracks in SUBSCRIBE arrival order
            oracle.subscribe(key, index)

    for index, key in [(0, _key(qname)) for qname in SCAFFOLD_QNAMES] + presubscribed:
        subscribe(index, key)
    assert all(client.take() == [] for client in clients)

    for operation in script:
        kind = operation[0]
        expected: dict[int, list] = {}
        if kind in ("add", "replace", "delete"):
            mutate(zones, operation)
            expected = oracle.rescan()
        elif kind == "subscribe":
            subscribe(operation[1], operation[2])
        elif kind == "unsubscribe":
            client = clients[operation[1]]
            if client.index not in closed and client.subscriptions:
                key = list(client.subscriptions)[operation[2] % len(client.subscriptions)]
                client.unsubscribe(key)
                oracle.unsubscribe(key, client.index)
        elif kind == "add_child":
            if not child_served:
                child_served = True
                server.add_zone(zones[CHILD])
                expected = oracle.rescan()
        elif kind == "close_client":
            index = operation[1]
            if index not in closed:
                closed.add(index)
                clients[index].session.close()
                oracle.drop_client(index)
        world.settle()
        for client in clients:
            assert client.take() == expected.get(client.index, []), operation
        check_index(server)
        assert set(server._tracks) == set(oracle.tracks)


# ------------------------------------------------------------------- scaling
def _flat_server(count: int) -> tuple[World, Client, list[Zone]]:
    """``count`` single-name zones on one server, one subscribed track each."""
    zones = []
    for index in range(count):
        zone = Zone(f"site{index:04d}.com.")
        zone.add(zone.origin, "A", "192.0.2.1", bump=False)
        zones.append(zone)
    world = World(zones)
    client = world.client()
    for zone in zones:
        client.subscribe(DnsQuestionKey(qname=zone.origin, qtype=RecordType.A))
    world.settle()
    assert world.server.subscriber_count() == count
    return world, client, zones


def _replace_a(zone: Zone, address: str) -> None:
    record = ResourceRecord(zone.origin, RecordType.A, ARdata(address), 300)
    zone.replace_rrset(RRset(zone.origin, RecordType.A, [record]))


def test_one_change_evaluates_one_track_however_many_zones_are_served():
    world, client, zones = _flat_server(100)
    statistics = world.server.statistics
    _replace_a(zones[42], "203.0.113.1")
    world.settle()
    assert statistics.tracks_evaluated == 1
    assert statistics.updates_published == 1
    assert [key.qname for key, _, _ in client.take()] == [zones[42].origin]

    for index in range(100, 500):
        zone = Zone(f"site{index:04d}.com.")
        zone.add(zone.origin, "A", "192.0.2.1", bump=False)
        world.server.add_zone(zone)
        client.subscribe(DnsQuestionKey(qname=zone.origin, qtype=RecordType.A))
    world.settle()
    assert world.server.state_summary() == {
        "zones": 500, "tracks": 500, "subscribers": 500, "watched_names": 500,
    }
    before = statistics.tracks_evaluated
    _replace_a(zones[42], "203.0.113.2")
    world.settle()
    assert statistics.tracks_evaluated - before == 1
    assert len(client.take()) == 1


def test_a_change_evaluates_only_the_tracks_that_can_read_the_name():
    zone = Zone("example.")
    zone.add("a.example.", "A", "192.0.2.1")
    zone.add("alias.example.", "CNAME", "a.example.")
    zone.add("*.w.example.", "A", "192.0.2.9")
    zone.add("d.example.", "NS", "ns.d.example.")
    world = World([zone])
    client = world.client()
    for text in ("a.example.", "alias.example.", "x.w.example.", "h.d.example.", "b.example."):
        client.subscribe(_key(text))
    world.settle()
    statistics = world.server.statistics

    def evaluated_by(change) -> list[str]:
        before = statistics.tracks_evaluated
        change()
        world.settle()
        pushed = [key.qname.to_text() for key, _, _ in client.take()]
        assert len(pushed) <= statistics.tracks_evaluated - before
        return [statistics.tracks_evaluated - before, *pushed]

    # The CNAME target is read by the alias track as well as its own.
    assert evaluated_by(lambda: zone.add("a.example.", "A", "192.0.2.2")) == [
        2, "a.example.", "alias.example.",
    ]
    # A wildcard is read by the tracks below its parent, found via the parent.
    assert evaluated_by(lambda: zone.add("*.w.example.", "A", "192.0.2.10")) == [1, "x.w.example."]
    # Glue for a delegation's NS target.
    assert evaluated_by(lambda: zone.add("ns.d.example.", "A", "192.0.2.53")) == [1, "h.d.example."]
    # A name nobody can read; then an apex wildcard every in-zone track can.
    assert evaluated_by(lambda: zone.add("other.example.", "A", "192.0.2.3")) == [0]
    assert evaluated_by(lambda: zone.add("*.example.", "A", "192.0.2.4")) == [5, "b.example."]


# --------------------------------------------------------------- regressions
def test_unsubscribed_track_is_dropped_and_never_evaluated():
    zone = Zone("example.")
    zone.add("www.example.", "A", "192.0.2.1")
    world = World([zone])
    client = world.client()
    client.subscribe(_key("www.example."))
    world.settle()
    assert world.server.state_summary() == {
        "zones": 1, "tracks": 1, "subscribers": 1, "watched_names": 2,
    }
    client.unsubscribe(_key("www.example."))
    world.settle()
    zone.add("www.example.", "A", "192.0.2.2")
    world.settle()
    statistics = world.server.statistics
    assert (statistics.tracks_evaluated, statistics.updates_published) == (0, 0)
    assert client.take() == []
    assert world.server._tracks == {} and world.server._watchers == {}
    assert world.server.state_summary() == {
        "zones": 1, "tracks": 0, "subscribers": 0, "watched_names": 0,
    }


def test_closing_a_session_drops_its_subscribers_but_not_shared_tracks():
    zone = Zone("example.")
    zone.add("www.example.", "A", "192.0.2.1")
    world = World([zone])
    leaving, staying = world.client(), world.client()
    leaving.subscribe(_key("www.example."))
    leaving.subscribe(_key("only.example."))
    staying.subscribe(_key("www.example."))
    world.settle()
    assert world.server.subscriber_count() == 3
    leaving.session.close()
    world.settle()
    assert world.server.state_summary()["tracks"] == 1
    assert world.server.subscriber_count() == 1
    check_index(world.server)
    zone.add("www.example.", "A", "192.0.2.2")
    world.settle()
    assert len(staying.take()) == 1 and leaving.take() == []
    assert world.server.statistics.updates_published == 1


def test_resubscribing_after_the_track_was_dropped_starts_from_the_current_answer():
    zone = Zone("example.")
    zone.add("www.example.", "A", "192.0.2.1")
    world = World([zone])
    client = world.client()
    client.subscribe(_key("www.example."))
    world.settle()
    client.unsubscribe(_key("www.example."))
    world.settle()
    zone.add("www.example.", "A", "192.0.2.2")  # nobody is subscribed
    client.subscribe(_key("www.example."))
    world.settle()
    zone.add("other.example.", "A", "192.0.2.3")
    world.settle()
    assert client.take() == []  # a stale fingerprint would push here
    zone.add("www.example.", "A", "192.0.2.4")
    world.settle()
    assert len(client.take()) == 1


def test_add_zone_rehomes_the_tracks_below_the_new_origin():
    parent = Zone("example.")
    parent.add("a.sub.example.", "A", "192.0.2.1")
    parent.add("a.example.", "A", "192.0.2.2")
    world = World([parent])
    client = world.client()
    moved, kept = _key("a.sub.example."), _key("a.example.")
    client.subscribe(moved)
    client.subscribe(kept)
    world.settle()

    child = Zone("sub.example.")
    child.add("a.sub.example.", "A", "198.51.100.1")
    world.server.add_zone(child)
    world.settle()
    assert [(key, group) for key, group, _ in client.take()] == [(moved, child.serial)]
    assert world.server._tracks[moved].watched == (_name("a.sub.example."), _name("sub.example."))
    check_index(world.server)

    before = world.server.statistics.tracks_evaluated
    parent.add("a.sub.example.", "A", "192.0.2.3")  # occluded by the child zone now
    world.settle()
    assert client.take() == []
    child.add("a.sub.example.", "A", "198.51.100.2")
    world.settle()
    assert len(client.take()) == 1
    assert world.server.statistics.tracks_evaluated - before == 2


# ------------------------------------------------------------------ zone_for
def test_zone_for_walks_suffixes_to_the_most_specific_zone():
    root, parent, child = Zone("."), Zone("example.com."), Zone("sub.example.com.")
    world = World([parent, child])
    server = world.server
    assert server.zone_for(_name("x.sub.example.com.")) is child
    assert server.zone_for(_name("sub.example.com.")) is child
    assert server.zone_for(_name("x.example.com.")) is parent
    assert server.zone_for(_name("deep.x.example.com.")) is parent
    assert server.zone_for(_name("example.org.")) is None
    assert server.zone_for(_name("com.")) is None
    assert server.zone_for(Name.root()) is None
    server.add_zone(root)
    assert server.zone_for(_name("example.org.")) is root
    assert server.zone_for(Name.root()) is root
    assert server.zone_for(_name("x.sub.example.com.")) is child


# ----------------------------------------------------- sender-side QUIC state
def _only_control_streams(network: Network) -> list:
    """Every QUIC connection of ``network``, each checked to hold exactly one
    ``QuicStream`` (its control stream: a data stream arrives whole and holds
    none) and never to have been closed (a data stream that is not whole
    closes its connection with PROTOCOL_VIOLATION)."""
    connections = [
        connection
        for host in network.hosts()
        for handler in host.handlers()
        for connection in getattr(handler, "connections", list)()
    ]
    assert [connection.stream_states for connection in connections] == [1] * len(connections)
    assert max(connection.stream_reorder_backlog for connection in connections) == 0
    assert [connection for connection in connections if connection.closed] == []
    return connections


def test_pushing_records_adds_no_stream_state():
    """500 zone changes pushed auth → recursive → forwarder leave every QUIC
    connection with its control stream and nothing else."""
    from repro.experiments.topology import SmallTopology

    topology = SmallTopology()
    key = DnsQuestionKey(qname=topology.domain_name, qtype=RecordType.A)
    topology.forwarder.resolve(key, lambda message, version: None)
    topology.run(2.0)
    pushed = []
    topology.forwarder.on_record_updated.append(lambda k, record: pushed.append(k))
    for change in range(500):
        topology.update_record(f"198.51.{change // 250}.{change % 250 + 1}")
        topology.run(0.2)
    assert len(pushed) == 500
    connections = _only_control_streams(topology.network)
    assert len(connections) >= 8  # forwarder→recursive→{root, tld, auth}, both ends


def test_a_lossy_newreno_tree_adds_no_stream_state():
    """E15's lossy-edge sample (5 % access loss, NewReno on every relay's
    downstream side): retransmitted data streams still arrive whole, so every
    connection holds its control stream and nothing else.  (The window never
    holds a packet back here; ``tests/test_megafan.py`` covers that path.)"""
    from repro.experiments.constrained_tiers import (
        ACCESS_LOSS,
        BANDWIDTH_SWEEP,
        SEED,
        SUBSCRIBERS,
        UPDATES,
        _constrained_spec,
        _lossy_scenario,
    )
    from repro.relaynet.scenario import build_scenario

    bandwidth = BANDWIDTH_SWEEP[len(BANDWIDTH_SWEEP) // 2]
    run = build_scenario(_lossy_scenario(_constrained_spec(bandwidth, ACCESS_LOSS), SEED))
    run.topology.attach_subscribers(SUBSCRIBERS)
    run.record_deliveries()
    run.advance(3.0)
    run.push(UPDATES)
    run.advance(6.0)
    _, _, delivered = run.delivery_score()
    assert delivered == SUBSCRIBERS * UPDATES  # every update repaired, as E15 requires
    connections = _only_control_streams(run.network)
    assert sum(connection.statistics.retransmissions for connection in connections) > 0
    assert sum(connection.congestion.congestion_events for connection in connections) > 0
