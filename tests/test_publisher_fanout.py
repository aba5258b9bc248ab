"""One lifecycle property for every publisher that fans objects out.

The authoritative server, the recursive resolver, a relay and the origin all
file the session's ``PublisherSubscription`` records in per-track lists, hear
about a departing subscriber through ``handle_subscription_ended`` and push
through ``publish_to`` (``docs/publishers.md``).  Each is wrapped in a small
rig with the same surface, driven through ``Simulator.run`` by random
interleavings of subscribe / unsubscribe / close / silent abandon / mute /
publish, and compared with a list oracle kept by the test.

The deterministic tests below the property pin, one scenario per guard, what
the source mutations listed in the module's last section must break.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.auth_server import MoqAuthoritativeServer
from repro.core.mapping import DnsQuestionKey, question_to_track
from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import MOQT_PORT, RecordType
from repro.dns.zone import Zone
from repro.experiments.topology import RECURSIVE_HOST, SmallTopology, SmallTopologyConfig
from repro.moqt.messages import ClientSetup, Fetch, FetchType, Subscribe
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, OriginPublisher, build_origin_endpoint
from repro.moqt.relay import MoqtRelay
from repro.moqt.session import (
    MOQT_ALPN,
    FetchResult,
    MoqtSession,
    PublisherSubscription,
    SubscribeResult,
    publish_to,
)
from repro.moqt.track import FullTrackName
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

CLIENTS = "clients"
SETTLE = 2.0  # virtual seconds: a cold three-hop resolution with handshakes fits
#: Clients ping every 10 s; a publisher's accepted connection idles out after
#: the default 30 s, so only an abandoned client is ever timed out.
CLIENT_CONFIG = ConnectionConfig(keepalive_interval=10.0)
IDLE_EXPIRY = 45.0


def _a_rrset(name: Name, address: str) -> RRset:
    return RRset(name, RecordType.A, [ResourceRecord(name, RecordType.A, ARdata(address), 300)])


# ------------------------------------------------------------------- the rigs
class Rig:
    """A publisher under test plus the client side of the simulation.

    Subclasses provide ``address`` (where clients connect), ``tracks`` (two
    full track names), ``publish(track) -> group``, ``records(track)`` (the
    publisher's per-track list), ``sessions()`` (the accepted server-side
    sessions), ``counters()`` and ``assert_quiesced()``.
    """

    #: Whether a publish reaches only the subscribers of its own track.  The
    #: origin serves one stream of objects to whoever subscribed to anything.
    routes_by_track = True

    simulator: Simulator
    network: Network
    address: Address
    tracks: list[FullTrackName]

    def settle(self, duration: float = SETTLE) -> None:
        self.simulator.run(until=self.simulator.now + duration)

    def connect(self) -> tuple[QuicEndpoint, MoqtSession]:
        endpoint = QuicEndpoint(self.network.host(CLIENTS))
        session = MoqtSession(endpoint.connect(self.address, CLIENT_CONFIG), is_client=True)
        return endpoint, session

    def record_of(self, session: MoqtSession, track: int) -> PublisherSubscription:
        """The publisher's record of ``session``'s subscription to ``track``."""
        connection_id = session.connection.connection_id
        (record,) = [
            record
            for record in self.records(track)
            if record.session.connection.connection_id == connection_id
        ]
        return record


class AuthRig(Rig):
    def __init__(self) -> None:
        self.simulator = Simulator(seed=3)
        self.network = Network(self.simulator)
        self.network.add_host("auth")
        self.network.add_host(CLIENTS)
        self.network.connect("auth", CLIENTS, LinkConfig(delay=0.005))
        self.zone = Zone("example.com.")
        self.names = [Name.from_text(f"t{i}.example.com.") for i in range(2)]
        for name in self.names:
            self.zone.replace_rrset(_a_rrset(name, "192.0.2.1"), bump=False)
        self.server = MoqAuthoritativeServer(self.network.host("auth"), [self.zone])
        self.address = self.server.address
        self.keys = [DnsQuestionKey(qname=name, qtype=RecordType.A) for name in self.names]
        self.tracks = [question_to_track(key) for key in self.keys]
        self._changes = 1

    def publish(self, track: int) -> int:
        self._changes += 1
        self.zone.replace_rrset(_a_rrset(self.names[track], f"192.0.2.{self._changes}"))
        return self.zone.serial

    def records(self, track: int) -> list[PublisherSubscription]:
        state = self.server._tracks.get(self.keys[track])
        return state.subscribers if state is not None else []

    def sessions(self) -> list[MoqtSession]:
        return self.server.sessions()

    def counters(self) -> dict[str, int]:
        return {"published": self.server.statistics.updates_published}

    def assert_quiesced(self) -> None:
        assert self.server._tracks == {}
        assert self.server._watchers == {}
        summary = self.server.state_summary()
        assert summary["subscribers"] == summary["tracks"] == summary["watched_names"] == 0
        assert all(s.publisher_subscriptions() == [] for s in self.server.sessions())


class RecursiveRig(Rig):
    def __init__(self, **config) -> None:
        self.topology = SmallTopology(SmallTopologyConfig(**config))
        self.simulator = self.topology.simulator
        self.network = self.topology.network
        self.network.add_host(CLIENTS)
        self.network.connect(CLIENTS, RECURSIVE_HOST, LinkConfig(delay=0.005))
        self.resolver = self.topology.moqt_recursive
        self.address = Address(RECURSIVE_HOST, MOQT_PORT)
        zone = self.topology.auth_zone
        self.names = [self.topology.domain_name, Name.from_text("api.example.com.")]
        zone.replace_rrset(_a_rrset(self.names[1], "192.0.2.1"), bump=False)
        self.keys = [DnsQuestionKey(qname=name, qtype=RecordType.A) for name in self.names]
        self.tracks = [question_to_track(key) for key in self.keys]
        self._changes = 1

    def publish(self, track: int) -> int:
        self._changes += 1
        zone = self.topology.auth_zone
        zone.replace_rrset(_a_rrset(self.names[track], f"203.0.113.{self._changes}"))
        return zone.serial

    def records(self, track: int) -> list[PublisherSubscription]:
        return self.resolver._downstream.get(self.keys[track], [])

    def sessions(self) -> list[MoqtSession]:
        return self.resolver.downstream_sessions()

    def counters(self) -> dict[str, int]:
        return {"published": self.resolver.statistics.pushes_forwarded}

    def assert_quiesced(self) -> None:
        assert self.resolver._downstream == {}
        assert self.resolver.state_summary()["downstream_subscribers"] == 0
        assert len(self.resolver.refresher) == 0
        for session in self.resolver.downstream_sessions():
            assert session.publisher_subscriptions() == []
            assert not session._pending_incoming_subscribes


class Upstream:
    """The relay rig's origin: accepts every track, files records per track."""

    def __init__(self) -> None:
        self.records: dict[FullTrackName, list[PublisherSubscription]] = {}

    def handle_subscribe(self, session, message):
        record = session.complete_subscribe(message.request_id, SubscribeResult(ok=True))
        self.records.setdefault(message.full_track_name, []).append(record)
        return None

    def handle_fetch(self, session, message, full_track_name):
        return FetchResult(ok=True)

    def handle_subscription_ended(self, session, subscription):
        records = self.records[subscription.full_track_name]
        records.remove(subscription)
        if not records:
            del self.records[subscription.full_track_name]


class RelayRig(Rig):
    def __init__(self) -> None:
        self.simulator = Simulator(seed=5)
        self.network = Network(self.simulator)
        for host in ("upstream", "relay", CLIENTS):
            self.network.add_host(host)
        self.network.connect("upstream", "relay", LinkConfig(delay=0.02))
        self.network.connect("relay", CLIENTS, LinkConfig(delay=0.005))
        self.upstream = Upstream()
        self.upstream_sessions: list[MoqtSession] = []
        QuicEndpoint(
            self.network.host("upstream"),
            port=MOQT_PORT,
            server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
            on_connection=lambda connection: self.upstream_sessions.append(
                MoqtSession(connection, is_client=False, publisher_delegate=self.upstream)
            ),
        )
        self.relay = MoqtRelay(
            self.network.host("relay"),
            upstream=Address("upstream", MOQT_PORT),
            port=4443,
            upstream_connection=CLIENT_CONFIG,
            downstream_connection=None,
            admission=None,
        )
        self.address = self.relay.address
        self.tracks = [FullTrackName.of(["fanout"], name) for name in (b"t0", b"t1")]
        self._groups = [1, 1]

    def publish(self, track: int) -> int:
        self._groups[track] += 1
        group = self._groups[track]
        obj = MoqtObject(group_id=group, object_id=0, payload=b"g%d" % group)
        publish_to(self.upstream.records.get(self.tracks[track], ()), obj)
        return group

    def records(self, track: int) -> list[PublisherSubscription]:
        state = self.relay.tracks().get(self.tracks[track])
        return state.downstream if state is not None else []

    def sessions(self) -> list[MoqtSession]:
        return self.relay.downstream_sessions()

    def counters(self) -> dict[str, int]:
        return {"published": self.relay.statistics.objects_forwarded}

    def assert_quiesced(self) -> None:
        for track in self.relay.tracks().values():
            assert track.downstream == []
            assert track.awaiting_upstream == []
            assert track.upstream_subscription is None, "relay still subscribed upstream"
        assert self.relay.pending_subscribe_count() == 0
        statistics = self.relay.statistics
        assert statistics.upstream_unsubscribes == statistics.upstream_subscribes
        assert self.upstream.records == {}, "the UNSUBSCRIBE never reached the upstream"
        assert all(s.publisher_subscriptions() == [] for s in self.upstream_sessions)
        uplink = self.relay.upstream_session
        assert uplink is None or uplink.subscriptions() == []


class OriginRig(Rig):
    routes_by_track = False

    def __init__(self) -> None:
        self.simulator = Simulator(seed=7)
        self.network = Network(self.simulator)
        self.tracks = [FullTrackName.of(["fanout"], name) for name in (b"t0", b"t1")]
        self.publisher = OriginPublisher(self.network, track=self.tracks[0])
        build_origin_endpoint(self.network.add_host(ORIGIN_HOST), self.publisher)
        self.network.add_host(CLIENTS)
        self.network.connect(ORIGIN_HOST, CLIENTS, LinkConfig(delay=0.005))
        self.address = Address(ORIGIN_HOST, ORIGIN_PORT)
        self._group = 1  # the seeded initial object

    def publish(self, track: int) -> int:
        self._group += 1
        self.publisher.push(MoqtObject(group_id=self._group, object_id=0, payload=b"update"))
        return self._group

    def records(self, track: int) -> list[PublisherSubscription]:
        return [
            record
            for record in self.publisher.subscriptions
            if record.full_track_name == self.tracks[track]
        ]

    def sessions(self) -> list[MoqtSession]:
        return self.publisher.sessions

    def counters(self) -> dict[str, int]:
        return {"sent": self.publisher.objects_sent}

    def assert_quiesced(self) -> None:
        assert self.publisher.subscriptions == []
        assert all(s.publisher_subscriptions() == [] for s in self.publisher.sessions)


RIGS = [AuthRig, RecursiveRig, RelayRig, OriginRig]


# ----------------------------------------------------------------- the driver
@dataclass
class Member:
    """The oracle's view of one live subscription."""

    client: int  # serial of the client session holding it
    track: int
    forward: bool = True


@dataclass
class Slot:
    """One of the four client positions; holds at most one live session."""

    serial: int
    endpoint: QuicEndpoint
    session: MoqtSession
    subscriptions: dict[int, object] = field(default_factory=dict)


class Driver:
    """Applies operations to a rig and to the list oracle side by side."""

    def __init__(self, rig: Rig) -> None:
        self.rig = rig
        self.slots: dict[int, Slot] = {}
        self.sessions_opened = 0
        #: Live subscriptions in the order their SUBSCRIBEs were sent.
        self.members: list[Member] = []
        self.expected: dict[int, list[tuple[int, int]]] = {}
        self.received: dict[int, list[tuple[int, int]]] = {}
        #: Every delivery in arrival order: (client serial, track, group).
        self.arrivals: list[tuple[int, int, int]] = []
        self.published = 0  # publishes to a live subscription, muted ones included
        self.sent = 0  # objects that actually left the publisher

    # -- operations ---------------------------------------------------------
    def connect(self, index: int) -> Slot:
        slot = self.slots.get(index)
        if slot is None:
            endpoint, session = self.rig.connect()
            slot = self.slots[index] = Slot(self.sessions_opened, endpoint, session)
            self.sessions_opened += 1
            self.expected[slot.serial] = []
            self.received[slot.serial] = []
        return slot

    def subscribe(self, index: int, track: int) -> None:
        slot = self.connect(index)
        if track in slot.subscriptions:
            return
        serial = slot.serial

        def on_object(obj: MoqtObject) -> None:
            self.received[serial].append((track, obj.group_id))
            self.arrivals.append((serial, track, obj.group_id))

        slot.subscriptions[track] = slot.session.subscribe(
            self.rig.tracks[track], on_object=on_object
        )
        self.members.append(Member(serial, track))

    def unsubscribe(self, index: int, track: int) -> None:
        slot = self.slots.get(index)
        if slot is None or track not in slot.subscriptions:
            return
        slot.session.unsubscribe(slot.subscriptions.pop(track))
        self.members = [m for m in self.members if (m.client, m.track) != (slot.serial, track)]

    def _leave(self, index: int) -> Slot | None:
        slot = self.slots.pop(index, None)
        if slot is not None:
            self.members = [m for m in self.members if m.client != slot.serial]
        return slot

    def close(self, index: int) -> None:
        slot = self._leave(index)
        if slot is not None:
            slot.session.close("bye")

    def abandon(self, index: int) -> None:
        """Vanish silently; the publisher finds out when its idle timer fires."""
        slot = self._leave(index)
        if slot is not None:
            slot.endpoint.abandon()
            self.rig.settle(IDLE_EXPIRY)

    def mute(self, index: int, track: int) -> None:
        """``forward=False``: still subscribed and counted, nothing is sent."""
        slot = self.slots.get(index)
        if slot is None or track not in slot.subscriptions:
            return
        self.rig.settle()
        self.rig.record_of(slot.session, track).forward = False
        for member in self.members:
            if (member.client, member.track) == (slot.serial, track):
                member.forward = False

    def publish(self, track: int) -> None:
        self.rig.settle()
        group = self.rig.publish(track)
        for member in self.members:
            if member.track != track and self.rig.routes_by_track:
                continue
            self.published += 1
            if member.forward:
                self.sent += 1
                self.expected[member.client].append((member.track, group))
        self.rig.settle()

    def apply(self, operation: tuple[str, int, int, bool]) -> None:
        kind, index, track, settle = operation
        if kind == "publish":
            self.publish(track)
            return
        if kind in ("close", "abandon"):
            getattr(self, kind)(index)
        else:
            getattr(self, kind)(index, track)
        if settle:
            self.rig.settle()

    # -- checks -------------------------------------------------------------
    def check(self) -> None:
        assert self.received == self.expected
        for name, value in self.rig.counters().items():
            assert value == getattr(self, name), name

    def quiesce(self) -> None:
        """Everybody leaves, half by UNSUBSCRIBE and half by closing."""
        for index in sorted(self.slots):
            if index % 2:
                self.close(index)
            else:
                for track in list(self.slots[index].subscriptions):
                    self.unsubscribe(index, track)
        self.rig.settle()


KINDS = ["subscribe"] * 4 + ["unsubscribe"] * 2 + ["publish"] * 3 + ["close", "abandon", "mute"]
operations = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 3), st.integers(0, 1), st.booleans()),
    max_size=20,
)


@pytest.mark.parametrize("make_rig", RIGS)
@settings(max_examples=100, deadline=None)
@given(operations=operations)
def test_lifecycle_matches_list_oracle(make_rig, operations):
    driver = Driver(make_rig())
    for operation in operations:
        driver.apply(operation)
    driver.rig.settle()
    driver.check()

    driver.quiesce()
    driver.rig.assert_quiesced()
    for track in (0, 1):
        driver.publish(track)  # nobody is left: nothing may move
    driver.check()
    driver.rig.assert_quiesced()


# ------------------------------------------------- the frozen fan-out orders
def _wave_order(driver: Driver, track: int) -> list[tuple[int, int]]:
    """(client, track) in arrival order for one publish.  Every client shares
    one host and one link, so arrival order is the publisher's send order."""
    before = len(driver.arrivals)
    driver.publish(track)
    return [(client, seen) for client, seen, _ in driver.arrivals[before:]]


def test_auth_order_is_subscribe_order_within_tracks_in_creation_order():
    rig = AuthRig()
    # A second question reading the same owner name: one zone change touches
    # both tracks.
    rig.keys[1] = DnsQuestionKey(qname=rig.names[0], qtype=RecordType.A, checking_disabled=True)
    rig.tracks[1] = question_to_track(rig.keys[1])
    driver = Driver(rig)
    for client, track in [(2, 1), (0, 0), (1, 1), (3, 0)]:
        driver.subscribe(client, track)
        rig.settle()
    rig.settle()
    before = len(driver.arrivals)
    rig.publish(0)
    rig.settle()
    # Track 1 was created first (by client serial 0 = slot 2).
    assert [(c, t) for c, t, _ in driver.arrivals[before:]] == [(0, 1), (2, 1), (1, 0), (3, 0)]


def test_recursive_order_is_accept_order():
    driver = Driver(RecursiveRig())
    for client in (2, 0, 1):  # one cold resolution answers all three, in order
        driver.subscribe(client, 0)
    driver.rig.settle()
    driver.subscribe(3, 0)  # warm: accepted at once
    assert _wave_order(driver, 0) == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_relay_order_is_subscribe_arrival_order_deferred_included():
    driver = Driver(RelayRig())
    for client in (2, 0):  # both wait for the upstream answer
        driver.subscribe(client, 0)
    driver.rig.settle()
    for client in (3, 1):  # accepted at once
        driver.subscribe(client, 0)
    assert _wave_order(driver, 0) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert driver.rig.relay.statistics.pending_subscribe_high_water == 2


def test_origin_order_is_accept_order():
    driver = Driver(OriginRig())
    for client, track in [(1, 0), (3, 1), (0, 0), (3, 0)]:
        driver.subscribe(client, track)
        driver.rig.settle()
    # Serial 1 (slot 3) holds two subscriptions and hears every push twice.
    assert _wave_order(driver, 0) == [(0, 0), (1, 1), (2, 0), (1, 0)]


# ------------------------------------------------------ one test per guard
# Source mutations these are written to catch (each was applied and seen to
# fail): publish_to without the ``closed`` skip; publish_to iterating the live
# list; no removal on UNSUBSCRIBE / on close (the property's quiesce check, and
# the counters); a deferred SUBSCRIBE that UNSUBSCRIBE does not cancel; the
# relay's idle teardown ignoring deferred waiters.
@pytest.mark.parametrize("make_rig", RIGS)
def test_sessions_marked_closed_without_callbacks_are_skipped(make_rig):
    # What relay.crash() / OriginCluster.crash_active() do: no hook runs, the
    # records stay filed, and a push must step over them.
    driver = Driver(make_rig())
    for client in range(3):
        driver.subscribe(client, 0)
    driver.rig.settle()
    crashed = driver.rig.record_of(driver.slots[1].session, 0)
    crashed.session.closed = True
    driver.members = [m for m in driver.members if m.client != driver.slots[1].serial]
    driver.publish(0)
    driver.check()
    assert crashed in driver.rig.records(0)


class _ClosesOnSend:
    """Stands in for a session's connection; the next object send closes the
    session instead (the transport failing under the publisher's feet)."""

    def __init__(self, session: MoqtSession) -> None:
        self._session = session
        self._connection = session.connection

    def send_encoded_stream(self, payload: bytes) -> None:
        session = self._session
        session.connection = self._connection
        session.close("send failed")

    def __getattr__(self, name):
        return getattr(self._connection, name)


@pytest.mark.parametrize("make_rig", RIGS)
def test_a_publish_that_closes_its_session_does_not_skip_the_next_subscriber(make_rig):
    driver = Driver(make_rig())
    for client in range(3):
        driver.subscribe(client, 0)
    driver.rig.settle()
    records = list(driver.rig.records(0))
    assert len(records) == 3
    doomed = records[1].session
    doomed.connection = _ClosesOnSend(doomed)
    driver.rig.publish(0)
    driver.rig.settle()
    assert doomed.closed
    assert driver.rig.records(0) == [records[0], records[2]]
    received = {serial: len(objects) for serial, objects in driver.received.items()}
    assert received == {0: 1, 1: 0, 2: 1}


@pytest.mark.parametrize("make_rig", [RecursiveRig, RelayRig])
def test_unsubscribe_cancels_a_deferred_subscribe(make_rig):
    driver = Driver(make_rig())
    driver.connect(0)
    driver.connect(1)
    driver.rig.settle()
    driver.subscribe(0, 0)  # cold: the publisher defers its answer
    driver.unsubscribe(0, 0)  # on the wire right behind the SUBSCRIBE
    driver.subscribe(1, 1)
    driver.close(1)  # the same race, by closing
    driver.rig.settle()
    driver.publish(0)
    driver.publish(1)
    driver.check()
    driver.quiesce()
    driver.rig.assert_quiesced()


@pytest.mark.parametrize("make_rig", RIGS)
def test_a_subscribe_behind_the_message_that_closed_the_session_is_dropped(make_rig):
    # Loss can hand the server CLIENT_SETUP and a pipelined SUBSCRIBE as one
    # control-stream chunk.  Without a common version the first closes the
    # session; the second must not reach a publisher, which would file a
    # subscriber that can never be told anything and never leaves.
    driver = Driver(make_rig())
    driver.connect(0)
    driver.rig.settle()
    (server_session,) = driver.rig.sessions()
    chunk = ClientSetup(supported_versions=(1,)).encode()
    chunk += Subscribe(request_id=0, track_alias=1, full_track_name=driver.rig.tracks[0]).encode()
    server_session.stream_data_received(0, chunk, False)
    assert server_session.closed
    assert driver.rig.records(0) == []
    driver.publish(0)
    driver.check()
    driver.rig.assert_quiesced()


#: Requests whose last request ID is not the client's next one (0, 2, 4, ...).
BAD_REQUEST_IDS = {
    "reused": lambda track: [Subscribe(request_id=0, track_alias=1, full_track_name=track)] * 2,
    "skipped": lambda track: [
        Subscribe(request_id=0, track_alias=1, full_track_name=track),
        Subscribe(request_id=4, track_alias=2, full_track_name=track),
    ],
    "wrong parity": lambda track: [Subscribe(request_id=1, track_alias=1, full_track_name=track)],
    "fetch reusing": lambda track: [
        Subscribe(request_id=0, track_alias=1, full_track_name=track),
        Fetch(request_id=0, fetch_type=FetchType.RELATIVE_JOINING, joining_request_id=0, joining_start=1),
    ],
}


@pytest.mark.parametrize("case", BAD_REQUEST_IDS)
@pytest.mark.parametrize("make_rig", RIGS)
def test_a_request_id_that_is_not_the_peers_next_closes_the_session(make_rig, case):
    # Two SUBSCRIBEs with request ID 0 used to reach the publisher twice: the
    # second overwrote the session's record of the first, so closing the
    # session never ended the first, which stayed in the per-track list.
    driver = Driver(make_rig())
    slot = driver.connect(0)
    driver.rig.settle()
    (server_session,) = driver.rig.sessions()
    reasons, previous = [], server_session.on_closed
    server_session.on_closed = lambda session, reason: (reasons.append(reason), previous and previous(session, reason))
    for message in BAD_REQUEST_IDS[case](driver.rig.tracks[0]):
        slot.session._send_control(message.encode())
    driver.rig.settle()
    driver.close(0)
    driver.rig.settle()
    driver.rig.assert_quiesced()
    assert server_session.closed and slot.session.closed
    assert len(reasons) == 1 and "request ID" in reasons[0]
    driver.publish(0)
    driver.check()


def test_relay_keeps_upstream_while_a_deferred_waiter_remains():
    driver = Driver(RelayRig())
    driver.connect(0)
    driver.connect(1)
    driver.rig.settle()
    driver.subscribe(0, 0)
    driver.subscribe(1, 0)
    driver.unsubscribe(0, 0)  # leaves while both still await the upstream answer
    driver.rig.settle()
    relay = driver.rig.relay
    assert relay.statistics.downstream_unsubscribes == 1
    assert relay.statistics.upstream_unsubscribes == 0
    assert len(driver.rig.records(0)) == 1
    driver.publish(0)
    driver.check()
    assert driver.received[driver.slots[1].serial] == [(0, 2)]


def test_fallback_refresh_follows_the_subscriber_count():
    # §4.5: the authoritative server speaks no MoQT, so the resolver polls it
    # every TTL — for exactly as long as somebody is subscribed.
    driver = Driver(RecursiveRig(moqt_on_auth=False, record_ttl=5))
    resolver, key = driver.rig.resolver, driver.rig.keys[0]
    driver.subscribe(0, 0)
    driver.subscribe(1, 0)
    driver.rig.settle(10.0)
    assert resolver.refresher.is_scheduled(key)
    driver.unsubscribe(0, 0)
    driver.rig.settle()
    assert resolver.refresher.is_scheduled(key), "one subscriber is still there"
    driver.abandon(1)
    assert not resolver.refresher.is_scheduled(key)
    driver.rig.assert_quiesced()
    queries = resolver.statistics.upstream_udp_queries
    driver.rig.settle(300.0)
    assert resolver.statistics.upstream_udp_queries == queries
