"""Tests for MoQT sessions: setup, subscribe, fetch, publish, relays."""

from __future__ import annotations

import pytest

from repro.moqt.datastream import encode_subgroup_stream_chunk
from repro.moqt.errors import SubscribeErrorCode
from repro.moqt.messages import Fetch, FilterType, Subscribe
from repro.moqt.objectmodel import Location, MoqtObject, TrackState
from repro.moqt.relay import MoqtRelay
from repro.moqt.session import (
    _UNUSED,
    FetchResult,
    MoqtSession,
    SubscribeResult,
)
from repro.moqt.track import FullTrackName
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

PUBLISHER = "9.9.9.9"
SUBSCRIBER = "10.0.0.1"
RELAY = "5.5.5.5"
RTT = 0.05
TRACK = FullTrackName.of(["dns", "a"], b"example")


class RecordingPublisher:
    """A publisher delegate serving one in-memory track."""

    def __init__(self, defer: bool = False) -> None:
        self.state = TrackState(TRACK)
        self.state.publish(MoqtObject(group_id=1, object_id=0, payload=b"v1"))
        self.subscribes = []
        self.fetches = []
        self.defer = defer
        self.accept = True

    def handle_subscribe(self, session, message):
        self.subscribes.append((session, message))
        if self.defer:
            return None
        if not self.accept:
            return SubscribeResult(
                ok=False, error_code=SubscribeErrorCode.TRACK_DOES_NOT_EXIST, reason="nope"
            )
        return SubscribeResult(ok=True, largest=self.state.largest)

    def handle_fetch(self, session, message, full_track_name):
        self.fetches.append((session, message, full_track_name))
        if self.defer:
            return None
        return FetchResult(ok=True, objects=self.state.latest_objects(1), largest=self.state.largest)


def _build(publisher_delegate=None, alpn_version_negotiation=False):
    simulator = Simulator(seed=21)
    network = Network(simulator)
    network.add_host(PUBLISHER)
    network.add_host(SUBSCRIBER)
    network.connect(PUBLISHER, SUBSCRIBER, LinkConfig(delay=RTT / 2))
    publisher_sessions = []
    delegate = publisher_delegate if publisher_delegate is not None else RecordingPublisher()

    def on_connection(connection):
        publisher_sessions.append(
            MoqtSession(
                connection,
                is_client=False,
                publisher_delegate=delegate,
            )
        )

    QuicEndpoint(
        network.host(PUBLISHER),
        port=4443,
        server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
        on_connection=on_connection,
    )
    client_endpoint = QuicEndpoint(network.host(SUBSCRIBER))
    connection = client_endpoint.connect(
        Address(PUBLISHER, 4443), ConnectionConfig(alpn_protocols=("moq-00",))
    )
    client_session = MoqtSession(
        connection, is_client=True, alpn_version_negotiation=alpn_version_negotiation
    )
    return simulator, client_session, publisher_sessions, delegate


class TestSessionSetup:
    def test_session_ready_after_two_rtts(self):
        simulator, session, publisher_sessions, _ = _build()
        # The handshake's round trip, then CLIENT_SETUP -> SERVER_SETUP.
        simulator.run(until=2 * RTT * 0.99)
        assert not session.ready
        simulator.run(until=2 * RTT * 1.01)
        assert session.ready
        simulator.run(until=2.0)
        assert publisher_sessions[0].ready

    def test_alpn_version_negotiation_makes_client_ready_immediately(self):
        simulator, session, _, _ = _build(alpn_version_negotiation=True)
        assert simulator.now == 0.0 and session.ready

    def test_requests_queued_until_ready_are_sent(self):
        simulator, session, _, delegate = _build()
        responses = []
        session.subscribe(TRACK, on_response=lambda s: responses.append(s.state))
        simulator.run(until=2.0)
        assert responses == ["active"]
        assert len(delegate.subscribes) == 1


class TestSubscribeAndFetch:
    def test_subscribe_fetch_and_push(self):
        simulator, session, publisher_sessions, delegate = _build()
        pushed = []
        fetched = []
        subscription = session.subscribe(TRACK, on_object=lambda obj: pushed.append(obj))
        session.joining_fetch(subscription, on_complete=lambda f: fetched.append(f))
        simulator.run(until=2.0)
        assert subscription.is_active
        assert fetched[0].succeeded
        assert [obj.payload for obj in fetched[0].objects] == [b"v1"]
        assert subscription.largest == Location(1, 0)

        publisher_subscription = publisher_sessions[0].publisher_subscriptions()[0]
        update = MoqtObject(group_id=2, object_id=0, payload=b"v2")
        delegate.state.publish(update)
        publisher_sessions[0].publish(publisher_subscription, update)
        simulator.run(until=4.0)
        assert [obj.payload for obj in pushed] == [b"v2"]
        assert subscription.objects_received == 1
        assert session.statistics.objects_received == 2  # fetch object + push

    def test_subscribe_error_propagates(self):
        delegate = RecordingPublisher()
        delegate.accept = False
        simulator, session, _, _ = _build(publisher_delegate=delegate)
        states = []
        session.subscribe(TRACK, on_response=lambda s: states.append((s.state, s.error_code)))
        simulator.run(until=2.0)
        assert states == [("error", int(SubscribeErrorCode.TRACK_DOES_NOT_EXIST))]

    def test_deferred_completion(self):
        delegate = RecordingPublisher(defer=True)
        simulator, session, publisher_sessions, _ = _build(publisher_delegate=delegate)
        states = []
        fetch_results = []
        subscription = session.subscribe(TRACK, on_response=lambda s: states.append(s.state))
        session.joining_fetch(subscription, on_complete=lambda f: fetch_results.append(f.succeeded))
        simulator.run(until=2.0)
        assert states == [] and fetch_results == []
        publisher = publisher_sessions[0]
        sub_request = delegate.subscribes[0][1]
        fetch_request = delegate.fetches[0][1]
        publisher.complete_subscribe(
            sub_request.request_id, SubscribeResult(ok=True, largest=Location(1, 0))
        )
        publisher.complete_fetch(
            fetch_request.request_id,
            FetchResult(ok=True, objects=[MoqtObject(group_id=1, object_id=0, payload=b"v1")]),
        )
        simulator.run(until=4.0)
        assert states == ["active"]
        assert fetch_results == [True]

    def test_standalone_fetch_range(self):
        delegate = RecordingPublisher()
        delegate.state.publish(MoqtObject(group_id=2, object_id=0, payload=b"v2"))
        simulator, session, _, _ = _build(publisher_delegate=delegate)
        done = []
        session.fetch(TRACK, Location(1, 0), Location(2, 0), on_complete=done.append)
        simulator.run(until=2.0)
        assert done[0].succeeded
        assert done[0].objects  # publisher returns its latest object

    def test_fetch_response_larger_than_16_kib_round_trips(self):
        # 20,000 B of payload: the STREAM frame and packet lengths need the
        # 4-byte varint form, and the response is one one-shot stream.
        delegate = RecordingPublisher()
        big = MoqtObject(group_id=2, object_id=0, payload=bytes(range(250)) * 80)
        delegate.state.publish(big)
        simulator, session, publisher_sessions, _ = _build(publisher_delegate=delegate)
        done = []
        session.fetch(TRACK, Location(2, 0), Location(2, 0), on_complete=done.append)
        simulator.run(until=2.0)
        assert done[0].succeeded
        assert done[0].objects == [big]
        assert publisher_sessions[0].connection.statistics.bytes_sent > 20_000
        assert session.connection.stream_states == 1  # the control stream
        assert publisher_sessions[0].connection.stream_states == 1

    def test_unsubscribe_sends_done(self):
        simulator, session, publisher_sessions, _ = _build()
        subscription = session.subscribe(TRACK)
        simulator.run(until=2.0)
        assert publisher_sessions[0].publisher_subscriptions()
        session.unsubscribe(subscription)
        simulator.run(until=4.0)
        assert subscription.state == "done"
        assert publisher_sessions[0].publisher_subscriptions() == []

    def test_unsubscribe_releases_subscriber_side_state(self):
        # A long-lived session that churns through subscribe/unsubscribe
        # cycles (a relay's upstream session) must not accumulate dead
        # subscription entries (§5.1).
        simulator, session, publisher_sessions, delegate = _build()
        received = []
        for _ in range(5):
            subscription = session.subscribe(TRACK, on_object=received.append)
            simulator.run(until=simulator.now + 2.0)
            session.unsubscribe(subscription)
            simulator.run(until=simulator.now + 2.0)
        assert session.subscriptions() == []
        # Objects pushed after the teardown do not reach dead callbacks.
        update = MoqtObject(group_id=9, object_id=0, payload=b"late")
        delegate.state.publish(update)
        for publisher_subscription in publisher_sessions[0].publisher_subscriptions():
            publisher_sessions[0].publish(publisher_subscription, update)
        simulator.run(until=simulator.now + 2.0)
        assert received == []

    def test_finished_fetches_leave_the_session(self):
        # A long-lived session (a resolver's upstream session, a relay's
        # uplink) must not pin every lookup's objects and callback graph:
        # the table holds a fetch only while it is in flight, and it is
        # already out when ``on_complete`` runs.
        simulator, session, publisher_sessions, _ = _build()
        held_at_completion = []

        def done(fetch_request):
            held_at_completion.append(fetch_request.request_id in session._fetches)

        completed = session.fetch(TRACK, Location(1, 0), Location(1, 0), on_complete=done)
        assert session._fetches == {completed.request_id: completed}
        simulator.run(until=2.0)
        assert completed.succeeded and completed.objects
        publisher_sessions[0].publisher_delegate = None  # every FETCH now errors
        failed = session.fetch(TRACK, Location(1, 0), Location(1, 0), on_complete=done)
        simulator.run(until=4.0)
        assert failed.state == "error"
        assert held_at_completion == [False, False]
        assert session._fetches == {}

    def test_served_fetches_leave_no_table_on_the_publisher_session(self):
        # The publisher side defers each incoming FETCH in a table for an
        # instant; a session that has served FETCHes keeps no drained table.
        simulator, session, publisher_sessions, delegate = _build()
        subscription = session.subscribe(TRACK)
        session.joining_fetch(subscription, on_complete=lambda fetch: None)
        session.fetch(TRACK, Location(1, 0), Location(1, 0), on_complete=lambda fetch: None)
        simulator.run(until=2.0)
        publisher = publisher_sessions[0]
        assert len(delegate.fetches) == 2
        assert publisher._pending_incoming_fetches is _UNUSED

        delegate.defer = True
        first = session.fetch(TRACK, Location(1, 0), Location(1, 0), on_complete=lambda fetch: None)
        second = session.fetch(TRACK, Location(1, 0), Location(1, 0), on_complete=lambda fetch: None)
        simulator.run(until=4.0)
        (_, first_message, _), (_, second_message, _) = delegate.fetches[2:]
        publisher.complete_fetch(first_message.request_id, FetchResult(ok=True))
        assert list(publisher._pending_incoming_fetches) == [second_message.request_id]
        publisher.complete_fetch(second_message.request_id, FetchResult(ok=True))
        assert publisher._pending_incoming_fetches is _UNUSED
        simulator.run(until=6.0)
        assert first.succeeded and second.succeeded

    def test_completing_an_unknown_fetch_builds_no_table(self):
        simulator, session, publisher_sessions, delegate = _build()
        simulator.run(until=1.0)
        publisher = publisher_sessions[0]
        assert publisher._pending_incoming_fetches is _UNUSED
        publisher.complete_fetch(99, FetchResult(ok=True))  # never received
        assert publisher._pending_incoming_fetches is _UNUSED
        fetch = session.fetch(TRACK, Location(1, 0), Location(1, 0), on_complete=lambda fetch: None)
        simulator.run(until=2.0)
        assert fetch.succeeded and len(delegate.fetches) == 1
        (_, message, _) = delegate.fetches[0]
        publisher.complete_fetch(message.request_id, FetchResult(ok=True))  # answered already
        assert publisher._pending_incoming_fetches is _UNUSED
        assert len(delegate.fetches) == 1 and fetch.state == "complete"

    def test_fetch_error_when_no_publisher(self):
        simulator, session, publisher_sessions, _ = _build()
        simulator.run(until=1.0)
        publisher_sessions[0].publisher_delegate = None
        results = []
        subscription = session.subscribe(TRACK, on_response=lambda s: results.append(s.state))
        simulator.run(until=3.0)
        assert results == ["error"]

    @pytest.mark.parametrize("case", ["unknown status", "unknown type", "truncated object"])
    def test_a_malformed_data_stream_is_dropped(self, case):
        """An unknown object status or stream type, or a truncated object,
        never leaves ``Simulator.run``: the stream is dropped, the session
        closes with ``PROTOCOL_VIOLATION`` and the decode memo keeps nothing
        of it."""
        simulator, session, publisher_sessions, _ = _build()
        pushed = []
        subscription = session.subscribe(TRACK, on_object=pushed.append)
        simulator.run(until=2.0)
        publisher = publisher_sessions[0]
        publisher_subscription = publisher.publisher_subscriptions()[0]
        obj = MoqtObject(group_id=3, object_id=0, payload=b"v3")
        good = encode_subgroup_stream_chunk(publisher_subscription.track_alias, obj)
        malformed = {
            "unknown status": good[:-1] + b"\x3e",  # the status varint is the last byte
            "unknown type": b"\x3f\x01",
            "truncated object": good[:-1],
        }[case]
        closed, own = [], []
        publisher.on_closed = lambda s, reason: closed.append(reason)
        session.on_closed = lambda s, reason: own.append(reason)
        publisher.connection.send_encoded_stream(malformed)
        simulator.run(until=3.0)
        assert session.closed and session.connection.closed
        assert publisher.closed and len(own) == 1 and closed == own
        assert pushed == [] and subscription.objects_received == 0
        assert session.statistics.objects_received == 0
        assert malformed not in simulator.memos["moqt.stream"]

    @pytest.mark.parametrize("case", ["unknown type", "unparsable SUBSCRIBE", "trailing bytes"])
    def test_a_malformed_control_payload_is_not_kept(self, case):
        """The control-stream counterpart: a payload that fails to decode
        closes the session with ``PROTOCOL_VIOLATION`` instead of raising out
        of it, and the simulation's decode memo keeps nothing of it."""
        simulator, _, publisher_sessions, delegate = _build()
        simulator.run(until=2.0)
        decoded = simulator.memos["moqt.control"]
        held = dict(decoded)
        assert held, "the SETUP exchange decoded through the memo"
        subscribe = Subscribe(request_id=0, track_alias=1, full_track_name=TRACK).encode()
        wire = {
            "unknown type": b"\x3e\x00\x00",
            "unparsable SUBSCRIBE": subscribe[:3] + b"\xff" * (len(subscribe) - 3),
            "trailing bytes": subscribe[:2] + bytes([subscribe[2] + 1]) + subscribe[3:] + b"\x00",
        }[case]
        publisher = publisher_sessions[0]
        publisher.stream_data_received(0, wire, False)
        assert publisher.closed and publisher.connection.closed
        assert delegate.subscribes == []
        assert decoded == held

    def test_a_session_closed_before_setup_keeps_no_queued_request(self):
        simulator, session, _, _ = _build()
        subscription = session.subscribe(TRACK)
        fetch = session.fetch(TRACK, Location(1, 0), Location(1, 0), on_complete=lambda fetch: None)
        assert session._pending_until_ready == [
            Subscribe(request_id=0, track_alias=1, full_track_name=TRACK).encode(),
            Fetch(request_id=2, full_track_name=TRACK, start_group=1, end_group=1).encode(),
        ]
        session.close("gave up")
        assert session._pending_until_ready == ()
        assert fetch.state == "error"
        simulator.run(until=2.0)
        assert not session.ready and subscription.state == "pending"
        assert session.statistics.control_messages_sent == 1  # CLIENT_SETUP only

    def test_goaway_recorded(self):
        simulator, session, publisher_sessions, _ = _build()
        simulator.run(until=1.0)
        publisher_sessions[0].goaway("moqt://elsewhere")
        simulator.run(until=2.0)
        assert session.goaway_uri == "moqt://elsewhere"

    def test_session_close_propagates(self):
        simulator, session, publisher_sessions, _ = _build()
        simulator.run(until=1.0)
        closed = []
        publisher_sessions[0].on_closed = lambda s, reason: closed.append(reason)
        session.close("finished")
        simulator.run(until=2.0)
        assert session.closed
        assert publisher_sessions[0].closed
        assert closed


class TestRelay:
    def _build_relay_chain(self):
        simulator = Simulator(seed=31)
        network = Network(simulator)
        for host in (PUBLISHER, RELAY, SUBSCRIBER):
            network.add_host(host)
        network.connect(PUBLISHER, RELAY, LinkConfig(delay=0.02))
        network.connect(RELAY, SUBSCRIBER, LinkConfig(delay=0.01))

        delegate = RecordingPublisher()
        origin_sessions = []

        def on_connection(connection):
            origin_sessions.append(
                MoqtSession(connection, is_client=False, publisher_delegate=delegate)
            )

        QuicEndpoint(
            network.host(PUBLISHER),
            port=4443,
            server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
            on_connection=on_connection,
        )
        relay = MoqtRelay(
            network.host(RELAY), Address(PUBLISHER, 4443), 4443,
            upstream_connection=None, downstream_connection=None, admission=None,
        )

        def subscriber(host_address: str):
            endpoint = QuicEndpoint(network.host(host_address))
            connection = endpoint.connect(
                Address(RELAY, 4443), ConnectionConfig(alpn_protocols=("moq-00",))
            )
            return MoqtSession(connection, is_client=True)

        return simulator, delegate, origin_sessions, relay, subscriber

    def test_relay_aggregates_subscriptions_and_forwards_objects(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        first = make_subscriber(SUBSCRIBER)
        second = make_subscriber(SUBSCRIBER)
        received_first, received_second = [], []
        first.subscribe(TRACK, on_object=lambda obj: received_first.append(obj.payload))
        second.subscribe(TRACK, on_object=lambda obj: received_second.append(obj.payload))
        simulator.run(until=3.0)
        # Two downstream subscriptions, one upstream subscription.
        assert relay.statistics.downstream_subscribes == 2
        assert relay.statistics.upstream_subscribes == 1
        assert delegate.subscribes and len(delegate.subscribes) == 1

        update = MoqtObject(group_id=2, object_id=0, payload=b"v2")
        delegate.state.publish(update)
        origin = origin_sessions[0]
        origin.publish(origin.publisher_subscriptions()[0], update)
        simulator.run(until=6.0)
        assert received_first == [b"v2"]
        assert received_second == [b"v2"]
        assert relay.statistics.objects_forwarded == 2

    def test_relay_serves_fetch_from_cache_after_first_object(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        subscriber = make_subscriber(SUBSCRIBER)
        subscription = subscriber.subscribe(TRACK)
        simulator.run(until=3.0)
        update = MoqtObject(group_id=2, object_id=0, payload=b"v2")
        delegate.state.publish(update)
        origin = origin_sessions[0]
        origin.publish(origin.publisher_subscriptions()[0], update)
        simulator.run(until=5.0)

        fetches = []
        late = make_subscriber(SUBSCRIBER)
        late_subscription = late.subscribe(TRACK)
        late.joining_fetch(late_subscription, on_complete=lambda f: fetches.append(f))
        simulator.run(until=8.0)
        assert fetches and fetches[0].succeeded
        assert [obj.payload for obj in fetches[0].objects] == [b"v2"]
        assert relay.statistics.fetches_served_from_cache == 1

    def test_relay_tears_down_upstream_when_last_subscriber_unsubscribes(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        first = make_subscriber(SUBSCRIBER)
        second = make_subscriber(SUBSCRIBER)
        first_subscription = first.subscribe(TRACK)
        second_subscription = second.subscribe(TRACK)
        simulator.run(until=3.0)
        assert origin_sessions[0].publisher_subscriptions()

        first.unsubscribe(first_subscription)
        simulator.run(until=5.0)
        # One subscriber remains: the upstream subscription must survive.
        assert relay.statistics.upstream_unsubscribes == 0
        assert origin_sessions[0].publisher_subscriptions()

        second.unsubscribe(second_subscription)
        simulator.run(until=7.0)
        # Last subscriber gone: the relay must not leak its upstream
        # subscription (§5.1 state clean-up).
        assert relay.statistics.downstream_unsubscribes == 2
        assert relay.statistics.upstream_unsubscribes == 1
        assert relay.tracks()[TRACK].upstream_subscription is None
        assert origin_sessions[0].publisher_subscriptions() == []

        # A new subscriber re-creates the upstream subscription.
        third = make_subscriber(SUBSCRIBER)
        states = []
        third.subscribe(TRACK, on_response=lambda s: states.append(s.state))
        simulator.run(until=10.0)
        assert states == ["active"]
        assert relay.statistics.upstream_subscribes == 2

    def test_unsubscribe_racing_a_deferred_subscribe_still_tears_down(self):
        # The relay defers the first SUBSCRIBE until the upstream answers; an
        # UNSUBSCRIBE arriving within that window must not leave a ghost
        # subscriber that the late upstream response resurrects.
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        subscriber = make_subscriber(SUBSCRIBER)
        received = []
        subscription = subscriber.subscribe(TRACK, on_object=lambda obj: received.append(obj))
        subscriber.unsubscribe(subscription)  # before the upstream ever answers
        simulator.run(until=5.0)
        assert relay.statistics.downstream_unsubscribes == 1
        assert relay.tracks()[TRACK].downstream == []
        assert relay.tracks()[TRACK].upstream_subscription is None
        assert origin_sessions[0].publisher_subscriptions() == []

        update = MoqtObject(group_id=2, object_id=0, payload=b"v2")
        delegate.state.publish(update)
        for publisher_subscription in origin_sessions[0].publisher_subscriptions():
            origin_sessions[0].publish(publisher_subscription, update)
        simulator.run(until=8.0)
        assert received == [], "no objects reach an unsubscribed session"

    def test_upstream_rejection_releases_relay_track_state(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        delegate.accept = False
        subscriber = make_subscriber(SUBSCRIBER)
        states = []
        subscriber.subscribe(TRACK, on_response=lambda s: states.append(s.state))
        simulator.run(until=3.0)
        assert states == ["error"]
        # The failed attempt must not pin the track: no ghost downstream
        # entry, no dead upstream subscription blocking future retries, and
        # no dead entry lingering in the upstream session's routing maps.
        assert relay.tracks()[TRACK].downstream == []
        assert relay.tracks()[TRACK].upstream_subscription is None
        assert relay._upstream_session.subscriptions() == []

        delegate.accept = True
        retry_states = []
        retry = make_subscriber(SUBSCRIBER)
        retry.subscribe(TRACK, on_response=lambda s: retry_states.append(s.state))
        simulator.run(until=6.0)
        assert retry_states == ["active"], "a later subscriber retries upstream"
        assert relay.statistics.upstream_subscribes == 2

    def test_upstream_rejection_errors_every_waiter_including_late_joiners(self):
        # A second subscriber arriving while the upstream subscribe is still
        # in flight must share the upstream's outcome — not be answered
        # ok=True optimistically and then stranded on a dead track.
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        delegate.accept = False
        first = make_subscriber(SUBSCRIBER)
        second = make_subscriber(SUBSCRIBER)
        first_states, second_states = [], []
        first.subscribe(TRACK, on_response=lambda s: first_states.append(s.state))
        second.subscribe(TRACK, on_response=lambda s: second_states.append(s.state))
        simulator.run(until=4.0)
        assert first_states == ["error"]
        assert second_states == ["error"]
        assert relay.tracks()[TRACK].downstream == []
        assert relay.tracks()[TRACK].awaiting_upstream == []
        assert relay.tracks()[TRACK].upstream_subscription is None

    def test_stale_upstream_response_does_not_consume_replacement_waiters(self):
        # A's upstream subscription is torn down while the origin's answer is
        # in flight; B's replacement subscription is pending.  The stale
        # answer crossing the UNSUBSCRIBE must not be delivered to B.
        delegate = RecordingPublisher(defer=True)
        simulator = Simulator(seed=41)
        network = Network(simulator)
        for host in (PUBLISHER, RELAY, SUBSCRIBER):
            network.add_host(host)
        network.connect(PUBLISHER, RELAY, LinkConfig(delay=0.02))
        network.connect(RELAY, SUBSCRIBER, LinkConfig(delay=0.01))
        origin_sessions = []
        QuicEndpoint(
            network.host(PUBLISHER),
            port=4443,
            server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
            on_connection=lambda conn: origin_sessions.append(
                MoqtSession(conn, is_client=False, publisher_delegate=delegate)
            ),
        )
        relay = MoqtRelay(
            network.host(RELAY), Address(PUBLISHER, 4443), 4443,
            upstream_connection=None, downstream_connection=None, admission=None,
        )

        def make_subscriber():
            endpoint = QuicEndpoint(network.host(SUBSCRIBER))
            connection = endpoint.connect(
                Address(RELAY, 4443), ConnectionConfig(alpn_protocols=("moq-00",))
            )
            return MoqtSession(connection, is_client=True)

        first, second = make_subscriber(), make_subscriber()
        subscription_a = first.subscribe(TRACK)
        simulator.run(until=2.0)
        assert len(delegate.subscribes) == 1  # sub1 deferred at the origin

        # Same instant: A leaves (UNSUBSCRIBE departs relay-wards), B joins,
        # and the origin answers sub1 with an error — messages cross.
        first.unsubscribe(subscription_a)
        b_states = []
        second.subscribe(TRACK, on_response=lambda s: b_states.append(s.state))
        origin = origin_sessions[0]
        origin.complete_subscribe(
            delegate.subscribes[0][1].request_id,
            SubscribeResult(
                ok=False, error_code=SubscribeErrorCode.TRACK_DOES_NOT_EXIST, reason="stale"
            ),
        )
        simulator.run(until=4.0)
        assert b_states == [], "B must not receive sub1's stale error"
        assert len(delegate.subscribes) == 2  # B's replacement reached the origin

        origin.complete_subscribe(
            delegate.subscribes[1][1].request_id,
            SubscribeResult(ok=True, largest=Location(1, 0)),
        )
        simulator.run(until=6.0)
        assert b_states == ["active"]
        track = relay.tracks()[TRACK]
        assert len(track.downstream) == 1
        assert track.upstream_subscription is not None
        assert track.upstream_subscription.is_active

    def test_joiners_during_upstream_round_trip_become_active_on_success(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        first = make_subscriber(SUBSCRIBER)
        second = make_subscriber(SUBSCRIBER)
        states = []
        first.subscribe(TRACK, on_response=lambda s: states.append(("first", s.state)))
        second.subscribe(TRACK, on_response=lambda s: states.append(("second", s.state)))
        simulator.run(until=4.0)
        assert sorted(states) == [("first", "active"), ("second", "active")]
        assert relay.statistics.upstream_subscribes == 1
        assert len(relay.tracks()[TRACK].downstream) == 2

    def test_relay_tears_down_upstream_when_last_subscriber_disconnects(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        subscriber = make_subscriber(SUBSCRIBER)
        subscriber.subscribe(TRACK)
        simulator.run(until=3.0)
        assert relay.tracks()[TRACK].downstream
        subscriber.close("gone")
        simulator.run(until=5.0)
        assert relay.tracks()[TRACK].downstream == []
        assert relay.tracks()[TRACK].upstream_subscription is None
        assert origin_sessions[0].publisher_subscriptions() == []

    def test_relay_forwards_fetch_upstream_on_cache_miss(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        subscriber = make_subscriber(SUBSCRIBER)
        fetches = []
        subscription = subscriber.subscribe(TRACK)
        subscriber.joining_fetch(subscription, on_complete=lambda f: fetches.append(f))
        simulator.run(until=5.0)
        assert fetches and fetches[0].succeeded
        assert [obj.payload for obj in fetches[0].objects] == [b"v1"]
        assert relay.statistics.fetches_forwarded_upstream == 1
