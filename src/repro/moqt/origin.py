"""The origin publisher: the MoQT server at the root of a relay tree.

A moqt-layer component, so an origin *instance* can exist more than once
per network — an active publisher and its warm standbys
(:mod:`repro.relaynet.origincluster`).

An :class:`OriginPublisher` is a publisher delegate plus the track state it
serves:

* SUBSCRIBEs are always accepted, answering with the track's largest
  location;
* FETCHes are served from the track state — standalone fetches honour their
  requested range (a promoted standby answers the tier-0 relays' gap FETCH
  from its cache), joining fetches return the latest group as before;
* :meth:`OriginPublisher.push` records an object and fans it out to every
  direct subscriber, encoded once per track alias and link-batched.

A standby's publisher is created with ``seed_initial=False`` and its state
is filled by a live subscription to the active origin, so at promotion time
``state.largest`` *is* the cached high-water mark the resumed sequence
continues from.
"""

from __future__ import annotations

from repro.moqt.messages import FetchType
from repro.moqt.objectmodel import Location, MoqtObject, TrackState
from repro.moqt.relay import DEFAULT_MOQT_PORT, MOQT_ALPN
from repro.moqt.session import (
    FetchResult,
    MoqtSession,
    PublisherSubscription,
    SubscribeResult,
    publish_to,
)
from repro.moqt.track import FullTrackName
from repro.netsim.network import Network
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

TRACK = FullTrackName.of(["dns", "a"], b"cdn.example")
ORIGIN_HOST = "origin"
ORIGIN_PORT = DEFAULT_MOQT_PORT


class OriginPublisher:
    """Origin publisher delegate serving one DNS track to the top tier.

    Parameters
    ----------
    network:
        The network the origin host lives on, when known — enables
        link-batched fan-out in :meth:`push`.
    track:
        The full track name this origin serves.
    seed_initial:
        Publish the historical initial object (group 1, ``b"v1"``) into the
        track state.  Standby origins pass False: their state is warmed by a
        live subscription to the active origin instead, so the cache holds
        exactly what the active published.
    """

    def __init__(
        self,
        network: Network | None = None,
        track: FullTrackName = TRACK,
        seed_initial: bool = True,
    ) -> None:
        self.state = TrackState(track)
        if seed_initial:
            self.state.publish(MoqtObject(group_id=1, object_id=0, payload=b"v1"))
        self.sessions: list[MoqtSession] = []
        #: The sessions' records of every direct subscriber, in accept order.
        self.subscriptions: list[PublisherSubscription] = []
        self.network = network

    @property
    def high_water(self) -> Location | None:
        """Largest location the publisher's state holds (resume point)."""
        return self.state.largest

    def handle_subscribe(self, session, message):
        self.subscriptions.append(
            session.complete_subscribe(
                message.request_id, SubscribeResult(ok=True, largest=self.state.largest)
            )
        )
        return None

    def handle_subscription_ended(self, session, subscription):
        self.subscriptions.remove(subscription)

    def handle_fetch(self, session, message, full_track_name):
        if message.fetch_type == FetchType.STANDALONE:
            start = Location(message.start_group, message.start_object)
            end = Location(message.end_group, message.end_object)
            if start != Location(0, 0) or end != Location(0, 0):
                # Ranged standalone fetch: a promoted standby serves the
                # tier-0 relays' gap FETCH from its warm cache, exactly like
                # a relay's cache would (inclusive range, open end allowed).
                return FetchResult(
                    ok=True,
                    objects=self.state.objects_in_range(
                        start, end if end != Location(0, 0) else None
                    ),
                    largest=self.state.largest,
                )
        return FetchResult(
            ok=True, objects=self.state.latest_objects(1), largest=self.state.largest
        )

    def push(self, obj: MoqtObject) -> None:
        """Record and push one update to every direct (top-tier) subscriber."""
        self.state.publish(obj)
        network = self.network
        if network is not None:
            network.begin_batch()
        try:
            publish_to(self.subscriptions, obj)
        finally:
            if network is not None:
                network.end_batch()

    @property
    def objects_sent(self) -> int:
        """Objects the origin pushed over all its sessions."""
        return sum(session.statistics.objects_sent for session in self.sessions)


def build_origin_endpoint(
    host, publisher: OriginPublisher, port: int = ORIGIN_PORT
) -> QuicEndpoint:
    """Bind a MoQT server endpoint on ``host`` serving ``publisher``."""
    return QuicEndpoint(
        host,
        port=port,
        server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
        on_connection=lambda connection: publisher.sessions.append(
            MoqtSession(connection, is_client=False, publisher_delegate=publisher)
        ),
    )


def build_origin(network: Network) -> OriginPublisher:
    """Create the origin host with a MoQT server wired to a new publisher."""
    publisher = OriginPublisher(network)
    build_origin_endpoint(network.add_host(ORIGIN_HOST), publisher)
    return publisher
