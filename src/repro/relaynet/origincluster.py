"""Replicated origin: an active publisher with warm standbys (failsafe).

The relay tree survives any *relay* crash (livetree + deadwatch), but until
this module the origin was a singleton the topology hard-coded as
indestructible.  :class:`OriginCluster` removes that assumption with the
same zero-control-plane discipline the rest of the failure story uses:

* the cluster builds one **active** origin (host name and port identical to
  the historical singleton, so a never-failing run is wire-identical) plus
  ``origins - 1`` **standbys**;
* every standby maintains a live MoQT subscription to the active origin, so
  its track cache is warm up to the last object the active published (minus
  one standby-link flight time — the publisher-side replay ring covers the
  difference at promotion);
* :meth:`OriginCluster.crash_active` is the silent fault injector: the
  active vanishes without a close frame and *nobody is told* — detection is
  purely in-band, through the tier-0 relays' keepalive'd uplinks
  (:meth:`repro.relaynet.topology.RelayTopology.report_origin_failure`);
* :meth:`OriginCluster.promote` is the deterministic, epoch-numbered
  election: the lowest-index alive standby becomes the new active, the
  epoch increments, the publisher-side replay ring is drained into the new
  active's state above its cached high-water mark (so the outage window is
  FETCHable), and every surviving standby re-points its warm subscription
  at the new active with a gap FETCH of its own.

Election determinism contract: promotion is driven by the *first* in-band
detector (first report wins), it is idempotent (later reporters of the same
death observe the recorded event), and reports naming an origin that is no
longer the active — i.e. reports from an old epoch — are ignored.  The
topology layer (:mod:`repro.relaynet.topology`) enforces those rules; this
module owns the membership, the warm caches and the election itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.origin import (
    ORIGIN_HOST,
    ORIGIN_PORT,
    TRACK,
    OriginPublisher,
    build_origin_endpoint,
)
from repro.moqt.receiver import ReceiverCounters, TrackReceiver
from repro.moqt.relay import MOQT_ALPN
from repro.moqt.session import MoqtSession
from repro.moqt.track import FullTrackName
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Address
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint

#: Objects the cluster retains publisher-side for replay at promotion.  The
#: ring only ever needs to cover the standby-link flight time plus the
#: detection window (objects pushed after the silent crash, which reached
#: nobody), so a small ring is generous.
DEFAULT_REPLAY_WINDOW = 256


@dataclass(eq=False)
class ClusterOrigin:
    """One origin instance of a replicated cluster."""

    index: int
    host: Host
    publisher: OriginPublisher
    server_endpoint: QuicEndpoint
    #: ``"active"`` | ``"standby"`` | ``"deposed"``.
    role: str
    #: Client endpoint for the standby's warm subscription uplink (None on
    #: the initial active, which never subscribes anywhere).
    client_endpoint: QuicEndpoint | None = None
    #: The warm-cache subscription session to the current active, if any.
    uplink_session: MoqtSession | None = None
    #: Receive side of the warm subscription (standbys only): it feeds the
    #: publisher's track state and stays gapless across promotions.
    receiver: TrackReceiver | None = None
    #: False once the origin has been deposed by a promotion.
    alive: bool = True
    #: When :meth:`OriginCluster.crash_active` silently crashed this origin
    #: (None while healthy) — the reference point promotion latency is
    #: measured from.
    crashed_at: float | None = None
    #: The failover event that promoted this origin's successor, once one
    #: ran (set by the topology; makes
    #: :meth:`~repro.relaynet.topology.RelayTopology.report_origin_failure`
    #: idempotent when several tier-0 relays detect the same death).
    failure_event: object | None = None

    @property
    def address(self) -> Address:
        """Address downstream sessions connect to."""
        return self.server_endpoint.address

    @property
    def high_water(self) -> Location | None:
        """Largest location this origin's (warm) state holds."""
        return self.publisher.high_water


@dataclass
class OriginPromotion:
    """One epoch transition: which standby took over, when, and why."""

    epoch: int
    detected_via: str = ""
    detection_latency: float | None = None
    #: Objects the publisher-side replay ring seeded into the new active's
    #: state above its cached high-water mark (the outage window).
    replayed_objects: int = 0


class OriginCluster:
    """An active origin plus N warm standbys on one network.

    Parameters
    ----------
    network:
        The network all origin hosts live on.
    origins:
        Total origin instances (1 active + ``origins - 1`` standbys).  With
        ``origins=1`` the cluster degenerates to the historical singleton
        (no standby hosts, links or subscriptions are created at all).
    host / port / track:
        The active origin's host name, serving port and the track every
        standby keeps warm — defaults identical to the historical
        ``build_origin`` singleton, so tree wiring is unchanged.
    standby_link:
        Link between each standby and the active (and between standbys, so
        a second promotion never has to create topology mid-failover).

    The standbys' warm-subscription uplinks use the plain MoQT-ALPN
    configuration: standbys are *not* detectors — tier-0 relays are — so no
    keepalives are needed.  The publisher-side replay ring holds
    :data:`DEFAULT_REPLAY_WINDOW` objects.
    """

    def __init__(
        self,
        network: Network,
        origins: int,
        standby_link: LinkConfig,
        host: str = ORIGIN_HOST,
        port: int = ORIGIN_PORT,
        track: FullTrackName = TRACK,
    ) -> None:
        if origins < 1:
            raise ValueError(f"a cluster needs at least one origin: {origins}")
        self.network = network
        self.port = port
        self.standby_link = standby_link
        #: Monotonic promotion epoch: 0 until the first promotion.
        self.epoch = 0
        self.promotions: list[OriginPromotion] = []
        self._replay: list[MoqtObject] = []
        self.origins: list[ClusterOrigin] = []

        # The active origin is built exactly like the historical singleton:
        # same host name, same port, same endpoint wiring — a tree attached
        # to a never-failing cluster is bit-identical on its own links.
        active_host = network.add_host(host)
        active_publisher = OriginPublisher(network, track=track)
        self.origins.append(
            ClusterOrigin(
                index=0,
                host=active_host,
                publisher=active_publisher,
                server_endpoint=build_origin_endpoint(active_host, active_publisher, port),
                role="active",
            )
        )
        self._active = self.origins[0]
        for index in range(1, origins):
            standby_host = network.add_host(f"{host}-s{index}")
            publisher = OriginPublisher(network, track=track, seed_initial=False)
            standby = ClusterOrigin(
                index=index,
                host=standby_host,
                publisher=publisher,
                server_endpoint=build_origin_endpoint(standby_host, publisher, port),
                role="standby",
                client_endpoint=QuicEndpoint(standby_host),
                receiver=TrackReceiver(track, publisher.state.publish, ReceiverCounters()),
            )
            # Full origin mesh: a later promotion (including a second one
            # after a double failure) re-points warm subscriptions without
            # creating links mid-failover.
            for other in self.origins:
                network.connect(other.host, standby_host, self.standby_link)
            self.origins.append(standby)
            self._attach_standby(standby)

    # -------------------------------------------------------------- structure
    @property
    def active(self) -> ClusterOrigin:
        """The origin currently holding the publisher role."""
        return self._active

    @property
    def address(self) -> Address:
        """The current active origin's address."""
        return self._active.address

    @property
    def publisher(self) -> OriginPublisher:
        """The current active origin's publisher."""
        return self._active.publisher

    def standbys(self) -> list[ClusterOrigin]:
        """Alive standbys, promotion order (lowest index first)."""
        return [
            origin
            for origin in self.origins
            if origin.alive and origin.role == "standby"
        ]

    def origin_at(self, address: Address) -> ClusterOrigin | None:
        """Resolve an address to the cluster member serving it, if any."""
        for origin in self.origins:
            if origin.host.address == address.host:
                return origin
        return None

    @property
    def objects_sent(self) -> int:
        """Objects pushed over every origin's downstream sessions."""
        return sum(origin.publisher.objects_sent for origin in self.origins)

    # ------------------------------------------------------------- publishing
    def push(self, obj: MoqtObject) -> None:
        """Publish one object through the current active origin.

        The object also enters the bounded publisher-side replay ring: an
        object pushed into a silently dead active reaches nobody, and the
        standby's warm subscription died with the active — the ring is the
        only copy, drained into the promoted standby's state so tier-0 gap
        FETCHes recover the outage window and subscribers stay gapless.
        """
        self._replay.append(obj)
        if len(self._replay) > DEFAULT_REPLAY_WINDOW:
            del self._replay[: len(self._replay) - DEFAULT_REPLAY_WINDOW]
        self._active.publisher.push(obj)

    # --------------------------------------------------------- fault injection
    def crash_active(self) -> ClusterOrigin:
        """Silently crash the active origin *without telling anyone*.

        Pure fault injection, the origin-tier counterpart of
        :meth:`~repro.relaynet.topology.RelayTopology.crash_relay`: no close
        frames, no callbacks, ports unbound, ``alive`` deliberately stays
        True — the cluster controller does not know yet.  Recovery happens
        only when a tier-0 relay's transport notices and reports the death
        in-band.
        """
        active = self._active
        if active.crashed_at is not None:
            raise ValueError(f"origin {active.host.address} already crashed")
        active.crashed_at = self.network.simulator.now
        for session in active.publisher.sessions:
            session.closed = True
        active.server_endpoint.abandon()
        if active.client_endpoint is not None:
            active.client_endpoint.abandon()
        if active.uplink_session is not None:
            active.uplink_session.closed = True
        return active

    # --------------------------------------------------------------- election
    def promote(self, via: str, detection_latency: float | None) -> OriginPromotion | None:
        """Depose the active origin and elect its successor (one epoch step).

        Deterministic: the lowest-index alive standby wins.  Returns None
        when no standby survives — the caller records the terminal event
        and raises the structured error.  The new active's state is topped
        up from the replay ring above its cached high-water mark, and every
        surviving standby re-points its warm subscription at the new active
        (with its own gap FETCH), so a *second* promotion finds warm caches
        again.
        """
        old = self._active
        old.alive = False
        old.role = "deposed"
        candidates = self.standbys()
        if not candidates:
            return None
        new = candidates[0]
        new.role = "active"
        self._active = new
        self.epoch += 1
        self._drop_uplink(new)
        replayed = self._drain_replay_into(new)
        promotion = OriginPromotion(
            epoch=self.epoch,
            detected_via=via,
            detection_latency=detection_latency,
            replayed_objects=replayed,
        )
        self.promotions.append(promotion)
        for standby in self.standbys():
            self._attach_standby(standby)
        return promotion

    def _drain_replay_into(self, origin: ClusterOrigin) -> int:
        """Seed the replay ring's tail above ``origin``'s high-water mark."""
        replayed = 0
        for obj in self._replay:
            largest = origin.publisher.state.largest
            if largest is None or obj.location > largest:
                origin.publisher.state.publish(obj)
                replayed += 1
        return replayed

    @staticmethod
    def _drop_uplink(origin: ClusterOrigin) -> None:
        """Silently abandon an origin's warm-subscription uplink, if any.

        The uplink points at a dead (or deposed) active; an announced close
        would put bytes on the wire toward a host that cannot answer, so the
        connection is abandoned instead — its timers die with it.
        """
        session = origin.uplink_session
        if session is None:
            return
        origin.uplink_session = None
        if not session.closed:
            session.closed = True
        if not session.connection.closed:
            session.connection.abandon()

    # ------------------------------------------------------------- warm cache
    def _attach_standby(self, standby: ClusterOrigin) -> None:
        """Point ``standby``'s warm-cache subscription at the current active.

        Live objects stream into the standby's own track state; the gap
        between the standby's high-water mark and the active's current
        position (anything missed while re-attaching after a promotion) is
        filled by the receiver's gap FETCH, so the cache stays contiguous.
        """
        self._drop_uplink(standby)
        assert standby.client_endpoint is not None and standby.receiver is not None
        connection = standby.client_endpoint.connect(
            self._active.address, ConnectionConfig(alpn_protocols=(MOQT_ALPN,))
        )
        standby.uplink_session = MoqtSession(connection, is_client=True)
        standby.receiver.subscribe(standby.uplink_session, recover=True)
