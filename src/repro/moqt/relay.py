"""MoQT relays: fan-out, subscription aggregation and object caching.

Relays are MoQT endpoints that neither produce nor consume objects; they
forward objects from publishers to subscribers without looking at payloads
(§3 of the paper).  Because objects carrying DNS responses are opaque to
them, a generic relay can distribute DNS record updates from an
authoritative server to many resolvers, which is what the CDN and deep-space
use cases in §5.3 rely on.

The relay implemented here:

* accepts downstream MoQT sessions on a QUIC server endpoint;
* aggregates subscriptions — the first downstream SUBSCRIBE for a track
  creates a single upstream subscription, later ones share it;
* caches objects per track so FETCH requests can be answered locally once
  the cache reaches back to the requested start, and forwards FETCHes
  upstream otherwise;
* forwards every received object to all downstream subscribers of the track;
* tears the upstream subscription down again once the last downstream
  subscriber has unsubscribed or disconnected, so no per-track state leaks
  (§5.1);
* chains: because a relay's upstream may itself be a relay, trees of relays
  compose — each tier aggregates its subtree into a single upstream
  subscription, which is the fan-out structure §3 and the §5.3 CDN /
  deep-space use cases rely on.  :mod:`repro.relaynet` builds and measures
  such multi-tier hierarchies declaratively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.relaynet.admission import AdmissionController, AdmissionPolicy

from repro.moqt.errors import FetchErrorCode, SubscribeErrorCode
from repro.moqt.messages import Fetch, FetchType, Subscribe
from repro.moqt.objectmodel import Location, MoqtObject, TrackState
from repro.moqt.receiver import OPEN_RANGE_END, TrackReceiver
from repro.moqt.session import (
    MOQT_ALPN,
    FetchResult,
    MoqtSession,
    PublisherSubscription,
    SubscribeResult,
    Subscription,
    publish_to,
)
from repro.moqt.track import FullTrackName
from repro.netsim.node import Host
from repro.netsim.packet import Address
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

class RelayTrack(TrackReceiver):
    """Relay state for one full track name.

    The receive side of the one upstream subscription (dedupe, resume point,
    gap FETCH and hold-back across an upstream switch are the receiver's)
    plus the object cache and the downstream fan-out list.
    """

    __slots__ = ("cache", "downstream", "awaiting_upstream", "objects_forwarded")

    def __init__(
        self,
        full_track_name: FullTrackName,
        forward: Callable[["RelayTrack", MoqtObject], None],
        statistics: "RelayStatistics",
    ) -> None:
        super().__init__(full_track_name, partial(forward, self), statistics)
        self.cache = TrackState(full_track_name)
        #: Accepted downstream subscriptions — the sessions' own records — in
        #: SUBSCRIBE arrival order, which is the fan-out order.
        self.downstream: list[PublisherSubscription] = []
        #: Downstream SUBSCRIBEs deferred until the upstream answers, each
        #: with the session it arrived on; they all share the upstream
        #: subscription's outcome.
        self.awaiting_upstream: list[tuple[MoqtSession, Subscribe]] = []
        self.objects_forwarded = 0

    @property
    def upstream_subscription(self) -> Subscription | None:
        """The live (or pending) upstream subscription, None when detached."""
        return self.subscription

    def __call__(self, obj: MoqtObject) -> None:
        # Counted before dedupe and hold-back: what the uplink delivered.
        self.counters.objects_received += 1
        super().__call__(obj)


@dataclass
class RelayStatistics:
    """Counters kept by a relay."""

    downstream_sessions: int = 0
    downstream_subscribes: int = 0
    downstream_unsubscribes: int = 0
    upstream_subscribes: int = 0
    upstream_unsubscribes: int = 0
    objects_received: int = 0
    objects_forwarded: int = 0
    fetches_served_from_cache: int = 0
    fetches_forwarded_upstream: int = 0
    upstream_switches: int = 0
    duplicate_objects_dropped: int = 0
    recovery_fetches: int = 0
    recovered_objects: int = 0
    #: Uplink failures noticed through the transport's liveness machinery
    #: (PTO suspicion or idle/PTO death) rather than an announced close.
    uplink_failures_detected: int = 0
    #: SUBSCRIBEs rejected by the token-bucket rate limit (each one answered
    #: with SUBSCRIBE_ERROR(TOO_MANY_SUBSCRIBERS, retry_after)).
    admission_rejections: int = 0
    #: SUBSCRIBEs rejected because the pending-subscribe queue hit its bound.
    admission_queue_rejections: int = 0
    #: Deepest the pending-subscribe queue (downstream subscribes deferred
    #: awaiting the upstream answer) ever got — the quantity an unlimited
    #: policy lets grow linearly with storm size (the E16 baseline
    #: pathology) and a bounded policy caps.
    pending_subscribe_high_water: int = 0


class MoqtRelay:
    """A caching, aggregating MoQT relay.

    Parameters
    ----------
    host:
        The simulated host the relay runs on.
    upstream:
        Address of the upstream MoQT endpoint (origin publisher or another
        relay — relays compose into trees).
    port:
        Port to accept downstream sessions on.
    upstream_connection:
        QUIC connection configuration for the uplink.  Deployments that rely
        on in-band failure detection (E13) enable keepalives and tune the
        idle timeout here; the default is the plain MoQT-ALPN configuration
        the static experiments have always used (wire-identical).
    downstream_connection:
        QUIC connection configuration applied to every *accepted* downstream
        connection.  This is where a congestion controller for the loss-
        facing fan-out side is installed (the edge relay is the sender on
        constrained access links); ``None`` keeps the historical default
        configuration, wire-identical to pre-congestion-control builds.
    """

    def __init__(
        self,
        host: Host,
        upstream: Address,
        port: int,
        upstream_connection: ConnectionConfig | None,
        downstream_connection: ConnectionConfig | None,
        admission: "AdmissionPolicy | None",
    ) -> None:
        self.host = host
        self.simulator = host.simulator
        self.upstream_address = upstream
        self.upstream_connection_config = upstream_connection
        #: Hook a topology controller installs to learn, in-band, that this
        #: relay's uplink is dying: ``on_uplink_dying(relay, cause)`` with
        #: ``cause`` one of the transport's liveness causes (``"pto-suspect"``,
        #: ``"idle-timeout"``, ``"pto-give-up"``).  Fires once per dying
        #: uplink session, before the session's close teardown, so the
        #: controller can switch the uplink while pending subscribes are
        #: still transplantable.
        self.on_uplink_dying: Callable[["MoqtRelay", str], None] | None = None
        #: Admission controller, present only when a *limited* policy was
        #: given: the default (None) is the historical admit-everything
        #: relay, with zero per-subscribe overhead and unchanged wire bytes.
        #: The import is deferred to keep moqt free of a load-time
        #: dependency on relaynet (which imports this module).
        self.admission: "AdmissionController | None" = None
        if admission is not None and admission.limited:
            from repro.relaynet.admission import AdmissionController

            self.admission = AdmissionController(admission)
        self.statistics = RelayStatistics()
        self._tracks: dict[FullTrackName, RelayTrack] = {}
        self._downstream_sessions: list[MoqtSession] = []
        #: Bound once: every downstream session's ``on_closed`` hook.
        self._downstream_closed = self._on_downstream_closed
        self._upstream_session: MoqtSession | None = None
        #: Uplink session whose failure has already been reported (resets on
        #: recovery), so one dying uplink raises exactly one report.
        self._uplink_failure_reported: MoqtSession | None = None

        self._server_endpoint = QuicEndpoint(
            host,
            port=port,
            server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
            server_config=downstream_connection,
            on_connection=self._on_downstream_connection,
        )
        self._client_endpoint = QuicEndpoint(host)

    @property
    def address(self) -> Address:
        """The address downstream subscribers connect to."""
        return self._server_endpoint.address

    @property
    def server_tls(self) -> ServerTlsContext:
        """The downstream server endpoint's TLS context (ticket issuance)."""
        return self._server_endpoint.server_tls

    # ----------------------------------------------------------- downstream side
    def _on_downstream_connection(self, connection: QuicConnection) -> None:
        session = MoqtSession(
            connection,
            is_client=False,
            publisher_delegate=self,
            on_closed=self._downstream_closed,
        )
        self._downstream_sessions.append(session)
        self.statistics.downstream_sessions += 1

    def downstream_sessions(self) -> list[MoqtSession]:
        """All downstream sessions accepted so far."""
        return list(self._downstream_sessions)

    def _on_downstream_closed(self, session: MoqtSession, reason: str) -> None:
        """Forget a departed downstream session (its subscriptions have
        already ended through :meth:`handle_subscription_ended`)."""
        if session in self._downstream_sessions:
            self._downstream_sessions.remove(session)
        if self.admission is not None:
            # A rejected session that leaves (spillover, give-up) abandons
            # its token reservation instead of leaking a table entry.
            self.admission.forget(session)

    # ------------------------------------------------------------- upstream side
    def _ensure_upstream_session(self) -> MoqtSession:
        if self._upstream_session is not None and not self._upstream_session.closed:
            return self._upstream_session
        config = self.upstream_connection_config
        if config is None:
            config = ConnectionConfig(alpn_protocols=(MOQT_ALPN,))
        connection = self._client_endpoint.connect(self.upstream_address, config)
        self._upstream_session = MoqtSession(
            connection,
            is_client=True,
            on_closed=self._on_upstream_closed,
            on_liveness=self._on_upstream_liveness,
        )
        return self._upstream_session

    @property
    def upstream_session(self) -> MoqtSession | None:
        """The current uplink session, if one has been opened."""
        return self._upstream_session

    @property
    def upstream_quic_connection(self) -> QuicConnection | None:
        """The QUIC connection under the current uplink session, if any."""
        if self._upstream_session is None:
            return None
        return self._upstream_session.connection

    def _on_upstream_liveness(self, session: MoqtSession, old: str, new: str) -> None:
        """React to in-band liveness transitions of the uplink transport.

        Only the *current* uplink matters — transitions of sessions an
        earlier :meth:`switch_upstream` already replaced are stale.  A
        recovery (suspect → healthy) needs no action; suspicion or death is
        reported to the topology controller via :attr:`on_uplink_dying`,
        which typically re-parents this relay while the dying session's
        state (pending subscribes included) is still intact.
        """
        if session is not self._upstream_session:
            return
        if new == "healthy":
            self._uplink_failure_reported = None
            return
        if session is self._uplink_failure_reported:
            # One incident, one report: a suspect session that nobody
            # replaced (e.g. no failover target exists) later going dead is
            # still the same dying uplink.
            return
        self._uplink_failure_reported = session
        self.statistics.uplink_failures_detected += 1
        if self.on_uplink_dying is not None:
            self.on_uplink_dying(self, session.connection.liveness_cause)

    def _on_upstream_closed(self, session: MoqtSession, reason: str) -> None:
        """Fail every subscription riding the dead upstream session.

        Without this, a lost uplink would wedge its tracks permanently:
        ``upstream_subscription`` would stay 'pending' forever, every later
        downstream SUBSCRIBE would be deferred into ``awaiting_upstream`` with
        no answer, and recovery could never start.  Clearing the state errors
        the waiters and lets the next subscriber retry over a fresh session.

        FETCHes forwarded over the dying session need no handling here: the
        session fails its own pending fetch requests when it closes, which
        fires their ``on_complete`` error paths and answers the downstream
        FETCH with a FETCH_ERROR (so waiters unblock instead of hanging).
        """
        if session is not self._upstream_session:
            return
        result = SubscribeResult(
            ok=False,
            error_code=SubscribeErrorCode.INTERNAL_ERROR,
            reason=f"upstream session closed: {reason}" if reason else "upstream session closed",
        )
        for track in self._tracks.values():
            # A recovering track is deliberately *not* released here:
            # releasing would move its resume point past the gap the
            # in-flight FETCH was recovering, so a later attach could never
            # fetch it again.  What it holds is carried until the next
            # upstream attach, which fetches the gap again or releases.
            if track.subscription is None:
                continue
            track.subscription = None
            waiting, track.awaiting_upstream = track.awaiting_upstream, []
            for waiter in waiting:
                self._answer_downstream(track, waiter, result)

    # ------------------------------------------------------------ live failover
    def switch_upstream(
        self,
        new_upstream: Address,
        on_track_reattached: Callable[[RelayTrack], None],
    ) -> None:
        """Re-point the relay's uplink at a new parent on live tracks.

        Established downstream subscribers keep their sessions and
        subscriptions; every track that still has (or awaits) downstream
        interest is re-subscribed through the new parent, recovering: the
        gap between the last object forwarded downstream and the first
        live object from the new parent is filled with a FETCH against the
        new parent's cache (forwarded further upstream on a cold cache), and
        live objects are buffered until the fetch answer has been delivered
        so the downstream object order survives the switch.  Objects the old
        parent already delivered are deduplicated by (group, object) ID.

        ``on_track_reattached`` fires once per re-subscribed track when the
        new parent accepts the subscription — topology controllers use it to
        measure re-attach latency.
        """
        old_session = self._upstream_session
        self._upstream_session = None
        self.upstream_address = new_upstream
        self.statistics.upstream_switches += 1
        if old_session is not None and not old_session.closed:
            # Close the old uplink *before* re-subscribing: failing its
            # pending fetches now (including a stale recovery FETCH from an
            # earlier switch) cannot clobber the recovery state the new
            # subscriptions are about to arm.
            old_session.close("switching upstream")
        for track in self._tracks.values():
            if track.downstream or track.awaiting_upstream:
                self._subscribe_upstream(track, True, on_track_reattached)
            else:
                track.subscription = None
                track.release()

    def _subscribe_upstream(
        self,
        track: RelayTrack,
        recover: bool,
        on_reattached: Callable[[RelayTrack], None] | None = None,
    ) -> None:
        """The one upstream-SUBSCRIBE site.  ``recover`` stays the caller's
        call: a track whose upstream was torn down while idle must not FETCH
        what was published while nobody listened."""
        upstream = self._ensure_upstream_session()
        self.statistics.upstream_subscribes += 1
        track.subscribe(
            upstream,
            recover=recover,
            on_response=partial(self._on_upstream_response, track, on_reattached),
        )

    def abandon_upstream(self, reason: str) -> None:
        """Tear the uplink down with *no* replacement: fail waiters cleanly.

        The terminal counterpart of :meth:`switch_upstream`, used by the
        topology when a failover finds nowhere alive to re-attach (the
        structured ``NoSurvivingParentError`` path): the dying session is
        closed locally — which fails its pending subscribes and fetches back
        downstream instead of leaving them wedged — and no new upstream is
        opened.  Recovering tracks are released: with no future attach
        coming, holding live objects back would stall delivery forever.
        """
        session = self._upstream_session
        if session is not None and not session.closed:
            # Closing while still the current uplink routes through
            # _on_upstream_closed, which errors every pending waiter.
            session.close(reason)
        self._upstream_session = None
        for track in self._tracks.values():
            track.release()

    def shutdown(self, reason: str = "relay shutting down") -> None:
        """Close every session and release the relay's ports.

        Used by :class:`repro.relaynet.RelayTopology` both for graceful
        leaves and (with an appropriate ``reason``) to simulate a crash:
        downstream sessions observe the close and the topology re-homes the
        orphaned subtree.
        """
        if self._upstream_session is not None and not self._upstream_session.closed:
            self._upstream_session.close(reason)
        self._server_endpoint.close()
        self._client_endpoint.close()

    def crash(self) -> None:
        """Vanish without a trace: no close frames, no callbacks, no bytes.

        The silent counterpart of :meth:`shutdown`, used as the fault
        injector for in-band failure detection (E13): downstream sessions and
        the uplink are abandoned mid-flight, the ports unbind, and every peer
        is left to notice through its own QUIC liveness machinery (probe
        timeouts or idle expiry) that this relay no longer exists.
        """
        if self._upstream_session is not None:
            self._upstream_session.closed = True
        for session in self._downstream_sessions:
            session.closed = True
        self._server_endpoint.abandon()
        self._client_endpoint.abandon()

    def _track_for(self, full_track_name: FullTrackName) -> RelayTrack:
        track = self._tracks.get(full_track_name)
        if track is None:
            track = RelayTrack(full_track_name, self._forward_to_downstream, self.statistics)
            self._tracks[full_track_name] = track
        return track

    def tracks(self) -> dict[FullTrackName, RelayTrack]:
        """All relayed tracks."""
        return dict(self._tracks)

    # ------------------------------------------------------------- subscription
    def pending_subscribe_count(self) -> int:
        """Downstream subscribes currently deferred awaiting an upstream answer."""
        return sum(len(track.awaiting_upstream) for track in self._tracks.values())

    def handle_subscribe(
        self, session: MoqtSession, message: Subscribe
    ) -> SubscribeResult | None:
        """Publisher-delegate entry: gate, then aggregate onto one upstream
        subscription.  Only a rejection is returned; an admitted SUBSCRIBE is
        answered through :meth:`_answer_downstream`, now or when the upstream
        answers."""
        self.statistics.downstream_subscribes += 1
        admission = self.admission
        if admission is not None:
            # The gate runs before *any* registration: a rejected SUBSCRIBE
            # never reaches a track's lists, so there is nothing to clean up
            # when the error goes out.  It also only ever polices arrivals —
            # established subscriptions are structurally beyond its reach
            # (never shed to admit new ones).
            decision = admission.decide(session, self.simulator.now, self.pending_subscribe_count())
            if not decision.admitted:
                if decision.cause == "queue":
                    self.statistics.admission_queue_rejections += 1
                else:
                    self.statistics.admission_rejections += 1
                return SubscribeResult(
                    ok=False,
                    error_code=SubscribeErrorCode.TOO_MANY_SUBSCRIBERS,
                    reason=f"admission: {decision.cause} limit",
                    retry_after_ms=decision.retry_after_ms,
                )
        track = self._track_for(message.full_track_name)
        waiter = (session, message)
        if track.subscription is None:
            # First subscriber for this track: aggregate into one upstream
            # subscription and answer the downstream once it is accepted.
            # A track still recovering lost its uplink with a gap FETCH in
            # flight (what it held was carried, not dropped): it resumes, so
            # the gap is fetched again and the held objects released in order.
            self._defer_awaiting_upstream(track, waiter)
            self._subscribe_upstream(track, recover=track.held is not None)
            return None
        if track.subscription.state == "pending":
            # Joiners during the upstream round trip must share its outcome —
            # answering ok optimistically would strand them on a dead track
            # if the upstream rejects.
            self._defer_awaiting_upstream(track, waiter)
            return None
        self._answer_downstream(track, waiter, SubscribeResult(ok=True, largest=track.cache.largest))
        return None

    def _answer_downstream(
        self, track: RelayTrack, waiter: tuple[MoqtSession, Subscribe], result: SubscribeResult
    ) -> None:
        """Answer one downstream SUBSCRIBE; an accepted one joins the fan-out."""
        session, message = waiter
        subscription = session.complete_subscribe(message.request_id, result)
        if subscription is not None:
            # Intern the track name: every downstream SUBSCRIBE decoded its own
            # FullTrackName; pointing the retained record at the relay's
            # canonical instance shares one across the tier.
            subscription.full_track_name = track.full_track_name
            subscription.owner = track
            track.downstream.append(subscription)

    def _defer_awaiting_upstream(
        self, track: RelayTrack, waiter: tuple[MoqtSession, Subscribe]
    ) -> None:
        """Queue a downstream subscribe behind the in-flight upstream answer,
        tracking the queue's high-water mark (the overload signal bounded
        admission policies cap and the E16 baseline shows growing with storm
        size)."""
        track.awaiting_upstream.append(waiter)
        pending = self.pending_subscribe_count()
        if pending > self.statistics.pending_subscribe_high_water:
            self.statistics.pending_subscribe_high_water = pending

    def _on_upstream_response(
        self,
        track: RelayTrack,
        on_reattached: Callable[[RelayTrack], None] | None,
        subscription: Subscription,
    ) -> None:
        """Answer the waiters, then report an accepted re-attach; a resuming
        receiver issues its gap FETCH only after this returns."""
        if track.subscription is not subscription:
            # Stale answer: this upstream subscription was already torn down
            # (its last subscriber left while the answer was in flight).  Any
            # current waiters belong to a replacement subscription and will be
            # answered by *its* response.
            return
        waiting, track.awaiting_upstream = track.awaiting_upstream, []
        if subscription.is_active:
            result = SubscribeResult(ok=True, largest=subscription.largest)
        else:
            # The upstream rejected the track: release the errored upstream
            # subscription and every waiting downstream entry, so a later
            # subscriber retries upstream instead of being served from a
            # permanently dead track.
            result = SubscribeResult(
                ok=False,
                error_code=SubscribeErrorCode(subscription.error_code)
                if subscription.error_code in SubscribeErrorCode._value2member_map_
                else SubscribeErrorCode.INTERNAL_ERROR,
                reason=subscription.error_reason,
                retry_after_ms=subscription.retry_after_ms,
            )
            track.subscription = None
        for waiter in waiting:
            self._answer_downstream(track, waiter, result)
        if subscription.is_active and on_reattached is not None:
            on_reattached(track)

    def handle_subscription_ended(
        self, session: MoqtSession, subscription: PublisherSubscription | Subscribe
    ) -> None:
        """Release a departed downstream subscription and the upstream one if idle."""
        if not session.closed:
            # Ended by UNSUBSCRIBE; a closing session has already set the flag.
            self.statistics.downstream_unsubscribes += 1
        if isinstance(subscription, PublisherSubscription):
            track = subscription.owner
            track.downstream.remove(subscription)
        else:
            # Still awaiting the upstream answer: there is no record yet.
            track = self._tracks[subscription.full_track_name]
            track.awaiting_upstream.remove((session, subscription))
        self._teardown_upstream_if_idle(track)

    def _teardown_upstream_if_idle(self, track: RelayTrack) -> None:
        """Unsubscribe upstream once no downstream subscriber needs the track.

        Without this, every track a subscriber ever asked for would keep one
        upstream subscription alive forever — exactly the state leak §5.1
        warns about.  The cache ends with the subscription: what the track
        publishes while detached never reaches it, so a later FETCH it
        answered would skip those objects.  A FETCH with no cache goes
        upstream (:meth:`handle_fetch`).
        """
        if track.downstream or track.awaiting_upstream or track.subscription is None:
            return
        subscription = track.subscription
        track.subscription = None
        track.cache = TrackState(track.full_track_name)
        self.statistics.upstream_unsubscribes += 1
        if self._upstream_session is not None and not self._upstream_session.closed:
            self._upstream_session.unsubscribe(subscription)

    def _forward_to_downstream(self, track: RelayTrack, obj: MoqtObject) -> None:
        """A track's sink: cache one distinct upstream object, then fan it out.

        Encode-once fan-out (§3's fan-out efficiency argument, applied to CPU
        rather than links) is publish_to's.  The object arrived in a link
        delivery, which is a batching region, so the per-subscriber sends
        leave as one link wave when the delivery ends.
        """
        track.cache.publish(obj)
        forwarded = publish_to(track.downstream, obj)
        track.objects_forwarded += forwarded
        self.statistics.objects_forwarded += forwarded

    # -------------------------------------------------------------------- fetch
    def handle_fetch(
        self,
        session: MoqtSession,
        message: Fetch,
        full_track_name: FullTrackName | None,
    ) -> FetchResult | None:
        if full_track_name is None:
            return FetchResult(
                ok=False,
                error_code=FetchErrorCode.TRACK_DOES_NOT_EXIST,
                reason="fetch without a resolvable track name",
            )
        track = self._track_for(full_track_name)
        start = Location(message.start_group, message.start_object)
        # A ranged FETCH reaching back past the oldest cached object (a
        # re-attaching receiver's gap, on a relay that joined the track
        # later) is not ours to answer: the missing head is upstream.  An
        # all-zero start — how a cold relay forwards a joining FETCH — asks
        # for whatever there is.
        if len(track.cache) and (
            message.fetch_type != FetchType.STANDALONE
            or start == Location(0, 0)
            or track.cache.oldest <= start
        ):
            self.statistics.fetches_served_from_cache += 1
            objects = self._cached_objects_for(track, message)
            return FetchResult(ok=True, objects=objects, largest=track.cache.largest)
        # Forward the fetch upstream and answer when it completes.
        self.statistics.fetches_forwarded_upstream += 1
        upstream = self._ensure_upstream_session()

        def on_complete(fetch_request) -> None:
            if fetch_request.succeeded:
                for obj in fetch_request.objects:
                    track.cache.publish(obj)
                session.complete_fetch(
                    message.request_id,
                    FetchResult(
                        ok=True, objects=list(fetch_request.objects), largest=track.cache.largest
                    ),
                )
            else:
                session.complete_fetch(
                    message.request_id,
                    FetchResult(
                        ok=False,
                        error_code=FetchErrorCode(fetch_request.error_code)
                        if fetch_request.error_code in FetchErrorCode._value2member_map_
                        else FetchErrorCode.INTERNAL_ERROR,
                        reason=fetch_request.error_reason,
                    ),
                )

        end = Location(message.end_group, message.end_object)
        if message.fetch_type != FetchType.STANDALONE or end == Location(0, 0):
            # Joining fetches (or open ranges) map onto "everything so far".
            start = Location(0, 0)
            end = OPEN_RANGE_END
        upstream.fetch(full_track_name, start, end, on_complete=on_complete)
        return None

    def _cached_objects_for(self, track: RelayTrack, message: Fetch) -> list[MoqtObject]:
        if message.fetch_type == FetchType.STANDALONE:
            start = Location(message.start_group, message.start_object)
            end = Location(message.end_group, message.end_object)
            if end == Location(0, 0):
                end = None
            return track.cache.objects_in_range(start, end)
        # Joining fetch: return the most recent ``joining_start`` groups.
        count = max(1, message.joining_start)
        return track.cache.latest_objects(count)
