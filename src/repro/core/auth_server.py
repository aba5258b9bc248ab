"""The DNS-over-MoQT authoritative nameserver.

The server exposes one or more zones over MoQT (§4.1/§4.2 of the paper):

* A resolver subscribes to the track derived from its DNS question (Fig. 3)
  and issues a joining fetch with offset 1; the server answers the fetch with
  the current answer for that question, encapsulated per Fig. 4 with the
  group ID set to the zone's version number.  A subscribed track keeps that
  object — computed at its first SUBSCRIBE, replaced by every push — and it
  serves a FETCH while the zone's serial is still its group ID; otherwise
  the answer is computed afresh (``docs/dns-push.md`` § One answer per zone
  version).
* Whenever the zone changes, the version number (the SOA serial) increases
  and the server regenerates the answer of every subscribed track that can
  read the changed owner name (each track *watches* the names its last answer
  depended on; see ``docs/dns-push.md``).  Tracks whose answer actually
  changed get a new object pushed to all their subscribers with the new
  version as the group ID.

The same host can also run a classic :class:`repro.dns.server.AuthoritativeServer`
next to this one to support the incremental-deployment story of §4.5; the
topology helpers in :mod:`repro.experiments` do exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.core.encapsulation import encapsulate_response
from repro.core.mapping import DnsQuestionKey, no_such_track
from repro.core.errors import MappingError
from repro.core.subscribing import AnswerMemo
from repro.dns.message import Flags, Header, Message
from repro.dns.name import Name
from repro.dns.rdata import CNAMERdata, NSRdata
from repro.dns.types import MOQT_PORT, RecordType
from repro.dns.zone import LookupResult, Zone, ZoneChange, find_zone
from repro.moqt.messages import Fetch, Subscribe
from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.session import (
    MOQT_ALPN,
    FetchResult,
    MoqtSession,
    PublisherSubscription,
    SubscribeResult,
    publish_to,
)
from repro.moqt.track import FullTrackName
from repro.netsim.node import Host
from repro.netsim.packet import Address
from repro.quic.connection import QuicConnection
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

_BY_ORDER = attrgetter("order")


@dataclass(slots=True, eq=False)
class _TrackSubscribers:
    """Server-side bookkeeping for one subscribed DNS track.

    A track exists while it has at least one subscriber.  ``order`` is its
    creation sequence number (tracks touched by one zone change publish in
    creation order); ``zone`` is the governing zone; ``current`` is the
    encapsulated answer last computed (first SUBSCRIBE) or published, or
    ``None`` after a re-answer that published nothing; ``subscribers`` holds
    the sessions' own records in subscribe order, which is the push order;
    ``watched`` holds the owner names the last answer could have read, which is
    where the track is filed in the server's watcher index.
    """

    key: DnsQuestionKey
    order: int
    zone: Zone
    current: MoqtObject | None = None
    subscribers: list[PublisherSubscription] = field(default_factory=list)
    last_answer_fingerprint: tuple[str, ...] | None = None
    watched: tuple[Name, ...] = ()


def _watched_names(key: DnsQuestionKey, zone: Zone, response: Message) -> tuple[Name, ...]:
    """The owner names whose change can alter ``zone``'s answer to ``key``.

    ``Zone.lookup`` reads the QNAME and each ancestor up to the zone origin
    (exact match, name existence, delegation NS sets, and ``*.ancestor``
    wildcards, which :meth:`MoqAuthoritativeServer._watching` finds through the
    ancestor), then the names it was sent to by the records it found: CNAME
    targets and the glue of NS targets.  Every owner name in the response is
    one of those.
    """
    names = [key.qname]
    name = key.qname
    for _ in range(len(name) - len(zone.origin)):
        name = name.parent()
        names.append(name)
    names[-1] = zone.origin  # equal; share the zone's instance
    for record in response.records():
        rdata = record.rdata
        if isinstance(rdata, (NSRdata, CNAMERdata)) and rdata.target not in names:
            names.append(rdata.target)
    return tuple(names)


@dataclass
class AuthServerStatistics:
    """Counters kept by the MoQT authoritative server."""

    sessions_accepted: int = 0
    subscribes_accepted: int = 0
    subscribes_rejected: int = 0
    fetches_served: int = 0
    fetches_rejected: int = 0
    updates_published: int = 0
    update_bytes_published: int = 0
    zone_changes_seen: int = 0
    tracks_evaluated: int = 0  # tracks re-answered by zone changes (and add_zone)


class MoqAuthoritativeServer:
    """Serves DNS zones over MoQT with push updates.

    Parameters
    ----------
    host:
        The simulated host to run on.
    zones:
        Zones to serve; each zone's SOA serial is used as the MoQT group ID
        for updates to records in that zone.
    port:
        QUIC/MoQT port (4443 by default).
    """

    def __init__(
        self,
        host: Host,
        zones: list[Zone],
        port: int = MOQT_PORT,
    ) -> None:
        self.host = host
        self.simulator = host.simulator
        self.statistics = AuthServerStatistics()
        # Track names are parsed through the simulation's decode memo.
        self._decodes = AnswerMemo(self.simulator)
        self._zones: dict[Name, Zone] = {}
        self._tracks: dict[DnsQuestionKey, _TrackSubscribers] = {}
        self._tracks_created = 0
        # Owner name -> the tracks watching it.
        self._watchers: dict[Name, list[_TrackSubscribers]] = {}
        self._sessions: list[MoqtSession] = []
        self.endpoint = QuicEndpoint(
            host,
            port=port,
            server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
            on_connection=self._on_connection,
        )
        for zone in zones or []:
            self.add_zone(zone)

    @property
    def address(self) -> Address:
        """The MoQT address resolvers connect to."""
        return self.endpoint.address

    # -------------------------------------------------------------------- zones
    def add_zone(self, zone: Zone) -> None:
        """Serve a zone and react to its future changes.

        Subscribed tracks at or below the new origin were answered from a less
        specific zone until now, so they watch the origin as an ancestor; they
        are re-answered from the new zone (and pushed if the answer differs).
        """
        self._zones[zone.origin] = zone
        zone.subscribe_changes(self._on_zone_change)
        self._reanswer(self._watching(zone.origin))

    def zone_for(self, qname: Name) -> Zone | None:
        """The most specific zone containing ``qname``."""
        return find_zone(self._zones, qname)

    def zones(self) -> list[Zone]:
        """All zones served."""
        return list(self._zones.values())

    # ----------------------------------------------------------------- sessions
    def _on_connection(self, connection: QuicConnection) -> None:
        session = MoqtSession(
            connection,
            is_client=False,
            publisher_delegate=self,
        )
        self._sessions.append(session)
        self.statistics.sessions_accepted += 1

    def sessions(self) -> list[MoqtSession]:
        """All MoQT sessions accepted so far."""
        return list(self._sessions)

    def subscriber_count(self) -> int:
        """Total number of live downstream subscriptions across all tracks."""
        return sum(len(track.subscribers) for track in self._tracks.values())

    def state_summary(self) -> dict[str, int]:
        """State-overhead accounting (§5.1): what push costs the server to hold."""
        return {
            "zones": len(self._zones),
            "tracks": len(self._tracks),
            "subscribers": self.subscriber_count(),
            "watched_names": len(self._watchers),
        }

    # ------------------------------------------------------------ DNS answering
    def answer_question(self, key: DnsQuestionKey) -> tuple[Message, Zone] | None:
        """Build the authoritative response for a question key.

        Returns ``None`` when no served zone covers the name.
        """
        zone = self.zone_for(key.qname)
        if zone is None:
            return None
        result = zone.lookup(key.qname, key.qtype)
        response = self._result_to_message(key, result)
        return response, zone

    def _result_to_message(self, key: DnsQuestionKey, result: LookupResult) -> Message:
        flags = Flags(qr=True, aa=not result.is_referral, rd=key.recursion_desired,
                      cd=key.checking_disabled)
        header = Header(message_id=0, flags=flags, opcode=key.opcode, rcode=result.rcode)
        return Message(
            header=header,
            questions=(key.to_question(),),
            answers=result.answers,
            authorities=result.authorities,
            additionals=result.additionals,
        )

    @staticmethod
    def _fingerprint(message: Message) -> tuple[str, ...]:
        """A content fingerprint of a response, ignoring the version/serial.

        SOA records are excluded because bumping the serial alone must not
        count as a record change (the paper pushes updates only for changed
        answers).
        """
        lines = [
            record.to_text()
            for record in message.records()
            if record.rdtype != RecordType.SOA
        ]
        lines.append(f"rcode={int(message.rcode)}")
        return tuple(sorted(lines))

    # ------------------------------------------------------------- subscriptions
    def handle_subscribe(
        self, session: MoqtSession, message: Subscribe
    ) -> SubscribeResult | None:
        """Accept subscriptions for questions inside the served zones.

        Only a rejection is returned; an accepted SUBSCRIBE is answered here,
        which is how the server gets the session's record to file.
        """
        try:
            key = self._decodes.question(message.full_track_name)
        except MappingError as error:
            self.statistics.subscribes_rejected += 1
            return no_such_track(SubscribeResult, error)
        state = self._tracks.get(key)
        if state is None:
            answer = self.answer_question(key)
            if answer is None:
                self.statistics.subscribes_rejected += 1
                return no_such_track(SubscribeResult, f"not authoritative for {key.qname}")
            response, zone = answer
            state = _TrackSubscribers(
                key, self._tracks_created, zone, encapsulate_response(response, zone.serial)
            )
            self._tracks_created += 1
            self._tracks[key] = state
            state.last_answer_fingerprint = self._fingerprint(response)
            self._watch(state, _watched_names(key, zone, response))
        subscription = session.complete_subscribe(
            message.request_id, SubscribeResult(ok=True, largest=Location(state.zone.serial, 0))
        )
        subscription.owner = state
        state.subscribers.append(subscription)
        self.statistics.subscribes_accepted += 1
        return None

    def handle_subscription_ended(
        self, session: MoqtSession, subscription: PublisherSubscription
    ) -> None:
        """Forget a subscriber that sent UNSUBSCRIBE or whose session closed."""
        state = subscription.owner
        state.subscribers.remove(subscription)
        if not state.subscribers:
            del self._tracks[state.key]
            self._watch(state, ())

    # ------------------------------------------------------------ watcher index
    def _watch(self, state: _TrackSubscribers, names: tuple[Name, ...]) -> None:
        """File ``state`` under ``names`` in the watcher index (and nowhere else)."""
        old = state.watched
        if names == old:
            return
        watchers = self._watchers
        for name in old:
            if name not in names:
                bucket = watchers[name]
                bucket.remove(state)
                if not bucket:
                    del watchers[name]
        for name in names:
            if name not in old:
                watchers.setdefault(name, []).append(state)
        state.watched = names

    def _watching(self, name: Name) -> list[_TrackSubscribers]:
        """The tracks whose answer can read owner ``name``, in creation order.

        A wildcard owner ``*.X`` is also read by every track at or below ``X``
        — they all watch ``X`` — so wildcards are never filed themselves.
        """
        tracks = self._watchers.get(name, ())
        if name.labels[:1] == (b"*",):
            tracks = {*tracks, *self._watchers.get(name.parent(), ())}
        return sorted(tracks, key=_BY_ORDER)

    def handle_fetch(
        self, session: MoqtSession, message: Fetch, full_track_name: FullTrackName | None
    ) -> FetchResult:
        """Answer a (joining) fetch with the current version of the record.

        A subscribed track's ``current`` object is that version while its
        group ID is the zone's serial (``docs/dns-push.md``).
        """
        try:
            key = self._decodes.question(full_track_name)
        except MappingError as error:
            self.statistics.fetches_rejected += 1
            return no_such_track(FetchResult, error)
        state = self._tracks.get(key)
        obj = None if state is None else state.current
        if obj is None or obj.group_id != state.zone.serial:
            answer = self.answer_question(key)
            if answer is None:
                self.statistics.fetches_rejected += 1
                return no_such_track(FetchResult, f"not authoritative for {key.qname}")
            response, zone = answer
            obj = encapsulate_response(response, zone.serial)
        self.statistics.fetches_served += 1
        return FetchResult(ok=True, objects=[obj], largest=obj.location)

    # ------------------------------------------------------------ push updates
    def _on_zone_change(self, change: ZoneChange) -> None:
        """React to a zone mutation: push new objects for affected tracks."""
        self.statistics.zone_changes_seen += 1
        self._reanswer(self._watching(change.name))

    def _reanswer(self, states: list[_TrackSubscribers]) -> None:
        """Regenerate each track's answer; publish the ones that changed.

        A track that publishes nothing drops ``current``: its bytes may differ
        from the new answer's (record order, a SOA) though the fingerprint
        does not.
        """
        for state in states:
            if not state.subscribers:
                continue  # dropped while an earlier track was being published
            answer = self.answer_question(state.key)
            if answer is None:
                continue
            response, zone = answer
            state.zone = zone
            state.current = None
            self.statistics.tracks_evaluated += 1
            self._watch(state, _watched_names(state.key, zone, response))
            fingerprint = self._fingerprint(response)
            if fingerprint == state.last_answer_fingerprint:
                continue
            state.last_answer_fingerprint = fingerprint
            self._publish_update(state, response)

    def _publish_update(self, state: _TrackSubscribers, response: Message) -> None:
        """Push ``response`` under ``state.zone``'s serial; it becomes ``current``."""
        obj = state.current = encapsulate_response(response, state.zone.serial)
        published = publish_to(state.subscribers, obj)
        self.statistics.updates_published += published
        self.statistics.update_bytes_published += published * obj.size
