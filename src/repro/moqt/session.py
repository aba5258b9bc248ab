"""The MoQT session: setup handshake, subscriptions, fetches and publishing.

A :class:`MoqtSession` runs on top of one :class:`~repro.quic.connection.QuicConnection`.
The client opens the bidirectional control stream and sends ``CLIENT_SETUP``;
the server answers with ``SERVER_SETUP``.  Only then may requests be issued —
this is the extra round trip the paper's §5.2 attributes to MoQT session
establishment.  A client session built with
``alpn_version_negotiation=True`` models the future
optimisation the paper mentions (version negotiation moved into the QUIC/TLS
ALPN), which lets the client send requests immediately after the QUIC
handshake (or in 0-RTT data).

Both endpoints of a session can act as publisher and subscriber:

* the *subscriber* API is :meth:`MoqtSession.subscribe`,
  :meth:`MoqtSession.fetch` (standalone) and :meth:`MoqtSession.joining_fetch`;
* the *publisher* API is a :class:`PublisherDelegate` that decides how to
  answer SUBSCRIBE/FETCH, plus :meth:`MoqtSession.publish` to push objects to
  an accepted subscription.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

from repro.moqt.datastream import (
    FetchStreamHeader,
    SubgroupStreamHeader,
    decode_complete_datastream,
    encode_fetch_object,
    encode_subgroup_stream_chunk,
)
from repro.moqt.errors import (
    FetchErrorCode,
    ProtocolViolation,
    SessionErrorCode,
    SessionTerminated,
    SubscribeErrorCode,
)
from repro.moqt.messages import (
    Announce,
    AnnounceOk,
    CLIENT_SETUP_WIRE,
    ClientSetup,
    ControlMessage,
    ControlStreamParser,
    Fetch,
    FetchCancel,
    FetchError,
    FetchOk,
    FetchType,
    Goaway,
    MaxRequestId,
    MOQT_VERSION_DRAFT_12,
    SERVER_SETUP_WIRE,
    ServerSetup,
    Subscribe,
    SubscribeDone,
    SubscribeError,
    SubscribeOk,
    Unsubscribe,
)
from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.track import FullTrackName
from repro.netsim.table import SmallTable
from repro.quic.connection import QuicConnection
from repro.quic.stream import QuicStream
from repro.quic.tls import MOQT_ALPN  # noqa: F401 - re-exported for the MoQT layers


@dataclass
class SubscribeResult:
    """Publisher delegate's answer to a SUBSCRIBE.

    ``retry_after_ms`` only matters on the rejection path: a non-zero value
    rides the SUBSCRIBE_ERROR as an admission-control hint telling the
    subscriber how long to back off before retrying.
    """

    ok: bool
    largest: Location | None = None
    expires_ms: int = 0
    error_code: SubscribeErrorCode = SubscribeErrorCode.INTERNAL_ERROR
    reason: str = ""
    retry_after_ms: int = 0


@dataclass
class FetchResult:
    """Publisher delegate's answer to a FETCH."""

    ok: bool
    objects: list[MoqtObject] = field(default_factory=list)
    largest: Location | None = None
    error_code: FetchErrorCode = FetchErrorCode.INTERNAL_ERROR
    reason: str = ""


class PublisherDelegate(Protocol):
    """The application-side publisher logic attached to a session.

    Both handlers may answer immediately by returning a result, or defer by
    returning ``None`` and later calling
    :meth:`MoqtSession.complete_subscribe` /
    :meth:`MoqtSession.complete_fetch` with the same request ID.  Deferral is
    how the recursive resolver answers a stub's FETCH only after it has
    itself subscribed and fetched upstream (Fig. 2 of the paper).
    """

    def handle_subscribe(
        self, session: "MoqtSession", message: Subscribe
    ) -> SubscribeResult | None:
        """Decide whether to accept a subscription (or ``None`` to defer)."""

    def handle_fetch(
        self,
        session: "MoqtSession",
        message: Fetch,
        full_track_name: FullTrackName | None,
    ) -> FetchResult | None:
        """Produce the objects for a fetch (``full_track_name`` resolved for
        joining fetches), or ``None`` to defer."""

    # Delegates may additionally implement
    # ``handle_subscription_ended(session, subscription)``.  When present it
    # is invoked exactly once for every SUBSCRIBE the delegate did not
    # reject, when the subscriber sends UNSUBSCRIBE or the session closes
    # (``session.closed`` tells the two apart).  ``subscription`` is the
    # :class:`PublisherSubscription` that :meth:`MoqtSession.complete_subscribe`
    # returned; if the delegate was still deferring its answer there is no
    # record yet and the :class:`Subscribe` message itself is handed over.
    # This is where a publisher takes the record out of its per-track list
    # and an aggregating one (a relay) propagates the teardown upstream
    # (§5.1 state clean-up); see ``docs/publishers.md``.


@dataclass(slots=True, eq=False)
class Subscription:
    """Subscriber-side state of one subscription."""

    request_id: int
    track_alias: int
    full_track_name: FullTrackName
    on_object: Callable[[MoqtObject], None] | None = None
    #: One-shot: the session drops it before calling it with the SUBSCRIBE_OK
    #: or SUBSCRIBE_ERROR, so what it closes over (a failover record, a
    #: relay's waiters) is not kept for the subscription's whole life.
    on_response: Callable[["Subscription"], None] | None = None
    state: str = "pending"
    largest: Location | None = None
    error_code: int = 0
    error_reason: str = ""
    retry_after_ms: int = 0
    created_at: float = 0.0
    responded_at: float | None = None
    objects_received: int = 0

    @property
    def is_active(self) -> bool:
        """Whether the publisher accepted the subscription."""
        return self.state == "active"


@dataclass(slots=True)
class FetchRequest:
    """Subscriber-side state of one fetch."""

    request_id: int
    full_track_name: FullTrackName | None
    on_complete: Callable[["FetchRequest"], None]
    state: str = "pending"
    objects: list[MoqtObject] = field(default_factory=list)
    largest: Location | None = None
    error_code: int = 0
    error_reason: str = ""
    responded_at: float | None = None
    stream_finished: bool = False
    ok_received: bool = False

    @property
    def succeeded(self) -> bool:
        """Whether the fetch completed successfully."""
        return self.state == "complete"


@dataclass(slots=True, eq=False)
class PublisherSubscription:
    """Publisher-side state of an accepted downstream subscription.

    The only record of it anywhere: the session files it by request ID, the
    publisher that accepted it files the same object by track and fans out
    with :func:`publish_to`.
    """

    request_id: int
    track_alias: int
    full_track_name: FullTrackName
    subscriber_priority: int = 128
    forward: bool = True
    objects_sent: int = 0
    session: "MoqtSession | None" = None
    #: The publisher's own per-track state this record is filed in, so the
    #: end-of-subscription notification needs no lookup.  The session never
    #: reads it.
    owner: object = None


@dataclass(slots=True)
class SessionStatistics:
    """Counters kept by a session."""

    control_messages_sent: int = 0
    control_messages_received: int = 0
    objects_sent: int = 0
    objects_received: int = 0
    object_bytes_received: int = 0


class _UnusedTable(dict):
    """The table of a role a session has not played: one shared empty mapping.

    A subscriber's session never files a downstream subscription and a
    relay's downstream session never subscribes, so those tables all start
    as :data:`_UNUSED`.  Every read (``get``, ``pop(key, None)``,
    ``values``, ``clear``, ``in``, ``len``) is what it would be on an empty
    dict, so no reader knows the difference;
    the insert sites install a table of the session's own first (a dict, or
    a :class:`~repro.netsim.table.SmallTable`), and a write that forgot to
    is refused instead of leaking into every other session.
    """

    __slots__ = ()

    def _refuse(self, *args: object, **kwargs: object) -> None:
        raise TypeError("the shared empty table is read-only: install a table first")

    __setitem__ = setdefault = update = __ior__ = _refuse


_UNUSED = _UnusedTable()


class MoqtSession:
    """One endpoint of a MoQT session over a QUIC connection.

    Slotted: the macro-scale runs hold one session per subscriber per side,
    so per-instance dict overhead is paid 2×10⁵ times at 100k subscribers.
    """

    __slots__ = (
        "connection",
        "is_client",
        "publisher_delegate",
        "on_closed",
        "on_liveness",
        "statistics",
        "_simulator",
        "ready",
        "goaway_uri",
        "closed",
        "_control_parser",
        "_decoded_streams",
        "_control_stream",
        "_next_request_id",
        "_next_peer_request_id",
        "_next_track_alias",
        "_subscriptions",
        "_subscriptions_by_alias",
        "_fetches",
        "_pending_until_ready",
        "_publisher_subscriptions",
        "_pending_incoming_subscribes",
        "_pending_incoming_fetches",
    )

    def __init__(
        self,
        connection: QuicConnection,
        *,
        is_client: bool,
        alpn_version_negotiation: bool = False,
        publisher_delegate: PublisherDelegate | None = None,
        on_closed: Callable[["MoqtSession", str], None] | None = None,
        on_liveness: Callable[["MoqtSession", str, str], None] | None = None,
    ) -> None:
        self.connection = connection
        self.is_client = is_client
        self.publisher_delegate = publisher_delegate
        self.on_closed = on_closed
        #: Observer of the transport's in-band liveness transitions
        #: (``on_liveness(session, old_state, new_state)``); see
        #: :meth:`repro.quic.connection.ConnectionDelegate.liveness_changed`.  May be
        #: (re)assigned after construction — transitions are only ever
        #: delivered from inside the event loop.
        self.on_liveness = on_liveness
        self.statistics = SessionStatistics()
        self._simulator = connection._simulator  # noqa: SLF001 - same package family

        self.ready = False
        self.goaway_uri: str | None = None
        self.closed = False

        # The simulation's decode memo (``docs/dns-codec.md``), one table per kind.
        self._control_parser = ControlStreamParser(self._simulator.memos["moqt.control"])
        self._decoded_streams = self._simulator.memos["moqt.stream"]
        #: The connection's one bidirectional stream, stream 0.
        self._control_stream: QuicStream | None = None
        self._next_request_id = 0 if is_client else 1
        #: The request ID the peer's next SUBSCRIBE or FETCH must carry: the
        #: other parity, in steps of two (what its ``_allocate_request_id``
        #: hands out).
        self._next_peer_request_id = 1 if is_client else 0
        self._next_track_alias = 1

        # Every table below is the session's own once its role is played (see
        # :class:`_UnusedTable`): a dict, or a ``SmallTable`` where a session
        # usually files one entry; reads never ask which.
        # Subscriber-side state.
        self._subscriptions: SmallTable[int, Subscription] = _UNUSED
        self._subscriptions_by_alias: SmallTable[int, Subscription] = _UNUSED
        self._fetches: dict[int, FetchRequest] = _UNUSED
        #: Encoded requests issued before the session was ready, in order;
        #: ``()`` once SETUP has made it ready (or it closed before).
        self._pending_until_ready: list[bytes] | tuple[()] = []

        # Publisher-side state.
        self._publisher_subscriptions: SmallTable[int, PublisherSubscription] = _UNUSED
        self._pending_incoming_subscribes: dict[int, Subscribe] = _UNUSED
        self._pending_incoming_fetches: dict[int, Fetch] = _UNUSED

        # The connection reports to the session itself (ConnectionDelegate).
        connection.delegate = self

        if is_client:
            self._start_client(alpn_version_negotiation)
        # The server side waits for the client's control stream.

    # ----------------------------------------------------------------- setup
    def _start_client(self, alpn_version_negotiation: bool) -> None:
        self._control_stream = self.connection.open_stream()
        self._send_control(CLIENT_SETUP_WIRE)
        if alpn_version_negotiation:
            # Future MoQT: the version is negotiated in ALPN, so the client
            # may send requests without waiting for SERVER_SETUP.
            self._mark_ready()

    def _mark_ready(self) -> None:
        if self.ready:
            return
        self.ready = True
        pending, self._pending_until_ready = self._pending_until_ready, ()
        for wire in pending:
            self._send_control(wire)

    # --------------------------------------------------------------- plumbing
    def _require_open(self) -> None:
        if self.closed:
            raise SessionTerminated("session is closed")

    def _allocate_request_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id += 2
        return request_id

    def _send_control(self, wire: bytes) -> None:
        """Send one encoded control message (``message.encode()``)."""
        if self.closed:
            raise SessionTerminated("session is closed")
        if self._control_stream is None:
            # Server side: the client's stream 0, which its SETUP came on.
            self._control_stream = self.connection.open_stream()
        self.statistics.control_messages_sent += 1
        self.connection.send_stream_data(self._control_stream, wire)

    def _send_request(self, wire: bytes) -> None:
        """Send an encoded request, or queue it until the session is ready."""
        if self.ready:
            self._send_control(wire)
        else:
            self._pending_until_ready.append(wire)

    # ------------------------------------------------------------- subscriber
    def subscribe(
        self,
        full_track_name: FullTrackName,
        on_object: Callable[[MoqtObject], None] | None = None,
        on_response: Callable[[Subscription], None] | None = None,
    ) -> Subscription:
        """Subscribe to future objects of a track, from the latest object on,
        at the default priority.

        The SUBSCRIBE message is sent once the session is ready; callbacks
        fire when the publisher answers and whenever an object arrives.
        """
        self._require_open()
        request_id = self._allocate_request_id()
        track_alias = self._next_track_alias
        self._next_track_alias += 1
        subscription = Subscription(
            request_id=request_id,
            track_alias=track_alias,
            full_track_name=full_track_name,
            on_object=on_object,
            on_response=on_response,
            created_at=self._simulator.now,
        )
        if self._subscriptions is _UNUSED:
            self._subscriptions = SmallTable()
            self._subscriptions_by_alias = SmallTable()
        self._subscriptions[request_id] = subscription
        self._subscriptions_by_alias[track_alias] = subscription
        message = Subscribe(
            request_id=request_id,
            track_alias=track_alias,
            full_track_name=full_track_name,
        )
        self._send_request(message.encode())
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Tear down a subscription (§4.4 clean-up).

        The subscription is dropped from the session's routing maps
        immediately: late in-flight objects for the dead track alias are
        discarded, and long-lived sessions that churn through
        subscribe/unsubscribe cycles (a relay's upstream session) do not
        accumulate dead entries — the §5.1 state argument depends on this.
        """
        self._require_open()
        if subscription.request_id not in self._subscriptions:
            return
        subscription.state = "done"
        self._subscriptions.pop(subscription.request_id, None)
        self._subscriptions_by_alias.pop(subscription.track_alias, None)
        self._send_request(Unsubscribe(subscription.request_id).encode())

    def fetch(
        self,
        full_track_name: FullTrackName,
        start: Location,
        end: Location,
        on_complete: Callable[[FetchRequest], None],
    ) -> FetchRequest:
        """Standalone fetch of an absolute object range."""
        self._require_open()
        request_id = self._allocate_request_id()
        fetch_request = FetchRequest(
            request_id=request_id,
            full_track_name=full_track_name,
            on_complete=on_complete,
        )
        if self._fetches is _UNUSED:
            self._fetches = {}
        self._fetches[request_id] = fetch_request
        message = Fetch(
            request_id=request_id,
            fetch_type=FetchType.STANDALONE,
            full_track_name=full_track_name,
            start_group=start.group_id,
            start_object=start.object_id,
            end_group=end.group_id,
            end_object=end.object_id,
        )
        self._send_request(message.encode())
        return fetch_request

    def joining_fetch(
        self,
        subscription: Subscription,
        on_complete: Callable[[FetchRequest], None],
    ) -> FetchRequest:
        """Relative joining fetch: objects starting one group before the
        subscription's start (§4.1: the current record version)."""
        self._require_open()
        request_id = self._allocate_request_id()
        fetch_request = FetchRequest(
            request_id=request_id,
            full_track_name=subscription.full_track_name,
            on_complete=on_complete,
        )
        if self._fetches is _UNUSED:
            self._fetches = {}
        self._fetches[request_id] = fetch_request
        message = Fetch(
            request_id=request_id,
            fetch_type=FetchType.RELATIVE_JOINING,
            joining_request_id=subscription.request_id,
            joining_start=1,
        )
        self._send_request(message.encode())
        return fetch_request

    def subscriptions(self) -> list[Subscription]:
        """All subscriber-side subscriptions."""
        return list(self._subscriptions.values())

    # -------------------------------------------------------------- publisher
    def publisher_subscriptions(self) -> list[PublisherSubscription]:
        """All downstream subscriptions accepted by this session."""
        return list(self._publisher_subscriptions.values())

    def publish(
        self,
        subscription: PublisherSubscription,
        obj: MoqtObject,
        encoded: dict[int, bytes] | None = None,
    ) -> None:
        """Push one object to a downstream subscription.

        The paper's prototype sends every object on its own unidirectional
        stream (one group per stream, streams not datagrams, §4.1).

        ``encoded`` is the memo :func:`publish_to` shares across one fan-out
        of ``obj``: the payload is serialised once per track alias instead of
        once per subscriber — subscribers overwhelmingly share one alias, so
        a relay encodes each object once for its whole tier.  The memo holds
        wire payloads and must not outlive the object.  Wire bytes are
        identical with or without it.
        """
        # The closed check and the payload size are inline: this runs once
        # per subscriber per object.
        if self.closed:
            raise SessionTerminated("session is closed")
        if not subscription.forward:
            return
        self.statistics.objects_sent += 1
        subscription.objects_sent += 1
        alias = subscription.track_alias
        payload = encoded.get(alias) if encoded is not None else None
        if payload is None:
            payload = encode_subgroup_stream_chunk(alias, obj)
            if encoded is not None:
                encoded[alias] = payload
        self.connection.send_encoded_stream(payload)

    def _send_fetch_objects(self, request_id: int, objects: list[MoqtObject]) -> None:
        payload = FetchStreamHeader(request_id=request_id).encode()
        for obj in objects:
            payload += encode_fetch_object(obj)
            self.statistics.objects_sent += 1
        self.connection.send_encoded_stream(payload)

    # ------------------------------------------------------------- goaway/close
    def goaway(self, new_session_uri: str = "") -> None:
        """Ask the peer to migrate to a different session."""
        self._send_control(Goaway(new_session_uri).encode())

    def close(self, reason: str = "") -> None:
        """Close the session and the underlying connection."""
        if self.closed:
            return
        if self.connection.closed:
            self.connection_closed(0, reason)
        else:
            # Comes back through the delegate's connection_closed.
            self.connection.close(reason=reason)

    def _protocol_violation(self, error: ProtocolViolation) -> None:
        """The one way malformed or out-of-order peer input ends a session.

        Every decoder raises :class:`ProtocolViolation` and nothing else, and
        so do the session's own checks of what the peer sent; whatever the
        session was handed with the offending bytes is discarded with it.
        Peer input arrives only on an open connection, so this always closes
        it, and the close comes back through :meth:`connection_closed`.
        """
        self.connection.close(SessionErrorCode.PROTOCOL_VIOLATION, str(error))

    # ------------------------------------------------- the connection's delegate
    # The session is its connection's ConnectionDelegate: the connection
    # calls these two and, under dispatch below, ``stream_data_received`` on
    # the session itself.
    def connection_closed(self, code: int, reason: str) -> None:
        """The transport closed (announced, detected or local)."""
        if self.closed:
            return
        self.closed = True
        self._pending_until_ready = ()
        self._fail_pending_fetches(reason)
        # Everything the publisher side still held ends with the session:
        # deferred SUBSCRIBEs first, then accepted ones, each in arrival
        # order.  The tables are emptied before anyone is told, so a closed
        # session keeps nothing reachable however long its owner keeps it.
        ended = (
            *self._pending_incoming_subscribes.values(),
            *self._publisher_subscriptions.values(),
        )
        self._pending_incoming_subscribes.clear()
        self._publisher_subscriptions.clear()
        self._pending_incoming_fetches.clear()
        for subscription in ended:
            self._subscription_ended(subscription)
        if self.on_closed is not None:
            self.on_closed(self, reason)

    @property
    def liveness(self) -> str:
        """The transport's in-band liveness state (healthy/suspect/dead)."""
        return self.connection.liveness

    def liveness_changed(self, old: str, new: str) -> None:
        """Surface transport-detected liveness transitions to ``on_liveness``.

        Fires *before* any close teardown: a ``dead`` observer (a relay
        failing over its uplink, E13) reacts while subscriptions and pending
        requests are still intact, so it can transplant them instead of
        watching them error.
        """
        if self.on_liveness is not None:
            self.on_liveness(self, old, new)

    def _fail_pending_fetches(self, reason: str) -> None:
        """Error every fetch still in flight when the session dies.

        A fetch whose transport is gone can never complete, so callers
        waiting on ``on_complete`` — a relay that forwarded a downstream
        FETCH over this (upstream) session, the forwarder's lookup path —
        would otherwise hang forever.  Failing them here turns a dead
        session into an ordinary fetch error the existing error paths
        already handle.
        """
        pending = list(self._fetches.values())
        self._fetches.clear()
        message = f"session closed: {reason}" if reason else "session closed"
        for fetch_request in pending:
            fetch_request.state = "error"
            fetch_request.responded_at = self._simulator.now
            fetch_request.error_code = int(FetchErrorCode.INTERNAL_ERROR)
            fetch_request.error_reason = message
            fetch_request.on_complete(fetch_request)

    # --------------------------------------------------------------- dispatch
    def stream_data_received(self, stream_id: int, data: bytes, fin: bool) -> None:
        """Contiguous bytes of one stream, ``fin`` once it is complete.

        A malformed message or data stream closes the session
        (:meth:`_protocol_violation`).
        """
        try:
            if stream_id == 0:
                for message in self._control_parser.feed(data):
                    if self.closed:
                        # An earlier message of this chunk ended the session (no
                        # common version); a delegate never sees a closed one.
                        return
                    self._handle_control_message(message)
                return
            # Any other stream is a data stream, which arrives whole: one
            # offset-0 FIN frame (the connection closes on any other shape,
            # and on any bidirectional stream but stream 0).  Sibling
            # subscribers of a fan-out receive byte-identical payloads.
            memo = self._decoded_streams
            decoded = memo.get(data) or memo.keep(data, decode_complete_datastream(data))
        except ProtocolViolation as error:
            self._protocol_violation(error)
            return
        header, objects = decoded
        if isinstance(header, SubgroupStreamHeader):
            track_alias = header.track_alias
            for obj in objects:
                self._deliver_subscribed_object(track_alias, obj)
        else:
            self._deliver_fetch_objects(header.request_id, objects)

    def _deliver_subscribed_object(self, track_alias: int, obj: MoqtObject) -> None:
        subscription = self._subscriptions_by_alias.get(track_alias)
        if subscription is None:
            return
        statistics = self.statistics
        statistics.objects_received += 1
        statistics.object_bytes_received += len(obj.payload)
        subscription.objects_received += 1
        location = obj.location
        if subscription.largest is None or location > subscription.largest:
            subscription.largest = location
        if subscription.on_object is not None:
            # A followed track's TrackReceiver itself: hold-back, dedupe
            # and the sink in one call.
            subscription.on_object(obj)

    def _deliver_fetch_objects(self, request_id: int, objects: tuple[MoqtObject, ...]) -> None:
        fetch_request = self._fetches.get(request_id)
        if fetch_request is None:
            return
        for obj in objects:
            self.statistics.objects_received += 1
            self.statistics.object_bytes_received += obj.size
            fetch_request.objects.append(obj)
            if fetch_request.largest is None or obj.location > fetch_request.largest:
                fetch_request.largest = obj.location
        fetch_request.stream_finished = True
        self._maybe_complete_fetch(fetch_request)

    def _maybe_complete_fetch(self, fetch_request: FetchRequest) -> None:
        if fetch_request.state == "complete":
            return
        if fetch_request.stream_finished and fetch_request.ok_received:
            fetch_request.state = "complete"
            # Out of the table before anyone is told: the objects and the
            # ``on_complete`` graph live as long as the caller keeps them.
            self._fetches.pop(fetch_request.request_id, None)
            fetch_request.on_complete(fetch_request)

    # ------------------------------------------------------- control handling
    def _handle_control_message(self, message: ControlMessage) -> None:
        self.statistics.control_messages_received += 1
        handler = _CONTROL_HANDLERS[type(message)]
        if handler is not None:
            handler(self, message)

    def _handle_announce(self, message: Announce) -> None:
        self._send_control(AnnounceOk(request_id=message.request_id).encode())

    def _handle_goaway(self, message: Goaway) -> None:
        self.goaway_uri = message.new_session_uri

    def _handle_client_setup(self, message: ClientSetup) -> None:
        if self.is_client:
            raise ProtocolViolation("client received CLIENT_SETUP")
        if MOQT_VERSION_DRAFT_12 not in message.supported_versions:
            self.close("no common MoQT version")
            return
        self._send_control(SERVER_SETUP_WIRE)
        self._mark_ready()

    def _handle_server_setup(self, message: ServerSetup) -> None:
        if not self.is_client:
            raise ProtocolViolation("server received SERVER_SETUP")
        self._mark_ready()

    # Publisher side of SUBSCRIBE / FETCH --------------------------------------
    def _take_peer_request_id(self, request_id: int) -> None:
        """A SUBSCRIBE or FETCH must carry the peer's next request ID: wrong
        parity, a reused ID or a skipped one is a protocol violation."""
        if request_id != self._next_peer_request_id:
            raise ProtocolViolation(f"request ID {request_id}, expected {self._next_peer_request_id}")
        self._next_peer_request_id += 2

    def _handle_subscribe(self, message: Subscribe) -> None:
        self._take_peer_request_id(message.request_id)
        if self.publisher_delegate is None:
            self._send_control(
                SubscribeError(
                    request_id=message.request_id,
                    error_code=int(SubscribeErrorCode.NOT_SUPPORTED),
                    reason="no publisher attached",
                    track_alias=message.track_alias,
                ).encode()
            )
            return
        if self._pending_incoming_subscribes is _UNUSED:
            self._pending_incoming_subscribes = {}
        self._pending_incoming_subscribes[message.request_id] = message
        result = self.publisher_delegate.handle_subscribe(self, message)
        if result is not None:
            self.complete_subscribe(message.request_id, result)

    def _take_pending_subscribe(self, request_id: int) -> Subscribe | None:
        """Pop a deferred SUBSCRIBE; the drained table is not kept.

        A dict never shrinks, and every downstream session defers exactly
        one SUBSCRIBE for an instant (between :meth:`_handle_subscribe` and
        the delegate's answer), so keeping the drained dict would cost each
        of them a table for good.
        """
        pending = self._pending_incoming_subscribes
        message = pending.pop(request_id, None)
        if message is not None and not pending:
            self._pending_incoming_subscribes = _UNUSED
        return message

    def complete_subscribe(self, request_id: int, result: SubscribeResult) -> PublisherSubscription | None:
        """Answer a (possibly deferred) incoming SUBSCRIBE.

        Returns the publisher-side subscription when the subscribe was
        accepted, so the caller can start publishing to it.
        """
        message = self._take_pending_subscribe(request_id)
        if message is None or self.closed:
            return None
        if not result.ok:
            self._send_control(
                SubscribeError(
                    request_id=message.request_id,
                    error_code=int(result.error_code),
                    reason=result.reason,
                    track_alias=message.track_alias,
                    retry_after_ms=result.retry_after_ms,
                ).encode()
            )
            return None
        publisher_subscription = PublisherSubscription(
            request_id=message.request_id,
            track_alias=message.track_alias,
            full_track_name=message.full_track_name,
            subscriber_priority=message.subscriber_priority,
            forward=message.forward,
            session=self,
        )
        if self._publisher_subscriptions is _UNUSED:
            self._publisher_subscriptions = SmallTable()
        self._publisher_subscriptions[message.request_id] = publisher_subscription
        self._send_control(
            SubscribeOk(
                request_id=message.request_id,
                expires_ms=result.expires_ms,
                content_exists=result.largest is not None,
                largest_group_id=result.largest.group_id if result.largest else 0,
                largest_object_id=result.largest.object_id if result.largest else 0,
            ).encode()
        )
        return publisher_subscription

    def _handle_fetch(self, message: Fetch) -> None:
        self._take_peer_request_id(message.request_id)
        if self.publisher_delegate is None:
            self._send_control(
                FetchError(
                    request_id=message.request_id,
                    error_code=int(FetchErrorCode.NOT_SUPPORTED),
                    reason="no publisher attached",
                ).encode()
            )
            return
        full_track_name = message.full_track_name
        if message.fetch_type != FetchType.STANDALONE:
            joined = self._publisher_subscriptions.get(message.joining_request_id)
            if joined is None:
                joined_pending = self._pending_incoming_subscribes.get(message.joining_request_id)
                if joined_pending is None:
                    self._send_control(
                        FetchError(
                            request_id=message.request_id,
                            error_code=int(FetchErrorCode.INVALID_RANGE),
                            reason="joining fetch references unknown subscription",
                        ).encode()
                    )
                    return
                full_track_name = joined_pending.full_track_name
            else:
                full_track_name = joined.full_track_name
        if self._pending_incoming_fetches is _UNUSED:
            self._pending_incoming_fetches = {}
        self._pending_incoming_fetches[message.request_id] = message
        result = self.publisher_delegate.handle_fetch(self, message, full_track_name)
        if result is not None:
            self.complete_fetch(message.request_id, result)

    def complete_fetch(self, request_id: int, result: FetchResult) -> None:
        """Answer a (possibly deferred) incoming FETCH.

        The drained table is not kept, for the reason
        :meth:`_take_pending_subscribe` gives.
        """
        pending = self._pending_incoming_fetches
        message = pending.pop(request_id, None)
        if message is not None and not pending:
            self._pending_incoming_fetches = _UNUSED
        if message is None or self.closed:
            return
        if not result.ok:
            self._send_control(
                FetchError(
                    request_id=message.request_id,
                    error_code=int(result.error_code),
                    reason=result.reason,
                ).encode()
            )
            return
        largest = result.largest
        if largest is None and result.objects:
            largest = max(obj.location for obj in result.objects)
        self._send_control(
            FetchOk(
                request_id=message.request_id,
                end_of_track=False,
                largest_group_id=largest.group_id if largest else 0,
                largest_object_id=largest.object_id if largest else 0,
            ).encode()
        )
        self._send_fetch_objects(message.request_id, result.objects)

    def _handle_unsubscribe(self, message: Unsubscribe) -> None:
        # The subscribe being unsubscribed may still be deferred (the
        # delegate has not answered yet).  Dropping the pending entry keeps a
        # late complete_subscribe from resurrecting the departed subscriber.
        ended = self._take_pending_subscribe(message.request_id)
        if ended is None:
            ended = self._publisher_subscriptions.pop(message.request_id, None)
            if ended is None:
                return
            self._send_control(
                SubscribeDone(
                    request_id=message.request_id,
                    status_code=0,
                    stream_count=ended.objects_sent,
                    reason="unsubscribed",
                ).encode()
            )
        self._subscription_ended(ended)

    def _subscription_ended(self, subscription: PublisherSubscription | Subscribe) -> None:
        handler = getattr(self.publisher_delegate, "handle_subscription_ended", None)
        if handler is not None:
            handler(self, subscription)

    # Subscriber side of responses ---------------------------------------------
    def _handle_subscribe_ok(self, message: SubscribeOk) -> None:
        subscription = self._subscriptions.get(message.request_id)
        if subscription is None:
            return
        subscription.state = "active"
        subscription.responded_at = self._simulator.now
        if message.content_exists:
            subscription.largest = Location(message.largest_group_id, message.largest_object_id)
        on_response = subscription.on_response
        if on_response is not None:
            subscription.on_response = None
            on_response(subscription)

    def _handle_subscribe_error(self, message: SubscribeError) -> None:
        subscription = self._subscriptions.get(message.request_id)
        if subscription is None:
            return
        subscription.state = "error"
        subscription.responded_at = self._simulator.now
        subscription.error_code = message.error_code
        subscription.error_reason = message.reason
        subscription.retry_after_ms = message.retry_after_ms
        # A rejected subscription is as dead as an unsubscribed one: drop it
        # from the routing maps so retry churn cannot accumulate state.
        self._subscriptions.pop(message.request_id, None)
        self._subscriptions_by_alias.pop(subscription.track_alias, None)
        on_response = subscription.on_response
        if on_response is not None:
            subscription.on_response = None
            on_response(subscription)

    def _handle_subscribe_done(self, message: SubscribeDone) -> None:
        subscription = self._subscriptions.get(message.request_id)
        if subscription is None:
            return
        subscription.state = "done"

    def _handle_fetch_ok(self, message: FetchOk) -> None:
        fetch_request = self._fetches.get(message.request_id)
        if fetch_request is None:
            return
        fetch_request.ok_received = True
        fetch_request.responded_at = self._simulator.now
        if fetch_request.state == "pending":
            fetch_request.state = "ok"
        if message.largest_group_id or message.largest_object_id:
            fetch_request.largest = Location(message.largest_group_id, message.largest_object_id)
        self._maybe_complete_fetch(fetch_request)

    def _handle_fetch_error(self, message: FetchError) -> None:
        fetch_request = self._fetches.pop(message.request_id, None)
        if fetch_request is None:
            return
        fetch_request.state = "error"
        fetch_request.responded_at = self._simulator.now
        fetch_request.error_code = message.error_code
        fetch_request.error_reason = message.reason
        fetch_request.on_complete(fetch_request)


#: What a session does with each control message the codec can produce, by
#: message class (``None``: nothing — FETCH_CANCEL arrives once the objects
#: have been sent, and nobody waits for ANNOUNCE_OK or MAX_REQUEST_ID).
_CONTROL_HANDLERS: dict[type[ControlMessage], Callable[[MoqtSession, ControlMessage], None] | None] = {
    ClientSetup: MoqtSession._handle_client_setup,
    ServerSetup: MoqtSession._handle_server_setup,
    Subscribe: MoqtSession._handle_subscribe,
    SubscribeOk: MoqtSession._handle_subscribe_ok,
    SubscribeError: MoqtSession._handle_subscribe_error,
    Unsubscribe: MoqtSession._handle_unsubscribe,
    SubscribeDone: MoqtSession._handle_subscribe_done,
    Fetch: MoqtSession._handle_fetch,
    FetchOk: MoqtSession._handle_fetch_ok,
    FetchError: MoqtSession._handle_fetch_error,
    FetchCancel: None,
    Announce: MoqtSession._handle_announce,
    AnnounceOk: None,
    MaxRequestId: None,
    Goaway: MoqtSession._handle_goaway,
}


def publish_to(subscriptions: Iterable[PublisherSubscription], obj: MoqtObject) -> int:
    """Fan one object out to ``subscriptions``, in order; the only fan-out loop.

    Every publisher (authoritative server, recursive resolver, relay, origin)
    hands its per-track list of records here.  Returns how many subscriptions
    the object was published to — those on an open session, ``forward=False``
    ones included — which is what the publishers' counters count.
    """
    encoded: dict[int, bytes] = {}
    published = 0
    # A snapshot: a publish that closes its session takes the session's
    # records out of the caller's list under us.  Closed sessions are skipped
    # rather than expected gone — a crashed node marks its sessions closed
    # without any callback running.
    for subscription in tuple(subscriptions):
        session = subscription.session
        if session.closed:
            continue
        session.publish(subscription, obj, encoded)
        published += 1
    return published
