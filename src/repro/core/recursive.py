"""The recursive DNS-over-MoQT resolver (Fig. 2 and §4/§5 of the paper).

The resolver keeps the recursive nature of DNS resolution but replaces
request/response with MoQT subscribe + joining-fetch at every level of the
hierarchy:

1. Ask a root server for the nameservers of the top-level domain by
   subscribing to the ``NS`` track of the TLD and fetching the current
   version.
2. Follow the referral: ask the TLD server for the nameservers of the
   second-level zone the same way.
3. Ask the authoritative server the original question (subscribe + fetch).

All upstream sessions are obtained from an
:class:`~repro.core.session_manager.UpstreamSessionManager`, so connections
and MoQT sessions are reused across lookups and 0-RTT is used when a session
ticket exists (§5.2).  Pushed objects arriving on any upstream subscription
update the resolver's record store and are forwarded to downstream
subscribers of the same question (the resolver acts as a relay for DNS
tracks).

Downstream, the resolver serves:

* MoQT sessions from stub resolvers/forwarders (subscribe + fetch), and
* classic DNS over UDP, for unmodified stubs.

For authoritative servers that do not support MoQT, the resolver runs the
§4.5 compatibility path: a happy-eyeballs race between the MoQT attempt and
a classic UDP query, after which it either declines downstream subscriptions
or keeps them alive by re-fetching the record every TTL
(:class:`~repro.core.compatibility.RefreshScheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.compatibility import (
    CapabilityMemo,
    CompatibilityMode,
    MOQT_TIMEOUT,
    RefreshScheduler,
    UpstreamCapability,
)
from repro.core.encapsulation import encapsulate_response
from repro.core.mapping import DnsQuestionKey, no_such_track
from repro.core.errors import MappingError
from repro.core.session_manager import SessionManagerConfig
from repro.core.subscribing import DEFAULT_NEGATIVE_TTL, QuestionRecord, SubscribeFetch, SubscribingResolver
from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.transport import DnsUdpEndpoint
from repro.dns.types import DNS_UDP_PORT, MOQT_PORT, Rcode, RecordType
from repro.moqt.errors import SubscribeErrorCode
from repro.moqt.messages import Fetch, Subscribe
from repro.moqt.objectmodel import Location, MoqtObject
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

MAX_RESOLUTION_STEPS = 12


@dataclass
class ResolverConfig:
    """Behavioural knobs of the recursive MoQT resolver.

    It serves stubs on ``moqt_port`` and classic clients on ``udp_port``.
    With ``happy_eyeballs`` it races MoQT against UDP towards an upstream
    whose support is unknown (§4.5); without, it tries MoQT alone for
    :data:`~repro.core.compatibility.MOQT_TIMEOUT` before falling back.
    """

    moqt_port: int = MOQT_PORT
    udp_port: int = DNS_UDP_PORT
    happy_eyeballs: bool = True
    compatibility_mode: CompatibilityMode = CompatibilityMode.PERIODIC_REFRESH
    session_manager: SessionManagerConfig = field(default_factory=SessionManagerConfig)
    #: QUIC parameters applied to *downstream* (stub-facing) connections.
    #: Long-delay deployments (deep space) raise the idle timeout and the
    #: initial RTT here so accepted connections survive the path delay.
    downstream_connection: ConnectionConfig | None = None


@dataclass
class MoqResolveOutcome:
    """Result of a recursive MoQT resolution handed to callbacks."""

    key: DnsQuestionKey
    message: Message | None
    version: int = 0
    rcode: Rcode = Rcode.SERVFAIL
    from_cache: bool = False
    via_moqt: bool = True
    upstream_operations: int = 0

    @property
    def is_success(self) -> bool:
        """Whether an answer (possibly negative) was obtained."""
        return self.message is not None and self.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN)


@dataclass
class RecursiveStatistics:
    """Counters kept by the recursive resolver."""

    client_queries_udp: int = 0
    cache_hits: int = 0
    upstream_subscribe_fetch: int = 0
    upstream_udp_queries: int = 0
    pushes_received: int = 0
    pushes_forwarded: int = 0
    subscriptions_declined: int = 0
    refresh_republishes: int = 0


class MoqRecursiveResolver(SubscribingResolver):
    """A recursive resolver speaking MoQT upstream and MoQT/UDP downstream."""

    def __init__(
        self,
        host: Host,
        root_servers: list[Address],
        config: ResolverConfig | None = None,
    ) -> None:
        if not root_servers:
            raise ValueError("at least one root server address is required")
        self.config = config if config is not None else ResolverConfig()
        self.root_servers = list(root_servers)
        self.statistics = RecursiveStatistics()
        self.capabilities = CapabilityMemo()
        self.refresher = RefreshScheduler(host.simulator)
        super().__init__(host, self.config.udp_port)
        self._udp_client = DnsUdpEndpoint(host)
        self._downstream_sessions: list[MoqtSession] = []
        # The listener binds the MoQT port; the host's port table holds it.
        QuicEndpoint(
            host,
            port=self.config.moqt_port,
            server_config=self.config.downstream_connection,
            server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
            on_connection=self._on_downstream_connection,
        )

    # ------------------------------------------------------------- public API
    def state_summary(self) -> dict[str, int]:
        """The shared accounting plus the downstream subscribers served (§5.1)."""
        summary = super().state_summary()
        summary["downstream_subscribers"] = sum(len(v) for v in self._downstream.values())
        return summary

    def resolve(
        self,
        key: DnsQuestionKey,
        callback: Callable[[MoqResolveOutcome], None],
    ) -> None:
        """Resolve a question, preferring fresh local state over the network."""
        self.registry.record_lookup(key, self.simulator.now)
        record = self._records.get(key)
        if record is not None and self._is_fresh(record):
            self.statistics.cache_hits += 1
            callback(
                MoqResolveOutcome(
                    key=key,
                    message=record.message,
                    version=record.version,
                    rcode=record.message.rcode,
                    from_cache=True,
                    via_moqt=record.via_moqt,
                )
            )
        elif self._join_lookup(key, callback):
            _ResolutionTask(self, key).start()

    # ------------------------------------------------------------------ records
    def _store_answer(
        self, key: DnsQuestionKey, message: Message, version: int, via_moqt: bool
    ) -> QuestionRecord:
        """File a resolution step's answer; MoQT answers are subscribed ones.

        A classic answer carries no version: it keeps the one §4.5 refresh has
        counted up to, so what downstream subscribers are sent never runs back.
        """
        if not via_moqt:
            known = self._records.get(key)
            if known is not None and not known.via_moqt:
                version = known.version
        return self._store(key, message, version, subscribed=via_moqt, via_moqt=via_moqt)

    # ------------------------------------------------ upstream subscribe+fetch
    def moqt_subscribe_fetch(
        self,
        server: Address,
        key: DnsQuestionKey,
        callback: Callable[[Message | None, int], None],
    ) -> None:
        """One Fig. 2 step: subscribe to a question track and fetch the record.

        The callback receives the decoded DNS response and the version
        (group ID), or ``(None, 0)`` if the server declined or timed out.
        """
        self.statistics.upstream_subscribe_fetch += 1
        SubscribeFetch(
            self, server, key, MOQT_TIMEOUT, callback, _fail_if_declined
        )

    def udp_query(
        self,
        server: Address,
        key: DnsQuestionKey,
        callback: Callable[[Message | None], None],
    ) -> None:
        """Classic DNS-over-UDP query used by the §4.5 fallback."""
        self.statistics.upstream_udp_queries += 1
        query = make_query(key.qname, key.qtype, recursion_desired=False)
        udp_server = Address(server.host, DNS_UDP_PORT)
        self._udp_client.query(query, udp_server, callback)

    def lookup_step(
        self,
        server: Address,
        key: DnsQuestionKey,
        callback: Callable[[Message | None, int, bool], None],
    ) -> None:
        """Query one upstream server, racing MoQT against UDP when needed.

        The callback receives ``(message, version, via_moqt)``.
        """
        capability = self.capabilities.get(server.host)
        if capability is UpstreamCapability.UDP_ONLY:
            self.udp_query(server, key, lambda message: callback(message, 0, False))
            return
        if capability is UpstreamCapability.MOQT or not self.config.happy_eyeballs:
            def moqt_done(message: Message | None, version: int) -> None:
                if message is not None:
                    self.capabilities.note_moqt_success(server.host)
                elif capability is UpstreamCapability.UNKNOWN:
                    # MoQT failed on an unknown server: fall back to UDP.
                    self.capabilities.note_udp_only(server.host)
                    self.udp_query(server, key, lambda m: callback(m, 0, False))
                    return
                callback(message, version, message is not None)

            self.moqt_subscribe_fetch(server, key, moqt_done)
            return

        # Happy eyeballs: race MoQT against UDP (§4.5).
        finished = {"done": False}

        def finish(message: Message | None, version: int, via_moqt: bool) -> None:
            if finished["done"]:
                return
            if message is None and not finished.get("other_failed"):
                # First failure: wait for the other attempt.
                finished["other_failed"] = True
                return
            finished["done"] = True
            callback(message, version, via_moqt)

        def moqt_done(message: Message | None, version: int) -> None:
            if message is not None:
                self.capabilities.note_moqt_success(server.host)
            elif self.capabilities.get(server.host) is UpstreamCapability.UNKNOWN:
                self.capabilities.note_udp_only(server.host)
            if message is not None and finished["done"]:
                # The UDP answer already won the race, but the MoQT attempt
                # succeeded: the upstream subscription is established, so
                # upgrade the stored record to the subscribed/push-fed state.
                self._store(key, message, version)
                return
            finish(message, version, True)

        def udp_done(message: Message | None) -> None:
            finish(message, 0, False)

        # Both attempts start at once, as the paper suggests.
        self.moqt_subscribe_fetch(server, key, moqt_done)
        self.udp_query(server, key, udp_done)

    # ------------------------------------------------- the shared core's hooks
    def _handle_udp_query(self, query: Message, source: Address, respond) -> None:
        self.statistics.client_queries_udp += 1
        super()._handle_udp_query(query, source, respond)

    def _answer_client(
        self, key: DnsQuestionKey, answered: Callable[[Message | None], None]
    ) -> None:
        self.resolve(key, lambda outcome: answered(outcome.message))

    def _pushed(self, key: DnsQuestionKey, record: QuestionRecord, obj: MoqtObject) -> None:
        """An upstream push was stored: relay the object to downstream subscribers."""
        self.statistics.pushes_forwarded += publish_to(self._downstream.get(key, ()), obj)

    # ------------------------------------------------------ downstream: MoQT
    def _on_downstream_connection(self, connection: QuicConnection) -> None:
        session = MoqtSession(
            connection,
            is_client=False,
            publisher_delegate=self,
        )
        self._downstream_sessions.append(session)

    def downstream_sessions(self) -> list[MoqtSession]:
        """MoQT sessions accepted from stubs/forwarders."""
        return list(self._downstream_sessions)

    def handle_subscribe(
        self, session: MoqtSession, message: Subscribe
    ) -> SubscribeResult | None:
        """Publisher-delegate entry: answer once the question is resolved."""
        try:
            key = self.answers.question(message.full_track_name)
        except MappingError as error:
            return no_such_track(SubscribeResult, error)

        def finished(outcome: MoqResolveOutcome) -> None:
            if outcome.message is None:
                self.statistics.subscriptions_declined += 1
                session.complete_subscribe(
                    message.request_id, no_such_track(SubscribeResult, "resolution failed")
                )
                return
            if not outcome.via_moqt:
                self._handle_fallback_subscription(session, message, key, outcome)
                return
            self._accept_downstream(session, message, key, outcome)

        record = self._records.get(key)
        if record is not None and record.via_moqt and not record.subscribed:
            # Torn down (§4.4): a subscriber is owed pushes, so the question
            # is resolved, and subscribed upstream, again.
            del self._records[key]
        self.resolve(key, finished)
        return None

    def _accept_downstream(
        self,
        session: MoqtSession,
        message: Subscribe,
        key: DnsQuestionKey,
        outcome: MoqResolveOutcome,
    ) -> bool:
        """Send SUBSCRIBE_OK and file the session's record under ``key``.

        False when the stub left while the resolution was in flight.
        """
        subscription = session.complete_subscribe(
            message.request_id, SubscribeResult(ok=True, largest=Location(outcome.version, 0))
        )
        if subscription is None:
            return False
        subscription.owner = key
        self._downstream.setdefault(key, []).append(subscription)
        return True

    def handle_subscription_ended(
        self, session: MoqtSession, subscription: PublisherSubscription | Subscribe
    ) -> None:
        """Forget a subscriber that sent UNSUBSCRIBE or whose session closed."""
        if not isinstance(subscription, PublisherSubscription):
            return  # still resolving: the late complete_subscribe finds it gone
        key = subscription.owner
        subscribers = self._downstream[key]
        subscribers.remove(subscription)
        if not subscribers:
            del self._downstream[key]
            # §4.5: nobody is left to poll the non-MoQT upstream for.
            self.refresher.cancel(key)

    def _handle_fallback_subscription(
        self,
        session: MoqtSession,
        message: Subscribe,
        key: DnsQuestionKey,
        outcome: MoqResolveOutcome,
    ) -> None:
        """§4.5: the authoritative server does not support MoQT."""
        if self.config.compatibility_mode is CompatibilityMode.DECLINE_SUBSCRIPTION:
            self.statistics.subscriptions_declined += 1
            session.complete_subscribe(
                message.request_id,
                SubscribeResult(
                    ok=False,
                    error_code=SubscribeErrorCode.NOT_SUPPORTED,
                    reason="authoritative server does not support MoQT",
                ),
            )
            return
        # Periodic-refresh mode: accept and keep the record fresh by polling.
        if not self._accept_downstream(session, message, key, outcome):
            return
        if not self.refresher.is_scheduled(key):
            ttl = self._answer_ttl(outcome.message)
            interval = ttl if ttl > 0 else DEFAULT_NEGATIVE_TTL
            self.refresher.schedule(key, interval, self._refresh_fallback_record)

    def _refresh_fallback_record(self, key: DnsQuestionKey) -> None:
        """Re-query a non-MoQT upstream and push downstream if the record changed."""
        record = self._records.get(key)
        if record is None:
            self.refresher.cancel(key)
            return
        auth_server = self._auth_server_for(key)
        if auth_server is None:
            return

        def on_response(message: Message | None) -> None:
            if message is None:
                return
            if _answer_fingerprint(message) == _answer_fingerprint(record.message):
                record.updated_at = self.simulator.now
                return
            # The resolver versions a classic upstream's answers itself.
            stored = self._store(key, message, record.version + 1, via_moqt=False)
            self.statistics.refresh_republishes += 1
            self._pushed(key, stored, encapsulate_response(message, stored.version))

        self.udp_query(auth_server, key, on_response)

    def _auth_server_for(self, key: DnsQuestionKey) -> Address | None:
        """Best-known authoritative server address for a question's zone.

        Derived from cached NS/A referral data collected during resolution.
        """
        for ancestor in key.qname.ancestors():
            record = self._records.get(_ns_key(ancestor, key))
            if record is None:
                continue
            address = _extract_server_address(record.message)
            if address is not None:
                return address
        return None

    def handle_fetch(
        self, session: MoqtSession, message: Fetch, full_track_name: FullTrackName | None
    ) -> FetchResult | None:
        """Publisher-delegate entry: serve the record once it is resolved."""
        try:
            key = self.answers.question(full_track_name)
        except MappingError as error:
            return no_such_track(FetchResult, error)

        def finished(outcome: MoqResolveOutcome) -> None:
            if outcome.message is None:
                session.complete_fetch(
                    message.request_id, no_such_track(FetchResult, "resolution failed")
                )
                return
            # The bytes the upstream sent, as a push is relayed; a §4.5
            # classic answer never arrived as an object and is encapsulated.
            obj = self.answers.received(outcome.message, outcome.version)
            if obj is None:
                obj = encapsulate_response(outcome.message, outcome.version)
            session.complete_fetch(
                message.request_id,
                FetchResult(ok=True, objects=[obj], largest=obj.location),
            )

        self.resolve(key, finished)
        return None


def _fail_if_declined(attempt: SubscribeFetch, subscription: Subscription) -> None:
    """The recursive resolver's SUBSCRIBE_ERROR policy: fail the step at once.

    A server that declines a question's track will fail the joining FETCH as
    well.  (The forwarder waits: under §4.5 its upstream may decline the
    subscription and still answer the FETCH.)
    """
    if subscription.state == "error":
        attempt.finish()


def _ns_key(zone_name: Name, key: DnsQuestionKey) -> DnsQuestionKey:
    """The NS question for ``zone_name`` as asked on behalf of ``key``."""
    return DnsQuestionKey(
        qname=zone_name,
        qtype=RecordType.NS,
        qclass=key.qclass,
        opcode=key.opcode,
        recursion_desired=False,
        checking_disabled=key.checking_disabled,
    )


def _answer_fingerprint(message: Message) -> tuple[str, ...]:
    """Content fingerprint of the answer section (order-insensitive)."""
    return tuple(sorted(record.to_text() for record in message.answers))


def _extract_server_address(message: Message) -> Address | None:
    """Pull a nameserver address out of a referral/NS response."""
    ns_targets = [
        record.rdata.target  # type: ignore[attr-defined]
        for record in [*message.answers, *message.authorities]
        if record.rdtype == RecordType.NS
    ]
    if not ns_targets:
        return None
    for record in message.additionals:
        if record.rdtype in (RecordType.A, RecordType.AAAA) and record.name in ns_targets:
            return Address(record.rdata.to_text(), MOQT_PORT)
    return None


class _ResolutionTask:
    """One recursive resolution following the Fig. 2 sequence.

    An extension of the resolver: it reads and files the resolver's records.
    """

    def __init__(self, resolver: MoqRecursiveResolver, key: DnsQuestionKey) -> None:
        self._resolver = resolver
        self._key = key
        self._operations = 0
        self._steps = 0
        self._servers: list[Address] = list(resolver.root_servers)
        # Parent chain to walk: for www.example.com -> [com., example.com.]
        ancestors = [name for name in key.qname.ancestors() if not name.is_root]
        ancestors.reverse()
        self._delegation_chain: list[Name] = ancestors[:-1] if len(ancestors) > 1 else []
        self._chain_index = 0
        self._via_moqt = True

    # ------------------------------------------------------------------ driver
    def start(self) -> None:
        """Resolve cached delegations first, then walk the remaining chain."""
        self._skip_cached_delegations()
        self._next_step()

    def _skip_cached_delegations(self) -> None:
        """Use cached NS entries to start as deep in the hierarchy as possible."""
        resolver = self._resolver
        while self._chain_index < len(self._delegation_chain):
            zone_name = self._delegation_chain[self._chain_index]
            record = resolver._records.get(_ns_key(zone_name, self._key))  # noqa: SLF001
            if record is None or not resolver._is_fresh(record):  # noqa: SLF001
                return
            address = _extract_server_address(record.message)
            if address is None:
                return
            self._servers = [address]
            self._chain_index += 1

    def _next_step(self) -> None:
        self._steps += 1
        if self._steps > MAX_RESOLUTION_STEPS:
            self._fail()
            return
        if not self._servers:
            self._fail()
            return
        server = self._servers[0]
        if self._chain_index < len(self._delegation_chain):
            zone_name = self._delegation_chain[self._chain_index]
            step_key = _ns_key(zone_name, self._key)
            self._operations += 1
            self._resolver.lookup_step(server, step_key, partial(self._on_delegation, step_key))
        else:
            self._operations += 1
            self._resolver.lookup_step(server, self._key, self._on_final)

    # ----------------------------------------------------------------- handlers
    def _on_delegation(
        self, step_key: DnsQuestionKey, message: Message | None, version: int, via_moqt: bool
    ) -> None:
        if message is None:
            self._servers.pop(0)
            self._next_step()
            return
        if not via_moqt:
            self._via_moqt = False
        self._resolver._store_answer(step_key, message, version, via_moqt)  # noqa: SLF001
        address = _extract_server_address(message)
        if address is None:
            # No delegation found: the current server is authoritative for
            # deeper names as well; go straight to the final question there.
            self._chain_index = len(self._delegation_chain)
            self._next_step()
            return
        self._servers = [address]
        self._chain_index += 1
        self._next_step()

    def _on_final(self, message: Message | None, version: int, via_moqt: bool) -> None:
        if message is None:
            self._servers.pop(0)
            self._next_step()
            return
        if not via_moqt:
            self._via_moqt = False
        resolver = self._resolver
        # A referral at the final step means there is a deeper zone cut than
        # the delegation chain anticipated: follow it.
        if not message.answers and any(
            record.rdtype == RecordType.NS for record in message.authorities
        ) and message.rcode == Rcode.NOERROR and not _is_authoritative_nodata(message):
            address = _extract_server_address(message)
            if address is not None:
                # Remember the delegation under the child zone's NS question
                # so later lookups (and the periodic-refresh fallback) know
                # which server is authoritative for it.
                ns_owner = next(
                    record.name
                    for record in message.authorities
                    if record.rdtype == RecordType.NS
                )
                resolver._store_answer(  # noqa: SLF001
                    _ns_key(ns_owner, self._key), message, version, via_moqt
                )
                self._servers = [address]
                self._next_step()
                return
        record = resolver._store_answer(self._key, message, version, via_moqt)  # noqa: SLF001
        self._finish(message, record.version, message.rcode, via_moqt)

    def _fail(self) -> None:
        self._finish(None, 0, Rcode.SERVFAIL, self._via_moqt)

    def _finish(self, message: Message | None, version: int, rcode: Rcode, via_moqt: bool) -> None:
        resolver = self._resolver
        outcome = MoqResolveOutcome(
            key=self._key,
            message=message,
            version=version,
            rcode=rcode,
            via_moqt=via_moqt,
            upstream_operations=self._operations,
        )
        resolver._finish_lookup(self._key, outcome)  # noqa: SLF001


def _is_authoritative_nodata(message: Message) -> bool:
    """Whether a NOERROR response is an authoritative empty answer (has SOA)."""
    return any(record.rdtype == RecordType.SOA for record in message.authorities)
