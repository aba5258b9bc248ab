"""Classic recursive and stub resolvers (the paper's baseline DNS).

The :class:`RecursiveResolver` performs iterative resolution exactly as §1 of
the paper describes: it asks a root server, follows the referral to the TLD
server, follows the next referral to the authoritative server, and caches the
final answer for its TTL.  It simultaneously serves stub resolvers over
classic DNS/UDP.

The :class:`StubResolver` forwards queries to a configured recursive resolver
and keeps its own small cache, mirroring an operating-system stub.

Both are callback-based because the whole system runs on the discrete-event
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dns.cache import DnsCache
from repro.dns.message import Message, make_query, make_response
from repro.dns.name import Name
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.transport import DnsUdpEndpoint
from repro.dns.types import DNS_UDP_PORT, Rcode, RecordType
from repro.netsim.node import Host
from repro.netsim.packet import Address

ResolveCallback = Callable[["ResolutionOutcome"], None]

MAX_REFERRALS = 16
NEGATIVE_TTL = 60.0


class ResolutionError(Exception):
    """Raised when a resolution cannot even be started."""


@dataclass
class ResolutionOutcome:
    """The result handed to a resolution callback.

    Attributes
    ----------
    rcode:
        Final response code (SERVFAIL when every upstream timed out).
    rrset:
        The answer RRset, if any.
    answers:
        The full answer section (including CNAME chain records).
    from_cache:
        Whether the answer was served from cache without upstream queries.
    duration:
        Virtual seconds from request to completion.
    """

    rcode: Rcode
    rrset: RRset | None = None
    answers: tuple[ResourceRecord, ...] = ()
    from_cache: bool = False
    duration: float = 0.0

    @property
    def is_success(self) -> bool:
        """Whether a usable answer (possibly empty NOERROR) was obtained."""
        return self.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN)


@dataclass
class ResolverStatistics:
    """Counters kept by the recursive resolver."""

    cache_hits: int = 0
    upstream_queries: int = 0
    referrals_followed: int = 0


class RecursiveResolver:
    """An iterative recursive resolver with a cache, serving stubs over UDP.

    Parameters
    ----------
    host:
        The simulated host the resolver runs on.
    root_servers:
        Addresses of root authoritative servers (classic DNS/UDP).
    serve_port:
        Port on which stub queries are accepted.
    """

    def __init__(
        self,
        host: Host,
        root_servers: list[Address],
        serve_port: int,
    ) -> None:
        if not root_servers:
            raise ResolutionError("at least one root server address is required")
        self.host = host
        self.simulator = host.simulator
        self.root_servers = list(root_servers)
        self.cache = DnsCache(host.simulator)
        self.statistics = ResolverStatistics()
        self._client = DnsUdpEndpoint(host)
        self._server = DnsUdpEndpoint(host, port=serve_port, handler=self._handle_client_query)

    @property
    def address(self) -> Address:
        """The address stub resolvers should use."""
        return self._server.address

    # --------------------------------------------------------------- serving
    def _handle_client_query(self, query: Message, source: Address, respond) -> None:
        if not query.questions:
            respond(make_response(query, rcode=Rcode.FORMERR))
            return
        question = query.question

        def finished(outcome: ResolutionOutcome) -> None:
            respond(
                make_response(
                    query,
                    answers=outcome.answers,
                    rcode=outcome.rcode if outcome.is_success else Rcode.SERVFAIL,
                    recursion_available=True,
                )
            )

        self.resolve(question.qname, question.qtype, finished)

    # ------------------------------------------------------------- resolution
    def resolve(
        self,
        qname: Name | str,
        qtype: RecordType | str,
        callback: ResolveCallback,
    ) -> None:
        """Resolve a name, using the cache and iterating from the roots."""
        name = qname if isinstance(qname, Name) else Name.from_text(qname)
        rdtype = qtype if isinstance(qtype, RecordType) else RecordType.from_text(qtype)
        started_at = self.simulator.now

        cached = self.cache.get(name, rdtype)
        if cached is not None:
            self.statistics.cache_hits += 1
            rrset = None
            if cached.rrset is not None:
                remaining = int(cached.remaining_ttl(self.simulator.now))
                rrset = cached.rrset.with_ttl(max(0, remaining))
            callback(
                ResolutionOutcome(
                    rcode=cached.rcode,
                    rrset=rrset,
                    answers=tuple(rrset) if rrset is not None else (),
                    from_cache=True,
                    duration=0.0,
                )
            )
            return

        task = _ResolutionTask(self, name, rdtype, callback, started_at)
        task.start()

    # ------------------------------------------------------------------ upkeep
    def note_upstream_query(self) -> None:
        """Internal: count one upstream exchange."""
        self.statistics.upstream_queries += 1

    def send_upstream(self, message: Message, destination: Address, callback) -> None:
        """Internal: send a query upstream through the client endpoint."""
        self.note_upstream_query()
        self._client.query(message, destination, callback)


class _ResolutionTask:
    """State machine for one iterative resolution."""

    def __init__(
        self,
        resolver: RecursiveResolver,
        qname: Name,
        qtype: RecordType,
        callback: ResolveCallback,
        started_at: float,
    ) -> None:
        self._resolver = resolver
        self._qname = qname
        self._qtype = qtype
        self._callback = callback
        self._started_at = started_at
        self._servers: list[Address] = list(resolver.root_servers)
        self._referrals = 0
        self._answers: list[ResourceRecord] = []

    def start(self) -> None:
        """Begin by querying the first configured root server."""
        self._query_next()

    def _finish(self, rcode: Rcode, rrset: RRset | None) -> None:
        outcome = ResolutionOutcome(
            rcode=rcode,
            rrset=rrset,
            answers=tuple(self._answers),
            duration=self._resolver.simulator.now - self._started_at,
        )
        self._callback(outcome)

    def _query_next(self) -> None:
        if not self._servers:
            self._finish(Rcode.SERVFAIL, None)
            return
        destination = self._servers[0]
        query = make_query(self._qname, self._qtype, recursion_desired=False)
        self._resolver.send_upstream(query, destination, self._on_response)

    def _on_response(self, response: Message | None) -> None:
        if response is None:
            # Timeout on this server: try the next one.
            self._servers.pop(0)
            self._query_next()
            return
        if response.rcode == Rcode.NXDOMAIN:
            self._cache_negative(response)
            self._finish(Rcode.NXDOMAIN, None)
            return
        if response.rcode != Rcode.NOERROR:
            self._finish(response.rcode, None)
            return

        direct = [
            record
            for record in response.answers
            if record.name == self._qname and record.rdtype == self._qtype
        ]
        cnames = [record for record in response.answers if record.rdtype == RecordType.CNAME]
        if direct:
            self._answers.extend(response.answers)
            rrset = RRset(self._qname, self._qtype, direct)
            self._resolver.cache.put(self._qname, self._qtype, rrset)
            self._finish(Rcode.NOERROR, rrset)
            return
        if cnames:
            # Follow the CNAME: restart resolution at the target.
            self._answers.extend(cnames)
            target = cnames[-1].rdata.target  # type: ignore[attr-defined]
            self._qname = target
            self._servers = list(self._resolver.root_servers)
            self._referrals += 1
            if self._referrals > MAX_REFERRALS:
                self._finish(Rcode.SERVFAIL, None)
                return
            self._query_next()
            return

        ns_records = [record for record in response.authorities if record.rdtype == RecordType.NS]
        if ns_records:
            glue = {
                record.name: record.rdata.to_text()
                for record in response.additionals
                if record.rdtype in (RecordType.A, RecordType.AAAA)
            }
            next_servers: list[Address] = []
            for ns_record in ns_records:
                target = ns_record.rdata.target  # type: ignore[attr-defined]
                if target in glue:
                    next_servers.append(Address(glue[target], DNS_UDP_PORT))
            if next_servers:
                self._referrals += 1
                self._resolver.statistics.referrals_followed += 1
                if self._referrals > MAX_REFERRALS:
                    self._finish(Rcode.SERVFAIL, None)
                    return
                self._servers = next_servers
                self._query_next()
                return
            # Glueless delegation: we would need to resolve the NS name first;
            # the workloads in this repository always provide glue, so treat
            # a glueless referral as a failure rather than recursing forever.
            self._finish(Rcode.SERVFAIL, None)
            return

        # NOERROR with no data: negative-cache and return an empty answer.
        self._cache_negative(response)
        self._finish(Rcode.NOERROR, None)

    def _cache_negative(self, response: Message) -> None:
        soa_ttl = NEGATIVE_TTL
        for record in response.authorities:
            if record.rdtype == RecordType.SOA:
                soa_ttl = float(min(record.ttl, record.rdata.minimum))  # type: ignore[attr-defined]
                break
        self._resolver.cache.put(
            self._qname, self._qtype, None, rcode=response.rcode, ttl=soa_ttl
        )


@dataclass
class StubStatistics:
    """Counters kept by a stub resolver."""

    cache_hits: int = 0


class StubResolver:
    """A stub resolver forwarding to a recursive resolver over UDP."""

    def __init__(
        self,
        host: Host,
        recursive_address: Address,
    ) -> None:
        self.host = host
        self.simulator = host.simulator
        self.recursive_address = recursive_address
        self.cache = DnsCache(host.simulator)
        self.statistics = StubStatistics()
        self._endpoint = DnsUdpEndpoint(host)

    def resolve(
        self,
        qname: Name | str,
        qtype: RecordType | str,
        callback: ResolveCallback,
    ) -> None:
        """Resolve via the configured recursive resolver (cache first)."""
        name = qname if isinstance(qname, Name) else Name.from_text(qname)
        rdtype = qtype if isinstance(qtype, RecordType) else RecordType.from_text(qtype)
        started_at = self.simulator.now

        cached = self.cache.get(name, rdtype)
        if cached is not None and cached.rrset is not None:
            self.statistics.cache_hits += 1
            remaining = int(cached.remaining_ttl(self.simulator.now))
            rrset = cached.rrset.with_ttl(max(0, remaining))
            callback(
                ResolutionOutcome(
                    rcode=cached.rcode, rrset=rrset, answers=tuple(rrset), from_cache=True
                )
            )
            return

        query = make_query(name, rdtype, recursion_desired=True)

        def on_response(response: Message | None) -> None:
            duration = self.simulator.now - started_at
            if response is None:
                callback(ResolutionOutcome(rcode=Rcode.SERVFAIL, duration=duration))
                return
            rrset = response.answer_rrset(rdtype)
            if rrset is not None:
                self.cache.put(name, rdtype, rrset)
            callback(
                ResolutionOutcome(
                    rcode=response.rcode,
                    rrset=rrset,
                    answers=tuple(response.answers),
                    duration=duration,
                )
            )

        self._endpoint.query(query, self.recursive_address, on_response)
