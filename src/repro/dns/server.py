"""Classic authoritative DNS server over UDP.

The :class:`AuthoritativeServer` serves one or more zones on the simulated
network.  It is used both as the baseline (traditional request/response DNS)
in the experiments and as the fallback target for the §4.5 compatibility
path, where a recursive resolver talks classic DNS to authoritative servers
that do not support MoQT.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.message import Message, make_response
from repro.dns.name import Name
from repro.dns.transport import DnsUdpEndpoint
from repro.dns.types import DNS_UDP_PORT, Rcode
from repro.dns.zone import LookupResult, Zone, find_zone
from repro.netsim.node import Host
from repro.netsim.packet import Address


@dataclass
class ServerStatistics:
    """Query counters of an authoritative server."""

    queries: int = 0
    answers: int = 0
    referrals: int = 0
    negative_answers: int = 0
    refused: int = 0


class AuthoritativeServer:
    """Serves one or more zones authoritatively over classic DNS/UDP.

    Parameters
    ----------
    host:
        The simulated host the server runs on.
    zones:
        Initial zones to serve; more can be added with :meth:`add_zone`.
    port:
        UDP port to listen on (53 by default).
    """

    def __init__(self, host: Host, zones: list[Zone], port: int = DNS_UDP_PORT) -> None:
        self.host = host
        self._zones: dict[Name, Zone] = {}
        self.statistics = ServerStatistics()
        self.endpoint = DnsUdpEndpoint(host, port=port, handler=self._handle_query)
        for zone in zones:
            self.add_zone(zone)

    @property
    def address(self) -> Address:
        """The address clients should send queries to."""
        return self.endpoint.address

    # -------------------------------------------------------------------- zones
    def add_zone(self, zone: Zone) -> None:
        """Start serving a zone."""
        self._zones[zone.origin] = zone

    def zone_for(self, qname: Name) -> Zone | None:
        """The most specific zone containing ``qname``, if any."""
        return find_zone(self._zones, qname)

    def zones(self) -> list[Zone]:
        """All zones served, in insertion order."""
        return list(self._zones.values())

    # ------------------------------------------------------------------ serving
    def _handle_query(self, query: Message, source: Address, respond) -> None:
        self.statistics.queries += 1
        if not query.questions:
            respond(make_response(query, rcode=Rcode.FORMERR))
            return
        question = query.question
        zone = self.zone_for(question.qname)
        if zone is None:
            self.statistics.refused += 1
            respond(make_response(query, rcode=Rcode.REFUSED))
            return
        result = zone.lookup(question.qname, question.qtype)
        respond(self._build_response(query, result))

    def _build_response(self, query: Message, result: LookupResult) -> Message:
        if result.rcode == Rcode.NXDOMAIN:
            self.statistics.negative_answers += 1
        elif result.is_referral:
            self.statistics.referrals += 1
        elif result.answers:
            self.statistics.answers += 1
        else:
            self.statistics.negative_answers += 1
        return make_response(
            query,
            answers=result.answers,
            authorities=result.authorities,
            additionals=result.additionals,
            rcode=result.rcode,
            authoritative=not result.is_referral,
        )
