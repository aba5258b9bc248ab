"""DNS substrate: names, messages, zones, caches, servers and resolvers.

This package implements enough of the DNS (RFC 1034/1035 plus the record
types the paper's measurement study covers, including HTTPS/SVCB from
RFC 9460) to run realistic authoritative servers and recursive resolvers
inside the simulator:

* :mod:`repro.dns.errors` — ``DnsFormatError``, the one error (with its
  subclasses) the codec raises for malformed bytes or text;
* :mod:`repro.dns.name` — domain names with full wire encoding and
  compression-pointer decoding;
* :mod:`repro.dns.rdata` — typed RDATA for A, AAAA, CNAME, NS, SOA, PTR, MX,
  TXT, SRV and HTTPS/SVCB records;
* :mod:`repro.dns.message` — the DNS message header, question and resource
  record sections, with a byte-exact wire codec;
* :mod:`repro.dns.zone` — authoritative zone data with SOA-serial versioning
  and the lookup algorithm (exact match, CNAME, wildcard, delegation);
* :mod:`repro.dns.cache` — a TTL-driven cache bound to the simulated clock;
* :mod:`repro.dns.server` / :mod:`repro.dns.resolver` — classic DNS-over-UDP
  authoritative servers, an iterative recursive resolver and a stub resolver.
"""

from repro.dns.types import DNSClass, Opcode, Rcode, RecordType
from repro.dns.errors import DnsFormatError
from repro.dns.name import Name
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.message import Flags, Header, Message, Question, make_query, make_response
from repro.dns.zone import Zone, ZoneError
from repro.dns.cache import DnsCache
from repro.dns.server import AuthoritativeServer
from repro.dns.resolver import RecursiveResolver, StubResolver, ResolutionError

__all__ = [
    "DNSClass",
    "Opcode",
    "Rcode",
    "RecordType",
    "DnsFormatError",
    "Name",
    "ResourceRecord",
    "RRset",
    "Flags",
    "Header",
    "Message",
    "Question",
    "make_query",
    "make_response",
    "Zone",
    "ZoneError",
    "DnsCache",
    "AuthoritativeServer",
    "RecursiveResolver",
    "StubResolver",
    "ResolutionError",
]
