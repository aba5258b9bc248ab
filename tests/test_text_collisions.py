"""A change is pushed whenever its presentation text changes, and text is exact.

The MoQT authoritative server (``MoqAuthoritativeServer._fingerprint``) and
the §4.5 refresh path (``core/recursive.py::_answer_fingerprint``) compare
answers by ``to_text()``, so two different RDATA that render the same text
would never be pushed.  TXT renders RFC 1035 §5.1 escapes (``\\"``,
``\\\\``, ``\\DDD``) and SVCB renders a comma inside an ALPN id as ``\\,``
(RFC 9460 Appendix A.1), so each pair below renders apart:

* ``(b"\\xff",)`` / ``(b"\\xfe",)`` — bytes that are not UTF-8;
* ``(b'a" "b',)`` / ``(b"a", b"b")`` — a quote inside one string;
* ALPN ``["h2,h3"]`` / ``["h2", "h3"]`` — a comma inside one id.

Each pair is pushed at the authoritative server and republished on the
refresh path, and TXT text round-trips and is injective (a property).
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.rdata import HTTPSRdata, Rdata, TXTRdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import RecordType
from repro.dns.zone import Zone
from repro.experiments.topology import SmallTopology, SmallTopologyConfig
from test_core_servers import _subscribe_to_recursive
from test_dns_push import World

OWNER = "www.example.com."
PAIRS = {
    "not utf-8": (TXTRdata((b"\xff",)), TXTRdata((b"\xfe",))),
    "quote inside a string": (TXTRdata((b'a" "b',)), TXTRdata((b"a", b"b"))),
    "comma inside an alpn id": (
        HTTPSRdata.with_alpn(1, Name.root(), ["h2,h3"]),
        HTTPSRdata.with_alpn(1, Name.root(), ["h2", "h3"]),
    ),
}


def rrset(rdata: Rdata, ttl: int = 300) -> RRset:
    owner = Name.from_text(OWNER)
    return RRset(owner, rdata.rdtype, [ResourceRecord(owner, rdata.rdtype, rdata, ttl)])


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
def test_each_pair_renders_apart(pair):
    before, after = pair
    assert before != after and before.to_text() != after.to_text()
    assert type(before).from_text(before.to_text()) == before
    assert type(after).from_text(after.to_text()) == after


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
def test_the_authoritative_server_pushes_each_pair(pair):
    before, after = pair
    zone = Zone("example.com.")
    zone.replace_rrset(rrset(before))
    world = World([zone])
    client = world.client()
    client.subscribe(DnsQuestionKey(qname=Name.from_text(OWNER), qtype=before.rdtype))
    world.settle()
    client.take()
    zone.replace_rrset(rrset(after))
    world.settle()
    assert len(client.take()) == 1


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
def test_the_refresh_path_republishes_each_pair(pair):
    before, after = pair
    ttl = 5
    topology = SmallTopology(SmallTopologyConfig(moqt_on_auth=False, record_ttl=ttl))
    topology.auth_zone.replace_rrset(rrset(before, ttl))
    key = DnsQuestionKey(qname=Name.from_text(OWNER), qtype=before.rdtype)
    _, _, _, pushed = _subscribe_to_recursive(topology, key)
    topology.run(ttl * 2)
    resolver = topology.moqt_recursive
    assert resolver.refresher.is_scheduled(key)
    republished, received = resolver.statistics.refresh_republishes, len(pushed)
    topology.auth_zone.replace_rrset(rrset(after, ttl))
    topology.run(ttl * 2)
    assert resolver.statistics.refresh_republishes == republished + 1
    assert len(pushed) == received + 1


character_strings = st.lists(st.binary(max_size=20), min_size=1, max_size=4).map(tuple)


@given(character_strings, character_strings)
def test_txt_text_round_trips_and_is_injective(first, second):
    text = TXTRdata(first).to_text()
    assert TXTRdata.from_text(text).strings == first
    assert (text == TXTRdata(second).to_text()) == (first == second)


alpn_ids = st.lists(st.binary(min_size=1, max_size=10), min_size=1, max_size=4)


@given(alpn_ids, alpn_ids)
def test_svcb_alpn_text_round_trips_and_is_injective(first, second):
    # Any bytes, not only ASCII: a peer's HTTPS record reaches the fingerprints.
    def record(ids):
        encoded = b"".join(bytes([len(alpn)]) + alpn for alpn in ids)
        return HTTPSRdata(1, Name.root(), ((1, encoded),))

    text = record(first).to_text()
    assert HTTPSRdata.from_text(text) == record(first)
    assert (text == record(second).to_text()) == (first == second)
