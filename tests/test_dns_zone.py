"""Tests for zones: content management, serial bumping and the lookup algorithm."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import Rcode, RecordType
from repro.dns.zone import Zone, ZoneChange, ZoneError


@pytest.fixture
def zone() -> Zone:
    zone = Zone("example.com.")
    zone.add("www.example.com.", "A", "192.0.2.1", bump=False)
    zone.add("www.example.com.", "A", "192.0.2.2", bump=False)
    zone.add("example.com.", "NS", "ns1.example.com.", bump=False)
    zone.add("ns1.example.com.", "A", "192.0.2.53", bump=False)
    zone.add("alias.example.com.", "CNAME", "www.example.com.", bump=False)
    zone.add("*.wild.example.com.", "TXT", '"wildcard"', bump=False)
    zone.add("sub.example.com.", "NS", "ns1.sub.example.com.", bump=False)
    zone.add("ns1.sub.example.com.", "A", "192.0.2.99", bump=False)
    return zone


class TestZoneContent:
    def test_serial_starts_at_one_and_bumps_on_change(self, zone):
        start = zone.serial
        zone.add("new.example.com.", "A", "192.0.2.10")
        assert zone.serial == start + 1
        zone.add("new.example.com.", "A", "192.0.2.11")
        assert zone.serial == start + 2

    def test_serial_monotonically_increases(self, zone):
        serials = [zone.serial]
        for index in range(5):
            zone.add(f"h{index}.example.com.", "A", "192.0.2.20")
            serials.append(zone.serial)
        assert serials == sorted(serials)
        assert len(set(serials)) == len(serials)

    def test_out_of_zone_record_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add("www.other.org.", "A", "192.0.2.1")

    def test_change_listener_notified(self, zone):
        changes: list[ZoneChange] = []
        zone.subscribe_changes(changes.append)
        zone.add("www2.example.com.", "A", "192.0.2.7")
        assert len(changes) == 1
        assert changes[0].name == Name.from_text("www2.example.com.")
        assert changes[0].serial == zone.serial

    def test_replace_rrset_overwrites(self, zone):
        name = Name.from_text("www.example.com.")
        replacement = RRset(
            name, RecordType.A, [ResourceRecord(name, RecordType.A, ARdata("198.51.100.1"), 60)]
        )
        zone.replace_rrset(replacement)
        stored = zone.get_rrset(name, RecordType.A)
        assert stored is not None
        assert [record.rdata.to_text() for record in stored] == ["198.51.100.1"]

    def test_names_and_len(self, zone):
        assert Name.from_text("www.example.com.") in zone.names()
        assert len(zone) > 5

    def test_names_lists_each_owner_once_in_order_of_first_appearance(self, zone):
        texts = [name.to_text() for name in zone.names()]
        assert texts == [
            "example.com.", "www.example.com.", "ns1.example.com.", "alias.example.com.",
            "*.wild.example.com.", "sub.example.com.", "ns1.sub.example.com.",
        ]
        zone.add("www.example.com.", "AAAA", "2001:db8::1")
        assert [name.to_text() for name in zone.names()] == texts

    def test_a_cleared_rrset_keeps_its_owner(self, zone):
        www = Name.from_text("www.example.com.")
        start = zone.serial
        zone.replace_rrset(RRset(www, RecordType.A))
        assert zone.serial == start + 1
        assert www in zone.names()
        result = zone.lookup(www, RecordType.A)
        assert result.rcode == Rcode.NOERROR and not result.answers  # NODATA, not NXDOMAIN

    def test_add_uses_the_default_ttl_unless_given(self, zone):
        assert zone.add("a.example.com.", "A", "192.0.2.20").ttl == 300
        assert zone.add("b.example.com.", "A", "192.0.2.21", ttl=30).ttl == 30

    def test_unknown_type_rejected(self, zone):
        with pytest.raises(ValueError):
            zone.add("www.example.com.", "BOGUS", "1")

    def test_to_text_renders_origin_and_soa_first(self, zone):
        lines = zone.to_text().splitlines()
        assert lines[0] == "$ORIGIN example.com."
        assert " SOA " in lines[1]
        assert any(line.startswith("alias.example.com.") and " CNAME " in line for line in lines)
        assert sum(" A 192.0.2." in line for line in lines) == 4

class TestZoneLookup:
    def test_exact_match(self, zone):
        result = zone.lookup(Name.from_text("www.example.com."), RecordType.A)
        assert result.rcode == Rcode.NOERROR
        assert len(result.answers) == 2
        assert not result.is_referral

    def test_nxdomain_includes_soa(self, zone):
        result = zone.lookup(Name.from_text("missing.example.com."), RecordType.A)
        assert result.rcode == Rcode.NXDOMAIN
        assert result.authorities[0].rdtype == RecordType.SOA

    def test_nodata_for_existing_name_wrong_type(self, zone):
        result = zone.lookup(Name.from_text("www.example.com."), RecordType.AAAA)
        assert result.rcode == Rcode.NOERROR
        assert result.answers == ()
        assert result.authorities[0].rdtype == RecordType.SOA

    def test_cname_chased_within_zone(self, zone):
        result = zone.lookup(Name.from_text("alias.example.com."), RecordType.A)
        assert result.rcode == Rcode.NOERROR
        types = [record.rdtype for record in result.answers]
        assert RecordType.CNAME in types and RecordType.A in types

    def test_cname_query_returns_cname_only(self, zone):
        result = zone.lookup(Name.from_text("alias.example.com."), RecordType.CNAME)
        assert [record.rdtype for record in result.answers] == [RecordType.CNAME]

    def test_wildcard_synthesis(self, zone):
        result = zone.lookup(Name.from_text("anything.wild.example.com."), RecordType.TXT)
        assert result.rcode == Rcode.NOERROR
        assert result.answers[0].name == Name.from_text("anything.wild.example.com.")

    def test_delegation_returns_referral_with_glue(self, zone):
        result = zone.lookup(Name.from_text("host.sub.example.com."), RecordType.A)
        assert result.is_referral
        assert result.rcode == Rcode.NOERROR
        assert result.authorities[0].rdtype == RecordType.NS
        glue_names = [record.name for record in result.additionals]
        assert Name.from_text("ns1.sub.example.com.") in glue_names

    def test_out_of_zone_query_refused(self, zone):
        result = zone.lookup(Name.from_text("www.other.org."), RecordType.A)
        assert result.rcode == Rcode.REFUSED

    def test_apex_ns_not_treated_as_delegation(self, zone):
        result = zone.lookup(Name.from_text("example.com."), RecordType.NS)
        assert not result.is_referral
        assert result.answers[0].rdtype == RecordType.NS


# ---------------------------------------------------- delegation walk, differential
def reference_find_delegation(zone: Zone, qname: Name):
    """``Zone._find_delegation`` as it was: every ancestor of ``qname`` built
    and filtered by ``is_subdomain_of``, the first NS below the apex returned."""
    candidates = [name for name in qname.ancestors() if name.is_subdomain_of(zone.origin)]
    for candidate in candidates:
        if candidate == zone.origin:
            continue
        ns_rrset = zone._rrsets.get((candidate, RecordType.NS))
        if ns_rrset is not None:
            return ns_rrset, zone._glue_for(ns_rrset)
    return None


ORIGIN = "example.com."
# Owner and query names up to four labels below the origin, from a small
# alphabet so that cuts, names at a cut and names below one all occur.
relative_names = st.lists(st.sampled_from(["a", "b", "ns"]), min_size=0, max_size=4).map(
    lambda labels: ".".join([*labels, ORIGIN]) if labels else ORIGIN
)
zone_records = st.lists(
    st.one_of(
        st.tuples(relative_names, st.just("NS"), relative_names),
        st.tuples(relative_names, st.just("A"), st.sampled_from(["192.0.2.1", "192.0.2.2"])),
        st.tuples(relative_names.map(lambda name: "*." + name), st.just("A"), st.just("192.0.2.9")),
        st.tuples(relative_names, st.just("CNAME"), relative_names),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(zone_records, st.lists(relative_names, min_size=1, max_size=8))
def test_the_delegation_walk_equals_the_ancestor_list_it_replaced(records, qnames):
    zone = Zone(ORIGIN)
    for owner, rdtype, rdata in records:
        if rdtype == "CNAME" and zone.get_rrset(owner, "CNAME") is not None:
            continue  # one CNAME per owner
        zone.add(owner, rdtype, rdata, bump=False)
    for text in qnames + [owner for owner, _, _ in records]:
        qname = Name.from_text(text)
        found, expected = zone._find_delegation(qname), reference_find_delegation(zone, qname)
        if expected is None:
            assert found is None, text
        else:
            assert found[0] is expected[0] and found[1] == expected[1], text
