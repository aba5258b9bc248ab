"""Tests for the Fig. 3 question↔track mapping and Fig. 4 encapsulation."""

from __future__ import annotations

import pytest

from repro.core.encapsulation import (
    DNS_OBJECT_ID,
    decapsulate_response,
    encapsulate_response,
    normalize_response,
)
from repro.core.errors import MappingError
from repro.core.mapping import (
    DnsQuestionKey,
    QNAME_BYTE_BUDGET,
    question_to_track,
    track_to_question,
)
from repro.dns.message import make_query, make_response
from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rr import ResourceRecord
from repro.dns.types import DNSClass, Opcode, Rcode, RecordType
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.track import FullTrackName, TrackNamespace
from dns_queries import query_with_id


class TestQuestionToTrack:
    def test_namespace_structure_matches_fig3(self):
        key = DnsQuestionKey(
            qname=Name.from_text("www.example.com"),
            qtype=RecordType.A,
            qclass=DNSClass.IN,
            recursion_desired=True,
            checking_disabled=False,
        )
        track = question_to_track(key)
        elements = track.namespace.elements
        assert len(elements) == 3
        assert len(elements[0]) == 1
        assert elements[1] == (1).to_bytes(2, "big")     # QTYPE A
        assert elements[2] == (1).to_bytes(2, "big")     # QCLASS IN
        assert track.name == Name.from_text("www.example.com").to_wire()

    def test_flag_byte_packs_opcode_rd_cd(self):
        key = DnsQuestionKey(
            qname=Name.from_text("example.com"),
            qtype=RecordType.AAAA,
            opcode=Opcode.QUERY,
            recursion_desired=True,
            checking_disabled=True,
        )
        flags = question_to_track(key).namespace.elements[0][0]
        assert flags & 0x0F == int(Opcode.QUERY)
        assert flags & 0x10  # RD
        assert flags & 0x20  # CD

    def test_roundtrip_preserves_all_fields(self):
        key = DnsQuestionKey(
            qname=Name.from_text("_sip._udp.example.org"),
            qtype=RecordType.SRV,
            qclass=DNSClass.IN,
            opcode=Opcode.QUERY,
            recursion_desired=False,
            checking_disabled=True,
        )
        assert track_to_question(question_to_track(key)) == key

    def test_same_question_maps_to_same_track_regardless_of_message_id(self):
        first = query_with_id("cdn.example.com", "A", 111)
        second = query_with_id("CDN.example.COM", "A", 222)
        assert question_to_track(DnsQuestionKey.from_message(first)) == question_to_track(
            DnsQuestionKey.from_message(second)
        )

    def test_different_types_map_to_different_tracks(self):
        a_key = DnsQuestionKey(Name.from_text("example.com"), RecordType.A)
        https_key = DnsQuestionKey(Name.from_text("example.com"), RecordType.HTTPS)
        assert question_to_track(a_key) != question_to_track(https_key)

    def test_qname_budget_is_4091_bytes(self):
        assert QNAME_BYTE_BUDGET == 4091

    def test_combined_length_stays_within_moqt_limit(self):
        longest_label = "a" * 63
        name = Name.from_text(".".join([longest_label] * 3) + ".example.com")
        track = question_to_track(DnsQuestionKey(name, RecordType.A))
        assert track.encoded_length() <= 4096


class TestTrackToQuestion:
    def test_rejects_wrong_namespace_shape(self):
        bad = FullTrackName(TrackNamespace.of(b"\x10"), b"\x00")
        with pytest.raises(MappingError):
            track_to_question(bad)

    def test_rejects_bad_element_sizes(self):
        bad = FullTrackName(
            TrackNamespace((b"\x10\x00", b"\x00\x01", b"\x00\x01")), Name.root().to_wire()
        )
        with pytest.raises(MappingError):
            track_to_question(bad)

    def test_rejects_trailing_bytes_after_qname(self):
        key = DnsQuestionKey(Name.from_text("example.com"), RecordType.A)
        track = question_to_track(key)
        bad = FullTrackName(track.namespace, track.name + b"\x01x")
        with pytest.raises(MappingError):
            track_to_question(bad)

    def test_rejects_unknown_qtype(self):
        namespace = TrackNamespace((b"\x10", (999).to_bytes(2, "big"), (1).to_bytes(2, "big")))
        with pytest.raises(MappingError):
            track_to_question(FullTrackName(namespace, Name.root().to_wire()))


class TestEncapsulation:
    def _response(self, message_id: int = 55) -> tuple:
        query = query_with_id("www.example.com", "A", message_id)
        record = ResourceRecord(
            Name.from_text("www.example.com"), RecordType.A, ARdata("192.0.2.4"), 300
        )
        return query, make_response(query, answers=[record], authoritative=True)

    def test_object_metadata_follows_fig4(self):
        _, response = self._response()
        obj = encapsulate_response(response, zone_version=17)
        assert obj.group_id == 17
        assert obj.object_id == DNS_OBJECT_ID == 0
        assert obj.subgroup_id == 0
        assert obj.group_id == 17

    def test_payload_is_full_dns_message(self):
        _, response = self._response()
        obj = encapsulate_response(response, zone_version=3)
        decoded = decapsulate_response(obj)
        assert decoded.answers[0].rdata == ARdata("192.0.2.4")
        assert decoded.question.qname == Name.from_text("www.example.com")
        assert decoded.rcode == Rcode.NOERROR

    def test_message_id_normalised_for_identical_objects(self):
        _, first = self._response(message_id=100)
        _, second = self._response(message_id=200)
        assert (
            encapsulate_response(first, 5).payload == encapsulate_response(second, 5).payload
        )

    def test_normalize_preserves_flags_and_sections(self):
        _, response = self._response()
        normalized = normalize_response(response)
        assert normalized.header.message_id == 0
        assert normalized.header.flags.aa == response.header.flags.aa
        assert normalized.answers == response.answers

    def test_negative_zone_version_rejected(self):
        _, response = self._response()
        with pytest.raises(MappingError):
            encapsulate_response(response, zone_version=-1)

    def test_decapsulate_garbage_rejected(self):
        with pytest.raises(MappingError):
            decapsulate_response(MoqtObject(group_id=1, object_id=0, payload=b"\x01\x02"))
