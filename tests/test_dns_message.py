"""Tests for DNS message encoding, decoding and builders."""

from __future__ import annotations

import pytest

from repro.dns.message import (
    Flags,
    Header,
    Message,
    MessageError,
    Question,
    make_query,
    make_response,
)
from repro.dns.name import Name
from repro.dns.rdata import ARdata, CNAMERdata, SOARdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import DNSClass, Opcode, Rcode, RecordType


def _a_record(name: str, address: str, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(Name.from_text(name), RecordType.A, ARdata(address), ttl)


class TestFlagsAndHeader:
    def test_flags_roundtrip_through_int(self):
        flags = Flags(qr=True, aa=True, rd=True, ra=True, cd=True)
        value = flags.to_int(Opcode.QUERY, Rcode.NXDOMAIN)
        decoded, opcode, rcode = Flags.from_int(value)
        assert decoded == flags
        assert opcode == Opcode.QUERY
        assert rcode == Rcode.NXDOMAIN

    def test_opcode_bits_preserved(self):
        value = Flags().to_int(Opcode.UPDATE, Rcode.NOERROR)
        _, opcode, _ = Flags.from_int(value)
        assert opcode == Opcode.UPDATE

    def test_header_too_short_rejected(self):
        with pytest.raises(MessageError):
            Header.from_wire(b"\x00" * 5)


class TestMessageWireFormat:
    def test_query_roundtrip(self):
        query = make_query("www.example.com", "A", message_id=4711)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.header.message_id == 4711
        assert decoded.question.qname == Name.from_text("www.example.com")
        assert decoded.question.qtype == RecordType.A
        assert decoded.question.qclass == DNSClass.IN
        assert not decoded.is_response

    def test_response_roundtrip_with_all_sections(self):
        query = make_query("www.example.com", "A", message_id=9)
        soa = ResourceRecord(
            Name.from_text("example.com"),
            RecordType.SOA,
            SOARdata(Name.from_text("ns1.example.com"), Name.from_text("admin.example.com"), 3),
            300,
        )
        response = make_response(
            query,
            answers=[_a_record("www.example.com", "192.0.2.1")],
            authorities=[soa],
            additionals=[_a_record("ns1.example.com", "192.0.2.53")],
            authoritative=True,
        )
        decoded = Message.from_wire(response.to_wire())
        assert decoded.is_response
        assert decoded.header.flags.aa
        assert len(decoded.answers) == 1
        assert len(decoded.authorities) == 1
        assert len(decoded.additionals) == 1
        assert decoded.answers[0].rdata == ARdata("192.0.2.1")

    def test_compression_shrinks_message(self):
        query = make_query("www.example.com", "A")
        response = make_response(
            query,
            answers=[
                _a_record("www.example.com", "192.0.2.1"),
                _a_record("www.example.com", "192.0.2.2"),
            ],
        )
        wire = response.to_wire()
        # The owner name appears three times logically; compression should
        # keep the message well below three full copies of the name.
        assert len(wire) < 12 + 21 + 3 * (17 + 14)
        assert Message.from_wire(wire).answers[1].name == Name.from_text("www.example.com")

    def test_message_id_mirrored_in_response(self):
        query = make_query("a.example.", "AAAA", message_id=77)
        response = make_response(query, rcode=Rcode.NXDOMAIN)
        assert response.header.message_id == 77
        assert response.rcode == Rcode.NXDOMAIN
        assert response.questions == query.questions

    def test_rd_and_cd_flags_copied_from_query(self):
        query = make_query("a.example.", "A", recursion_desired=False, checking_disabled=True)
        response = make_response(query)
        assert response.header.flags.rd is False
        assert response.header.flags.cd is True

    def test_question_accessor_requires_question(self):
        with pytest.raises(MessageError):
            Message().question


class TestMessageHelpers:
    def test_answer_rrset_collects_matching_type(self):
        query = make_query("www.example.com", "A")
        response = make_response(
            query,
            answers=[
                ResourceRecord(
                    Name.from_text("www.example.com"),
                    RecordType.CNAME,
                    CNAMERdata(Name.from_text("cdn.example.net")),
                    300,
                ),
                _a_record("www.example.com", "192.0.2.1"),
            ],
        )
        rrset = response.answer_rrset(RecordType.A)
        assert rrset is not None and len(rrset) == 1
        assert response.answer_rrset(RecordType.AAAA) is None

    def test_to_text_contains_sections(self):
        query = make_query("www.example.com", "A")
        response = make_response(query, answers=[_a_record("www.example.com", "192.0.2.1")])
        text = response.to_text()
        assert "QUESTION SECTION" in text and "ANSWER SECTION" in text

    def test_size_matches_wire_length(self):
        query = make_query("www.example.com", "HTTPS")
        assert query.size == len(query.to_wire())


class TestRRsetSemantics:
    def test_rrset_rejects_foreign_records(self):
        rrset = RRset(Name.from_text("a.example."), RecordType.A)
        with pytest.raises(ValueError):
            rrset.add(_a_record("b.example.", "192.0.2.1"))

    def test_rrset_equality_ignores_order(self):
        records = [
            _a_record("a.example.", "192.0.2.1"),
            _a_record("a.example.", "192.0.2.2"),
        ]
        first = RRset(Name.from_text("a.example."), RecordType.A, records)
        second = RRset(Name.from_text("a.example."), RecordType.A, list(reversed(records)))
        assert first == second
        assert first.sorted_rdata_texts() == second.sorted_rdata_texts()

    def test_rrset_ttl_is_minimum(self):
        rrset = RRset(
            Name.from_text("a.example."),
            RecordType.A,
            [_a_record("a.example.", "192.0.2.1", ttl=60), _a_record("a.example.", "192.0.2.2", ttl=600)],
        )
        assert rrset.ttl == 60
        assert rrset.with_ttl(10).ttl == 10

    def test_duplicate_records_not_added_twice(self):
        record = _a_record("a.example.", "192.0.2.1")
        rrset = RRset(Name.from_text("a.example."), RecordType.A, [record, record])
        assert len(rrset) == 1

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            _a_record("a.example.", "192.0.2.1", ttl=-1)
