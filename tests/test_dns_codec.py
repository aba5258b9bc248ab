"""The one-pass DNS message codec (``docs/dns-codec.md``).

* differential: decoding over the per-message name table equals the
  table-less walk (the per-class ``from_wire(wire, offset)`` calls, which stay
  the oracle) on generated messages that compress in every way the wire
  format allows, and on mutations of them;
* golden-hex pins of ``to_wire`` so the encoder's compression choices stay
  frozen;
* the error contract: malformed bytes raise ``DnsFormatError`` and nothing
  else, and the callers that must keep running catch exactly that;
* the values that carry their hash, and the trusted constructors, agree with
  the validating ones.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.encapsulation import decapsulate_response
from repro.core.errors import MappingError
from repro.core.mapping import DnsQuestionKey, question_to_track, track_to_question
from repro.dns.errors import DnsFormatError, MessageError, NameError_, RdataError
from repro.dns.message import Flags, Header, Message, Question, make_query, make_response
from repro.dns.name import MAX_POINTER_JUMPS, Name
from repro.dns.rdata import (
    AAAARdata,
    ARdata,
    CNAMERdata,
    GenericRdata,
    HTTPSRdata,
    MXRdata,
    NSRdata,
    PTRRdata,
    SOARdata,
    SRVRdata,
    SVCBRdata,
    TXTRdata,
    _is_dotted_quad,
    parse_rdata,
)
from repro.dns.rr import ResourceRecord
from repro.dns.transport import DnsUdpEndpoint
from repro.dns.types import DNSClass, Opcode, Rcode, RecordType
from repro.dns.zone import Zone
from repro.moqt.objectmodel import MoqtObject
from repro.netsim.packet import Address, Datagram
from dns_queries import query_with_id


N = Name.from_text


# ------------------------------------------------------------------ the oracle
def decode_without_table(wire: bytes) -> Message:
    """The table-less walk: every name chases its own pointers to the end."""
    header, counts = Header.from_wire(wire)
    offset = 12
    questions = []
    for _ in range(counts[0]):
        question, offset = Question.from_wire(wire, offset)
        questions.append(question)
    sections = [[], [], []]
    for section, count in zip(sections, counts[1:]):
        for _ in range(count):
            record, offset = ResourceRecord.from_wire(wire, offset)
            section.append(record)
    return Message(header, tuple(questions), *map(tuple, sections))


def outcome(decode, wire: bytes):
    """``("ok", message)`` or ``("rejected", None)``; anything but the typed
    error escapes and fails the test."""
    try:
        return "ok", decode(wire)
    except DnsFormatError:
        return "rejected", None


def assert_same_outcome(wire: bytes):
    with_table = outcome(Message.from_wire, wire)
    assert with_table == outcome(decode_without_table, wire)
    return with_table


# ------------------------------------------------- a wire writer of its own
class WireWriter:
    """Writes a message byte by byte with compression choices drawn from
    hypothesis — pointers to whole names, to suffixes, out of RDATA, into
    names first written inside RDATA, mixed-case labels — which
    ``Message.to_wire`` never makes, and builds the expected value through
    the validating constructors beside it."""

    def __init__(self, draw) -> None:
        self.draw = draw
        self.out = bytearray(12)
        #: (offset, lowercase labels from there on) of every label written.
        self.sites: list[tuple[int, tuple[bytes, ...]]] = []

    def name(self, labels: tuple[bytes, ...]) -> Name:
        for index, label in enumerate(labels):
            rest = labels[index:]
            targets = [offset for offset, suffix in self.sites if suffix == rest]
            if targets and self.draw(st.booleans()):
                self.out += (0xC000 | self.draw(st.sampled_from(targets))).to_bytes(2, "big")
                return Name(labels)
            self.sites.append((len(self.out), rest))
            self.out.append(len(label))
            self.out += label.upper() if self.draw(st.booleans()) else label
        self.out.append(0)
        return Name(labels)

    def question(self, labels, qtype: int, qclass: int) -> Question:
        qname = self.name(labels)
        self.out += struct.pack("!HH", qtype, qclass)
        return Question(qname, RecordType(qtype), DNSClass(qclass))

    def record(self, labels, rdtype: int, rdclass: int, ttl: int) -> ResourceRecord:
        owner = self.name(labels)
        self.out += struct.pack("!HHI", rdtype, rdclass, ttl)
        length_at = len(self.out)
        self.out += b"\x00\x00"
        rdata = self.rdata(rdtype)
        struct.pack_into("!H", self.out, length_at, len(self.out) - length_at - 2)
        return ResourceRecord(owner, RecordType(rdtype), rdata, ttl, DNSClass(rdclass))

    def rdata(self, rdtype: int):
        draw, out = self.draw, self.out
        u16, u32 = st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF)
        if rdtype == RecordType.A:
            packed = draw(st.binary(min_size=4, max_size=4))
            out += packed
            return ARdata(str(ipaddress.IPv4Address(packed)))
        if rdtype == RecordType.AAAA:
            packed = draw(st.binary(min_size=16, max_size=16))
            out += packed
            return AAAARdata(str(ipaddress.IPv6Address(packed)))
        if rdtype in (RecordType.NS, RecordType.CNAME, RecordType.PTR):
            klass = {2: NSRdata, 5: CNAMERdata, 12: PTRRdata}[rdtype]
            return klass(self.name(draw(name_labels)))
        if rdtype == RecordType.SOA:
            mname, rname = self.name(draw(name_labels)), self.name(draw(name_labels))
            numbers = [draw(u32) for _ in range(5)]
            out += struct.pack("!IIIII", *numbers)
            return SOARdata(mname, rname, *numbers)
        if rdtype == RecordType.MX:
            preference = draw(u16)
            out += struct.pack("!H", preference)
            return MXRdata(preference, self.name(draw(name_labels)))
        if rdtype == RecordType.SRV:
            numbers = [draw(u16) for _ in range(3)]
            out += struct.pack("!HHH", *numbers)
            return SRVRdata(*numbers, self.name(draw(name_labels)))
        if rdtype in (RecordType.SVCB, RecordType.HTTPS):
            priority = draw(u16)
            out += struct.pack("!H", priority)
            target = self.name(draw(name_labels))
            # In key order, as ``to_wire`` writes them (RFC 9460 section 2.2).
            pairs = st.lists(
                st.tuples(u16, st.binary(max_size=6)), max_size=3, unique_by=lambda pair: pair[0]
            )
            params = tuple(sorted(draw(pairs)))
            for key, value in params:
                out += struct.pack("!HH", key, len(value)) + value
            klass = SVCBRdata if rdtype == RecordType.SVCB else HTTPSRdata
            return klass(priority, target, params)
        if rdtype == RecordType.TXT:
            strings = tuple(draw(st.lists(st.binary(max_size=9), max_size=3)))
            for item in strings:
                out.append(len(item))
                out += item
            return TXTRdata(strings)
        data = draw(st.binary(max_size=12))
        out += data
        return GenericRdata(rdtype, data)


#: Few labels, so that names share suffixes and pointers have targets.
name_labels = st.lists(
    st.sampled_from([b"a", b"bb", b"www", b"ns1", b"example", b"com", b"net", b"x-1"]),
    max_size=4,
).map(tuple)
rr_types = st.sampled_from([1, 2, 5, 6, 12, 15, 16, 28, 33, 64, 65, 41, 43, 99, 65280])
rr_classes = st.sampled_from([1, 1, 1, 3, 254, 255, 77])
header_words = st.builds(
    lambda bits, opcode, rcode: bits | (opcode << 11) | rcode,
    st.integers(0, 0xFFFF).map(lambda value: value & 0x87F0),  # flags and the Z bits
    st.sampled_from(list(Opcode)).map(int),
    st.sampled_from(list(Rcode)).map(int),
)


@st.composite
def written_messages(draw) -> tuple[bytes, Message]:
    writer = WireWriter(draw)
    message_id, word = draw(st.integers(0, 0xFFFF)), draw(header_words)
    questions = [
        writer.question(draw(name_labels), draw(rr_types), draw(rr_classes))
        for _ in range(draw(st.integers(0, 2)))
    ]
    sections = [
        [
            writer.record(
                draw(name_labels), draw(rr_types), draw(rr_classes), draw(st.integers(0, 0xFFFFFFFF))
            )
            for _ in range(draw(st.integers(0, 3)))
        ]
        for _ in range(3)
    ]
    struct.pack_into(
        "!HHHHHH", writer.out, 0, message_id, word, len(questions), *(map(len, sections))
    )
    flags, opcode, rcode = Flags.from_int(word)
    return bytes(writer.out), Message(
        Header(message_id, flags, opcode, rcode), tuple(questions), *map(tuple, sections)
    )


# ------------------------------------------------------------- differential
@given(written_messages())
@settings(max_examples=300)
def test_table_decode_equals_tableless_walk_and_the_written_value(written):
    wire, expected = written
    assert Message.from_wire(wire) == expected
    assert decode_without_table(wire) == expected
    assert Message.from_wire(memoryview(wire)) == expected


@given(written_messages())
def test_decoded_messages_reencode_to_bytes_that_decode_to_the_same_value(written):
    wire, expected = written
    assert Message.from_wire(Message.from_wire(wire).to_wire()) == expected


@given(written_messages(), st.data())
@settings(max_examples=300)
def test_mutated_messages_raise_only_the_typed_error_and_agree_with_the_oracle(written, data):
    wire = bytearray(written[0])
    for _ in range(data.draw(st.integers(1, 4))):
        position = data.draw(st.integers(0, len(wire) - 1))
        # Biased to the bytes that matter: pointers, reserved label types, zero.
        wire[position] = data.draw(
            st.one_of(st.sampled_from([0x00, 0x3F, 0x40, 0x80, 0xC0, 0xFF]), st.integers(0, 255))
        )
    cut = data.draw(st.integers(0, len(wire)))
    assert_same_outcome(bytes(wire))
    assert_same_outcome(bytes(wire[:cut]))


def test_a_name_first_seen_inside_rdata_is_filed_for_later_pointers():
    # NS RDATA at 29 holds "ns1.example.com."; the glue's owner points at it,
    # and "example.com." inside it (offset 33) is pointed at by a third owner.
    wire = bytes.fromhex(
        "000080000000000300000000"
        "00" "0002" "0001" "00000e10" "0011" "036e7331076578616d706c6503636f6d00"
        "c017" "0001" "0001" "00000e10" "0004" "c0000235"
        "c01b" "0001" "0001" "00000e10" "0004" "c0000236"
    )
    message = Message.from_wire(wire)
    assert message == decode_without_table(wire)
    assert [record.name for record in message.answers] == [
        Name.root(), N("ns1.example.com."), N("example.com.")
    ]
    assert message.answers[0].rdata == NSRdata(N("ns1.example.com."))
    # One object per name per message: the pointer is answered from the table.
    assert message.answers[1].name is message.answers[0].rdata.target


# ------------------------------------------------------------- golden pins
def _rr(name, rdtype, rdata, ttl):
    return ResourceRecord(N(name), rdtype, rdata, ttl)


def golden_referral() -> Message:
    query = query_with_id("www.example.com.", RecordType.A, 0x1234, recursion_desired=False)
    return make_response(
        query,
        authorities=[
            _rr("example.com.", RecordType.NS, NSRdata(N("ns1.example.com.")), 172800),
            _rr("example.com.", RecordType.NS, NSRdata(N("ns2.example.net.")), 172800),
        ],
        additionals=[
            _rr("ns1.example.com.", RecordType.A, ARdata("192.0.2.53"), 172800),
            _rr("ns2.example.net.", RecordType.A, ARdata("198.51.100.53"), 172800),
        ],
    )


def golden_answer() -> Message:
    query = make_query("Host7.Example.com.", RecordType.A)
    addresses = ("203.0.114.1", "203.0.68.2", "203.0.184.3", "203.0.205.4")
    return make_response(
        query,
        answers=[_rr("host7.example.com.", RecordType.A, ARdata(a), 300) for a in addresses],
        authoritative=True,
    )


def golden_nxdomain() -> Message:
    query = query_with_id("missing.example.com.", RecordType.AAAA, 7)
    soa = SOARdata(N("ns1.example.com."), N("hostmaster.example.com."), 2024010101)
    return make_response(
        query,
        authorities=[_rr("example.com.", RecordType.SOA, soa, 300)],
        rcode=Rcode.NXDOMAIN,
        authoritative=True,
        recursion_available=True,
    )


GOLDEN = {
    # NS targets are written in full and never become pointer targets; the
    # glue owners compress against the question and the first NS owner only.
    "referral": (
        golden_referral,
        "12348000000100000002000203777777076578616d706c6503636f6d0000010001c010000200010002a300"
        "0011036e7331076578616d706c6503636f6d00c010000200010002a3000011036e7332076578616d706c65"
        "036e657400036e7331c010000100010002a3000004c0000235036e7332076578616d706c65036e65740000"
        "0100010002a3000004c6336435",
    ),
    # The benchmark's pushed answer: four owners, each a pointer to offset 12.
    "answer": (
        golden_answer,
        "00008500000100040000000005686f737437076578616d706c6503636f6d0000010001c00c000100010000"
        "012c0004cb007201c00c000100010000012c0004cb004402c00c000100010000012c0004cb00b803c00c00"
        "0100010000012c0004cb00cd04",
    ),
    "nxdomain": (
        golden_nxdomain,
        "000785830001000000010000076d697373696e67076578616d706c6503636f6d00001c0001c01400060001"
        "0000012c003d036e7331076578616d706c6503636f6d000a686f73746d6173746572076578616d706c6503"
        "636f6d0078a3f17500000e1000000258000151800000012c",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_to_wire_is_pinned(case):
    build, pinned = GOLDEN[case]
    message = build()
    wire = message.to_wire()
    assert wire.hex() == pinned
    assert Message.from_wire(wire) == message == decode_without_table(wire)


# ----------------------------------------------------- the malformed corpus
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_truncation_at_every_offset_raises_the_typed_error(case):
    wire = bytes.fromhex(GOLDEN[case][1])
    for cut in range(len(wire)):
        assert assert_same_outcome(wire[:cut])[0] == "rejected", cut


def _message(*body: bytes, counts=(1, 0, 0, 0)) -> bytes:
    return struct.pack("!HHHHHH", 0, 0x0100, *counts) + b"".join(body)


QUESTION_TAIL = b"\x00\x01\x00\x01"


def _answer(record: bytes) -> bytes:
    """The question ``a. IN A`` and one answer record, its owner at offset 12."""
    return _message(b"\x01a\x00", QUESTION_TAIL, record, counts=(1, 1, 0, 0))


RR_A = b"\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04\x7f\x00\x00\x01"
LABEL63 = b"\x3f" + b"a" * 63

MALFORMED = {
    "pointer loop": _message(b"\x01a\xc0\x0c", QUESTION_TAIL),
    "self pointer": _message(b"\xc0\x0c", QUESTION_TAIL),
    "forward pointer": _message(b"\xc0\x12", QUESTION_TAIL, b"\x00\x00"),
    # Read as lengths (64, 128) both would frame a well-formed question.
    "reserved label type 01": _message(b"\x40" + b"a" * 64 + b"\x00", QUESTION_TAIL),
    "reserved label type 10": _message(b"\x80" + b"a" * 128 + b"\x00", QUESTION_TAIL),
    "label runs past the end": _message(b"\x05ab"),
    "no question tail": _message(b"\x01a\x00\x00\x01"),
    "name of 257 bytes written flat": _message(LABEL63 * 4 + b"\x00", QUESTION_TAIL),
    # 193 bytes at offset 12 are a valid name; 64 more in front are not.
    "name of 257 bytes through a pointer": _message(
        LABEL63 * 3 + b"\x00", QUESTION_TAIL, LABEL63 + b"\xc0\x0c", RR_A, counts=(1, 1, 0, 0)
    ),
    "counts larger than the body": _message(b"\x01a\x00", QUESTION_TAIL, counts=(1, 3, 0, 0)),
    "record cut inside its fixed part": _answer(b"\xc0\x0c\x00\x01\x00\x01\x00"),
    "RDLENGTH past the end": _answer(b"\xc0\x0c" + RR_A[:8] + b"\x00\x09\x7f\x00\x00\x01"),
    "A with RDLENGTH 3": _answer(b"\xc0\x0c" + RR_A[:8] + b"\x00\x03\x7f\x00\x00"),
    "NS whose RDLENGTH is one more than its name": _answer(
        b"\xc0\x0c\x00\x02\x00\x01\x00\x00\x00\x3c\x00\x03\xc0\x0c\x00"
    ),
    "MX whose RDLENGTH is one less than its name": _answer(
        b"\xc0\x0c\x00\x0f\x00\x01\x00\x00\x00\x3c\x00\x04\x00\x0a\x01b\x00"
    ),
    "SOA without its five integers": _answer(
        b"\xc0\x0c\x00\x06\x00\x01\x00\x00\x00\x3c\x00\x04\xc0\x0c\xc0\x0c"
    ),
    "TXT string past RDLENGTH": _answer(b"\xc0\x0c\x00\x10\x00\x01\x00\x00\x00\x3c\x00\x02\x05ab"),
    "SVCB parameter header cut": _answer(
        b"\xc0\x0c\x00\x40\x00\x01\x00\x00\x00\x3c\x00\x05\x00\x01\x00\x00\x01"
    ),
    "opcode 3 is unassigned": struct.pack("!HHHHHH", 0, 3 << 11, 0, 0, 0, 0),
    "rcode 15 is not carried": struct.pack("!HHHHHH", 0, 15, 0, 0, 0, 0),
    "shorter than a header": b"\x00" * 11,
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_messages_raise_the_typed_error(case):
    assert assert_same_outcome(MALFORMED[case])[0] == "rejected"


def test_a_pointer_to_bytes_never_read_as_a_name_is_walked_there_as_before():
    # Offset 5 is the low byte of QDCOUNT: 01, then 00 as the label, then the
    # root.  Nothing is filed there, so the table decode walks it like the oracle.
    status, message = assert_same_outcome(_message(b"\xc0\x05", QUESTION_TAIL))
    assert status == "ok" and message.question.qname == Name([b"\x00"])


def test_the_257_byte_name_is_rejected_by_the_length_check_on_a_table_hit():
    wire = MALFORMED["name of 257 bytes through a pointer"]
    with pytest.raises(NameError_, match="too long"):
        Message.from_wire(wire)
    # One label fewer in front fits (exactly 255 bytes would need 62; 193 + 62).
    shorter = _message(
        LABEL63 * 3 + b"\x00", QUESTION_TAIL, b"\x3d" + b"b" * 61 + b"\xc0\x0c", RR_A,
        counts=(1, 1, 0, 0),
    )
    assert assert_same_outcome(shorter)[0] == "ok"
    assert len(Message.from_wire(shorter).answers[0].name.to_wire()) == 255


def _pointer_chain_message(chain_jumps: int) -> bytes:
    """An opaque RDATA holding a root label and ``chain_jumps`` pointers, each
    to the one before; then ``a`` + pointer to the chain's end, then ``b`` +
    pointer to that ``a``.  The third owner takes ``chain_jumps + 2`` jumps."""
    header_and_fixed = 12 + 1 + 10
    chain = bytearray(b"\x00")
    for index in range(chain_jumps):
        target = header_and_fixed + (0 if index == 0 else 1 + 2 * (index - 1))
        chain += (0xC000 | target).to_bytes(2, "big")
    first = b"\x00" + struct.pack("!HHIH", 99, 1, 0, len(chain)) + bytes(chain)
    chain_end = header_and_fixed + len(chain) - 2
    a_at = 12 + len(first)
    second = b"\x01a" + (0xC000 | chain_end).to_bytes(2, "big") + RR_A
    third = b"\x01b" + (0xC000 | a_at).to_bytes(2, "big") + RR_A
    return _message(first, second, third, counts=(0, 3, 0, 0))


def test_the_jump_limit_counts_the_jumps_behind_a_table_hit():
    at_the_limit = _pointer_chain_message(MAX_POINTER_JUMPS - 2)
    status, message = assert_same_outcome(at_the_limit)
    assert status == "ok"
    assert [record.name for record in message.answers] == [Name.root(), N("a."), N("b.a.")]
    # One more jump in the chain: "a." alone still decodes (128 jumps), "b.a."
    # would take 129 — a table hit on "a." must not hide them.
    over = _pointer_chain_message(MAX_POINTER_JUMPS - 1)
    assert assert_same_outcome(over)[0] == "rejected"
    name, _ = Name.from_wire(over, over.index(b"\x01a"))
    assert name == N("a.")


def test_typed_errors_share_one_base_and_stay_value_errors():
    for error in (MessageError, NameError_, RdataError):
        assert issubclass(error, DnsFormatError)
    assert issubclass(DnsFormatError, ValueError)
    with pytest.raises(MessageError):
        Message.from_wire(MALFORMED["record cut inside its fixed part"])
    with pytest.raises(RdataError):
        Message.from_wire(MALFORMED["NS whose RDLENGTH is one more than its name"])
    with pytest.raises(RdataError):
        NSRdata.from_wire(b"\x01a\x00\x00", 0, 4)


# -------------------------------------- callers catch the typed error only
def test_decapsulate_wraps_format_errors_and_lets_bugs_through(monkeypatch):
    with pytest.raises(MappingError):
        decapsulate_response(MoqtObject(group_id=1, object_id=0, payload=b"\x00" * 7))
    with pytest.raises(MappingError):
        decapsulate_response(
            MoqtObject(group_id=1, object_id=0, payload=MALFORMED["record cut inside its fixed part"])
        )

    def broken(wire):
        raise RuntimeError("a bug, not a malformed message")

    monkeypatch.setattr(Message, "from_wire", broken)
    with pytest.raises(RuntimeError):
        decapsulate_response(MoqtObject(group_id=1, object_id=0, payload=b"\x00" * 12))


def test_track_to_question_wraps_format_errors_and_lets_bugs_through(monkeypatch):
    track = question_to_track(DnsQuestionKey(N("www.example.com."), RecordType.A))
    with pytest.raises(MappingError):
        track_to_question(replace(track, name=b"\x03ww"))

    def broken(wire, offset):
        raise RuntimeError("a bug, not a malformed name")

    monkeypatch.setattr(Name, "from_wire", broken)
    with pytest.raises(RuntimeError):
        track_to_question(track)


def test_udp_endpoint_drops_malformed_datagrams_and_lets_bugs_through(two_host_network, monkeypatch):
    received = []
    endpoint = DnsUdpEndpoint(
        two_host_network.host("10.0.0.1"), port=53,
        handler=lambda query, source, respond: received.append(query),
    )
    source = Address("10.0.0.2", 5353)

    def deliver(payload: bytes) -> None:
        endpoint.datagram_received(
            Datagram(source=source, destination=endpoint.address, payload=payload, protocol="udp-dns")
        )

    for wire in MALFORMED.values():
        deliver(wire)
    assert received == []
    deliver(query_with_id("www.example.com.", RecordType.A, 9).to_wire())
    assert len(received) == 1

    def broken(wire):
        raise RuntimeError("a bug, not a malformed message")

    monkeypatch.setattr(Message, "from_wire", broken)
    with pytest.raises(RuntimeError):
        deliver(b"\x00" * 12)


# ------------------------------------------- unknown TYPE and CLASS round-trip
def test_records_of_unknown_type_and_class_round_trip_byte_exact():
    known = _rr("host.example.com.", RecordType.A, ARdata("192.0.2.1"), 60)
    body = (
        b"\xc0\x0c" + struct.pack("!HHIH", 99, 77, 3600, 2) + b"\x01\x02"
        + b"\xc0\x0c" + struct.pack("!HHIH", 46, 1, 3600, 3) + b"\xc0\x0c\x07"  # RRSIG-like: opaque
    )
    wire = bytearray(make_response(make_query("host.example.com.", "A"), answers=[known]).to_wire())
    struct.pack_into("!H", wire, 10, 2)  # ARCOUNT
    wire = bytes(wire) + body

    message = Message.from_wire(wire)
    assert message == decode_without_table(wire)
    opaque, rrsig = message.additionals
    assert (int(opaque.rdtype), int(opaque.rdclass)) == (99, 77)
    assert opaque.rdata == GenericRdata(99, b"\x01\x02")
    assert rrsig.rdata == GenericRdata(46, b"\xc0\x0c\x07")  # not read as a name
    assert opaque.to_text() == "host.example.com. 3600 CLASS77 TYPE99 \\# 2 0102"
    assert message.to_wire() == wire
    assert ResourceRecord.from_wire(opaque.to_wire(), 0)[0] == opaque

    # RFC 3597 text forms parse back to the same values.
    assert RecordType.from_text("TYPE99") == opaque.rdtype == RecordType(99)
    assert DNSClass.from_text("class77") == opaque.rdclass
    assert RecordType.from_text("TYPE1") is RecordType.A
    assert parse_rdata(RecordType(99), "\\# 2 0102") == opaque.rdata
    assert parse_rdata(RecordType(99), "\\# 0") == GenericRdata(99, b"")
    for text in ("\\# 3 0102", "\\# 2 01zz", "0102", "\\# x 0102"):
        with pytest.raises(RdataError):
            parse_rdata(RecordType(99), text)
    for text in ("TYPE", "TYPE65536", "TYPE-1", "TYPE1x", "CLASS1"):
        with pytest.raises(ValueError):
            RecordType.from_text(text)
    zone = Zone("example.com.")
    zone.add("host.example.com.", "TYPE99", "\\# 2 0102", ttl=60)
    assert zone.get_rrset(N("host.example.com."), RecordType(99)).records[0].rdata == opaque.rdata


def test_a_question_of_unknown_type_decodes_but_maps_to_no_track():
    wire = _message(b"\x01a\x00", struct.pack("!HH", 999, 1))
    question = Message.from_wire(wire).question
    assert question.to_text() == "a. IN TYPE999"
    assert Message.from_wire(wire).to_wire() == wire
    track = question_to_track(DnsQuestionKey(question.qname, question.qtype))
    with pytest.raises(MappingError):
        track_to_question(track)


# ------------------------------------------------- values that carry their hash
@given(name_labels, st.data())
def test_equal_names_hash_equal_across_every_constructor(labels, data):
    text = ".".join(label.decode() for label in labels) + "."
    flat = b"".join(bytes([len(label)]) + label.upper() for label in labels) + b"\x00"
    behind_pointer = flat + b"\x03www\xc0\x00"
    built = [
        Name(labels),
        Name(label.upper() for label in labels),
        Name.from_text(text),
        Name.from_text(text.upper()),
        Name._from_labels(labels),
        Name.from_wire(flat, 0)[0],
        Name.from_wire(flat, 0, {})[0],
        Name.from_wire(behind_pointer, len(flat))[0].parent(),
        Name.from_wire(behind_pointer, len(flat), {})[0].parent(),
        Name(labels).child("www").parent(),
        Name(labels).child(b"WWW").ancestors()[1],
    ]
    if labels:
        built.append(Name(labels[1:]).child(labels[0]))
        built.append(Name(labels[1:]).child(labels[0].decode().upper()))
    for name in built:
        assert name == built[0] and hash(name) == hash(built[0]) == hash(labels)
        assert {built[0]: 1}[name] == 1
    other = data.draw(name_labels)
    assert (Name(other) == built[0]) == (other == labels)
    assert Name.root() is Name.from_text(".") and hash(Name.root()) == hash(())


@given(
    name_labels,
    st.sampled_from([RecordType.A, RecordType.AAAA, RecordType.HTTPS, RecordType.NS]),
    st.booleans(),
    st.booleans(),
)
def test_equal_question_keys_hash_equal_across_every_constructor(labels, qtype, rd, cd):
    key = DnsQuestionKey(Name(labels), qtype, recursion_desired=rd, checking_disabled=cd)
    query = make_query(Name(labels), qtype, recursion_desired=rd)
    query = replace(query, header=replace(query.header, flags=replace(query.header.flags, cd=cd)))
    built = [
        DnsQuestionKey(Name.from_text(key.qname.to_text().upper()), qtype, DNSClass.IN, Opcode.QUERY, rd, cd),
        DnsQuestionKey.from_message(query),
        DnsQuestionKey.from_message(Message.from_wire(query.to_wire())),
        track_to_question(question_to_track(key)),
        replace(key),
    ]
    for other in built:
        assert other == key and hash(other) == hash(key)
        assert {key: 1}[other] == 1
    for changed in (
        replace(key, qtype=RecordType.TXT),
        replace(key, recursion_desired=not rd),
        replace(key, qname=key.qname.child("x")),
    ):
        assert changed != key and {key: 1}.get(changed) is None
        assert hash(changed) == hash(replace(changed))


# ------------------------------------------------------- address validation
def _ipaddress_accepts(text: str) -> bool:
    try:
        ipaddress.IPv4Address(text)
    except ValueError:
        return False
    return True


#: Near-misses of a dotted quad: leading zeros, empty and long octets, 256,
#: non-ASCII digits, signs, spaces, a fifth octet — and arbitrary text.
_octets = st.one_of(
    st.integers(0, 300).map(str),
    st.sampled_from(["", "0", "00", "01", "255", "256", "1e1", "+1", "-1", " 1", "1 ", "٣", "²", "0x1"]),
    st.text(alphabet="0123456789", max_size=4),
)
address_texts = st.one_of(
    st.lists(_octets, min_size=3, max_size=5).map(".".join),
    st.text(max_size=20),
    st.text(alphabet="0123456789.", max_size=16),
)


@given(address_texts)
@example("0.0.0.0")
@example("255.255.255.255")
@example("1.2.3.256")
@example("256.2.3.4")
@example("1.02.3.4")
@example("1.2.3.0255")
@example("1.2.3")
@example("1.2.3.4.5")
@example("1..3.4")
@example("1.2.3.4\n")
@example(" 1.2.3.4")
@example("1.2.3.٤")
@settings(max_examples=500)
def test_a_rdata_accepts_exactly_what_ipaddress_accepts(text):
    try:
        rdata = ARdata(text)
    except ValueError as error:
        assert not _ipaddress_accepts(text)
        assert isinstance(error, ipaddress.AddressValueError)  # its precise error
    else:
        assert _ipaddress_accepts(text)
        assert rdata.to_wire() == ipaddress.IPv4Address(text).packed
        assert ARdata.from_wire(rdata.to_wire(), 0, 4) == rdata


def _is_dotted_quad_reference(text: object) -> bool:
    """The octet-by-octet check ``_is_dotted_quad`` was before it became one
    compiled pattern."""
    if type(text) is not str:
        return False
    octets = text.split(".")
    if len(octets) != 4:
        return False
    for octet in octets:
        if not (octet.isascii() and octet.isdigit()) or len(octet) > 3:
            return False
        if (octet[0] == "0" and len(octet) > 1) or int(octet) > 255:
            return False
    return True


@given(address_texts)
@example("0.0.0.0")
@example("255.255.255.255")
@example("9.10.99.100")
@example("249.250.199.200")
@example("01.2.3.4")
@example("1.2.3.00")
@example("1.2.3.256")
@example("1.2.300.4")
@example("1.2.3.1000")
@example("1.2.3.0001")
@example("1.2.3")
@example("1.2.3.4.5")
@example("1.2..4")
@example(".1.2.3")
@example("1.2.3.")
@example("1.2.3.4 ")
@example(" 1.2.3.4")
@example("1.2. 3.4")
@example("1.2.3.4\n")
@example("1.2.3.\u0661")
@example("\u0661.2.3.4")
@example("1.2.3.\u00b2")
@settings(max_examples=500)
def test_dotted_quad_is_the_reference_check_and_what_ipaddress_accepts(text):
    assert _is_dotted_quad(text) == _is_dotted_quad_reference(text) == _ipaddress_accepts(text)


def test_only_a_str_is_a_dotted_quad():
    for other in (b"1.2.3.4", None, 1234, ["1", "2", "3", "4"]):
        assert not _is_dotted_quad(other) and not _is_dotted_quad_reference(other)


def test_aaaa_rdata_keeps_the_forms_it_computed_and_equality_on_the_given_text():
    given_text = "2001:0DB8:0000::0001"
    rdata = AAAARdata(given_text)
    assert rdata.address == given_text
    assert rdata.to_text() == "2001:db8::1"
    assert rdata.to_wire() == ipaddress.IPv6Address(given_text).packed
    decoded = AAAARdata.from_wire(rdata.to_wire(), 0, 16)
    assert decoded == AAAARdata("2001:db8::1") and decoded != rdata
    assert (decoded.to_wire(), decoded.to_text()) == (rdata.to_wire(), rdata.to_text())
    moved = replace(rdata, address="::2")
    assert (moved.to_text(), moved.to_wire()[-1]) == ("::2", 2)
    with pytest.raises(ValueError):
        AAAARdata("2001:db8::g")


# -------------------------------------------------------- trusted constructors
def test_wire_derived_values_equal_the_validated_ones_and_api_input_is_still_checked():
    message = Message.from_wire(bytes.fromhex(GOLDEN["answer"][1]))
    record = message.answers[0]
    assert record == ResourceRecord(record.name, record.rdtype, record.rdata, record.ttl, record.rdclass)
    assert hash(record) == hash(replace(record))
    assert record.with_ttl(5).ttl == 5 and record.with_ttl(5).rdata is record.rdata
    assert message.header == Header(0, Flags(qr=True, aa=True, rd=True), Opcode.QUERY, Rcode.NOERROR)
    assert message.question == Question(N("host7.example.com."), RecordType.A)
    assert repr(record) == repr(replace(record))
    # An unsigned 32-bit TTL cannot be negative, so decoding does not re-check
    # it; the constructor, fed by API and text input, still does.
    wire = bytearray.fromhex(GOLDEN["answer"][1])
    struct.pack_into("!I", wire, 41, 0xFFFFFFFF)
    assert Message.from_wire(bytes(wire)).answers[0].ttl == 0xFFFFFFFF
    with pytest.raises(ValueError):
        ResourceRecord(record.name, RecordType.A, record.rdata, ttl=-1)
    with pytest.raises(NameError_):
        Name([b"a" * 64])
    with pytest.raises(NameError_):
        N("a.example.com.").child(b"")
    with pytest.raises(RdataError):
        TXTRdata((b"x" * 256,))


def test_flags_are_interned_and_every_header_word_round_trips():
    for word in range(0, 0x10000, 0x10):
        opcode = (word >> 11) & 0xF
        if opcode not in set(map(int, Opcode)):
            with pytest.raises(MessageError):
                Flags.from_int(word)
            continue
        flags, decoded_opcode, rcode = Flags.from_int(word)
        assert flags is Flags.from_int(word | 0x40)[0]  # the Z bit is ignored, as before
        assert flags.to_int(decoded_opcode, rcode) == word & ~0x40
        assert flags == Flags(
            qr=bool(word & 0x8000), aa=bool(word & 0x0400), tc=bool(word & 0x0200),
            rd=bool(word & 0x0100), ra=bool(word & 0x0080), ad=bool(word & 0x0020),
            cd=bool(word & 0x0010),
        )
