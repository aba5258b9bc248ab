"""Property-based tests (hypothesis) for wire formats and core invariants."""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro.core.encapsulation import decapsulate_response, encapsulate_response
from repro.core.mapping import DnsQuestionKey, question_to_track, track_to_question
from repro.dns.message import Flags, Message, make_query, make_response
from repro.dns.name import Name
from repro.dns.rdata import AAAARdata, ARdata, TXTRdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import DNSClass, Opcode, Rcode, RecordType
from repro.measurement.change_rate import count_changes
from repro.moqt.messages import Subscribe, SubscribeOk, decode_control_message
from repro.moqt.track import FullTrackName, TrackNamespace
from repro.quic.frames import StreamFrame, decode_frames, encode_frames
from repro.quic.varint import MAX_VARINT, decode_varint, encode_varint
from dns_queries import query_with_id

# ----------------------------------------------------------------- strategies

labels = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=12)
domain_names = st.lists(labels, min_size=1, max_size=5).map(
    lambda parts: Name.from_text(".".join(parts))
)
record_types = st.sampled_from(
    [RecordType.A, RecordType.AAAA, RecordType.HTTPS, RecordType.NS, RecordType.TXT]
)
ipv4_addresses = st.tuples(
    st.integers(1, 254), st.integers(0, 255), st.integers(0, 255), st.integers(1, 254)
).map(lambda parts: ".".join(str(part) for part in parts))


@st.composite
def question_keys(draw):
    return DnsQuestionKey(
        qname=draw(domain_names),
        qtype=draw(record_types),
        qclass=DNSClass.IN,
        opcode=Opcode.QUERY,
        recursion_desired=draw(st.booleans()),
        checking_disabled=draw(st.booleans()),
    )


# ----------------------------------------------------------------- varints


@given(st.integers(min_value=0, max_value=MAX_VARINT))
def test_varint_roundtrip(value):
    encoded = encode_varint(value)
    decoded, consumed = decode_varint(encoded)
    assert decoded == value
    assert consumed == len(encoded)


@given(st.lists(st.integers(min_value=0, max_value=MAX_VARINT), min_size=1, max_size=20))
def test_varint_sequences_decode_in_order(values):
    buffer = b"".join(encode_varint(value) for value in values)
    offset = 0
    decoded = []
    while offset < len(buffer):
        value, offset = decode_varint(buffer, offset)
        decoded.append(value)
    assert decoded == values


# ----------------------------------------------------------------- DNS names


@given(domain_names)
def test_name_wire_roundtrip(name):
    wire = name.to_wire()
    decoded, consumed = Name.from_wire(wire, 0)
    assert decoded == name
    assert consumed == len(wire)


@given(domain_names, domain_names)
def test_name_compression_roundtrip(first, second):
    compress = {}
    buffer = bytearray()
    first._append_wire(buffer, compress)
    second_offset = len(buffer)
    second._append_wire(buffer, compress)
    decoded_first, _ = Name.from_wire(bytes(buffer), 0)
    decoded_second, _ = Name.from_wire(bytes(buffer), second_offset)
    assert decoded_first == first
    assert decoded_second == second


@given(domain_names)
def test_subdomain_of_parent_holds(name):
    if not name.is_root and len(name) > 1:
        assert name.is_subdomain_of(name.parent())


# ----------------------------------------------------------------- messages


@given(domain_names, record_types, st.integers(0, 65535), st.booleans())
def test_query_wire_roundtrip(name, rdtype, message_id, rd):
    query = query_with_id(name, rdtype, message_id, recursion_desired=rd)
    decoded = Message.from_wire(query.to_wire())
    assert decoded.question.qname == name
    assert decoded.question.qtype == rdtype
    assert decoded.header.message_id == message_id
    assert decoded.header.flags.rd == rd


@given(
    domain_names,
    st.lists(ipv4_addresses, min_size=1, max_size=6, unique=True),
    st.integers(0, 86400),
)
def test_response_wire_roundtrip_preserves_answers(name, addresses, ttl):
    query = query_with_id(name, RecordType.A, 1)
    records = [
        ResourceRecord(name, RecordType.A, ARdata(address), ttl) for address in addresses
    ]
    response = make_response(query, answers=records, authoritative=True)
    decoded = Message.from_wire(response.to_wire())
    assert sorted(record.rdata.to_text() for record in decoded.answers) == sorted(addresses)
    assert all(record.ttl == ttl for record in decoded.answers)


@given(st.integers(0, 0xFFFF))
def test_flags_roundtrip_through_wire_word(word):
    flags, opcode_value, rcode_value = None, (word >> 11) & 0xF, word & 0xF
    try:
        flags, opcode, rcode = Flags.from_int(word)
    except ValueError:
        return  # unknown opcode/rcode values are out of scope
    # Re-encoding must preserve the bits this implementation models.
    encoded = flags.to_int(opcode, rcode)
    kept_mask = (1 << 15) | (0xF << 11) | (1 << 10) | (1 << 9) | (1 << 8) | (1 << 7) | (1 << 5) | (1 << 4) | 0xF
    assert encoded & kept_mask == word & kept_mask


# ----------------------------------------------------------- question mapping


@given(question_keys())
def test_question_track_mapping_is_bijective(key):
    track = question_to_track(key)
    assert track_to_question(track) == key
    assert track.encoded_length() <= 4096


@given(question_keys(), question_keys())
def test_distinct_questions_map_to_distinct_tracks(first, second):
    if first != second:
        assert question_to_track(first) != question_to_track(second)


# ------------------------------------------------------------- encapsulation


@given(
    question_keys(),
    st.lists(ipv4_addresses, min_size=0, max_size=4, unique=True),
    st.integers(min_value=0, max_value=2**40),
)
def test_encapsulation_roundtrip(key, addresses, version):
    query = query_with_id(key.qname, key.qtype, 999)
    records = [
        ResourceRecord(key.qname, RecordType.A, ARdata(address), 300) for address in addresses
    ]
    response = make_response(query, answers=records)
    obj = encapsulate_response(response, version)
    assert obj.group_id == version
    assert obj.object_id == 0
    decoded = decapsulate_response(obj)
    assert decoded.header.message_id == 0
    assert sorted(r.rdata.to_text() for r in decoded.answers) == sorted(addresses)


# ------------------------------------------------------------ MoQT messages


@given(
    st.integers(0, 1 << 20),
    st.integers(0, 1 << 20),
    question_keys(),
    st.integers(0, 255),
)
def test_subscribe_message_roundtrip(request_id, track_alias, key, priority):
    message = Subscribe(
        request_id=request_id,
        track_alias=track_alias,
        full_track_name=question_to_track(key),
        subscriber_priority=priority,
    )
    decoded, _ = decode_control_message(message.encode())
    assert decoded == message


@given(st.integers(0, 1 << 30), st.integers(0, 1 << 30), st.booleans())
def test_subscribe_ok_roundtrip(request_id, largest_group, content_exists):
    message = SubscribeOk(
        request_id=request_id,
        content_exists=content_exists,
        largest_group_id=largest_group if content_exists else 0,
    )
    decoded, _ = decode_control_message(message.encode())
    assert decoded == message


@given(st.binary(max_size=512), st.integers(0, 1 << 20), st.integers(0, 1 << 10), st.booleans())
def test_stream_frame_roundtrip(data, stream_id, offset, fin):
    frames = [StreamFrame(stream_id=stream_id, offset=offset, data=data, fin=fin)]
    assert decode_frames(encode_frames(frames)) == frames


# ------------------------------------------------------- measurement invariants


@given(
    st.lists(
        st.lists(ipv4_addresses, min_size=1, max_size=4, unique=True), min_size=1, max_size=40
    )
)
def test_change_count_invariants(samples):
    changes = count_changes(samples)
    assert 0 <= changes <= len(samples) - 1
    # Permuting each sample must not alter the count (lexicographic ordering).
    permuted = [list(reversed(sample)) for sample in samples]
    assert count_changes(permuted) == changes


@given(st.lists(st.lists(ipv4_addresses, min_size=1, max_size=4), min_size=2, max_size=20))
def test_identical_consecutive_samples_count_zero(samples):
    duplicated = []
    for sample in samples:
        duplicated.append(sample)
        duplicated.append(list(sample))
    assert count_changes([duplicated[0]] + [duplicated[0]] * 3) == 0
