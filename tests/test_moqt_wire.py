"""Tests for MoQT track names, control messages and data-stream encodings."""

from __future__ import annotations

import pytest

from repro.memo import Memo
from repro.moqt.datastream import (
    FetchStreamHeader,
    SubgroupStreamHeader,
    decode_complete_datastream,
    encode_fetch_object,
    encode_subgroup_object,
)
from repro.moqt.errors import ProtocolViolation
from repro.moqt.messages import (
    Announce,
    AnnounceOk,
    ClientSetup,
    ControlStreamParser,
    Fetch,
    FetchCancel,
    FetchError,
    FetchOk,
    FETCH_TYPES,
    FILTER_TYPES,
    FetchType,
    FilterType,
    GROUP_ORDERS,
    Goaway,
    GroupOrder,
    MaxRequestId,
    MOQT_VERSION_DRAFT_12,
    NeedMoreData,
    ServerSetup,
    Subscribe,
    SubscribeDone,
    SubscribeError,
    SubscribeOk,
    Unsubscribe,
    decode_control_message,
    _DECODERS,
)
from repro.moqt.objectmodel import MAX_RETAINED_GROUPS, Location, MoqtObject, ObjectStatus, TrackState
from repro.moqt.parameters import Parameter, Parameters
from repro.moqt.track import (
    FullTrackName,
    MAX_FULL_TRACK_NAME_LENGTH,
    TrackNameError,
    TrackNamespace,
)
from repro.quic.varint import VarintReader, decode_varint, encode_varint


def _track() -> FullTrackName:
    return FullTrackName.of(["dns", "\x01", "q"], b"\x03www\x07example\x03com\x00")


def _wire(value) -> bytes:
    """What a track name or parameter list appends to a message."""
    buffer = bytearray()
    value.append_to(buffer)
    return bytes(buffer)


def _roundtrip(message):
    decoded, consumed = decode_control_message(message.encode())
    assert consumed == len(message.encode())
    return decoded


class TestTrackNaming:
    def test_namespace_wire_roundtrip(self):
        namespace = TrackNamespace.of(b"\x10", b"\x00\x01", b"\x00\x01")
        decoded = TrackNamespace.from_reader(VarintReader(_wire(namespace)))
        assert decoded == namespace

    def test_full_track_name_roundtrip(self):
        track = _track()
        decoded = FullTrackName.from_reader(VarintReader(_wire(track)))
        assert decoded == track

    def test_namespace_element_count_limits(self):
        with pytest.raises(TrackNameError):
            TrackNamespace(())
        with pytest.raises(TrackNameError):
            TrackNamespace(tuple(bytes([i]) for i in range(33)))

    def test_combined_length_limit_enforced(self):
        namespace = TrackNamespace.of(b"a" * 2000, b"b" * 2000)
        FullTrackName(namespace, b"c" * (MAX_FULL_TRACK_NAME_LENGTH - 4000))
        with pytest.raises(TrackNameError):
            FullTrackName(namespace, b"c" * (MAX_FULL_TRACK_NAME_LENGTH - 4000 + 1))


class TestParameters:
    def test_roundtrip(self):
        parameters = Parameters((Parameter(0x2, encode_varint(77)), Parameter(0x1, b"/dns")))
        decoded = Parameters.from_reader(VarintReader(_wire(parameters)))
        assert len(decoded) == 2
        assert decode_varint(decoded.get(0x2).value)[0] == 77
        assert decoded.get(0x1).value == b"/dns"
        assert decoded.get(0x9) is None


class TestControlMessages:
    def test_setup_roundtrip(self):
        assert _roundtrip(ClientSetup()).supported_versions == (MOQT_VERSION_DRAFT_12,)
        assert _roundtrip(ServerSetup()).selected_version == MOQT_VERSION_DRAFT_12

    def test_subscribe_roundtrip_latest_object(self):
        message = Subscribe(
            request_id=2,
            track_alias=9,
            full_track_name=_track(),
            subscriber_priority=7,
            group_order=GroupOrder.ASCENDING,
            forward=True,
            filter_type=FilterType.LATEST_OBJECT,
        )
        decoded = _roundtrip(message)
        assert decoded == message

    def test_subscribe_roundtrip_absolute_range(self):
        message = Subscribe(
            request_id=4,
            track_alias=1,
            full_track_name=_track(),
            filter_type=FilterType.ABSOLUTE_RANGE,
            start_group=10,
            start_object=0,
            end_group=20,
        )
        decoded = _roundtrip(message)
        assert decoded.start_group == 10 and decoded.end_group == 20

    def test_subscribe_ok_and_error_roundtrip(self):
        ok = SubscribeOk(request_id=2, expires_ms=1000, content_exists=True,
                         largest_group_id=42, largest_object_id=0)
        decoded = _roundtrip(ok)
        assert decoded.largest_group_id == 42 and decoded.content_exists
        error = SubscribeError(request_id=2, error_code=4, reason="no such track", track_alias=9)
        assert _roundtrip(error) == error

    def test_subscribe_error_retry_after_roundtrip(self):
        error = SubscribeError(
            request_id=5, error_code=7, reason="admission", track_alias=3,
            retry_after_ms=123,
        )
        decoded = _roundtrip(error)
        assert decoded == error and decoded.retry_after_ms == 123

    def test_subscribe_error_without_retry_after_keeps_old_wire_bytes(self):
        # retry_after_ms == 0 must not be encoded at all: the pre-admission
        # four-field wire image is frozen (seeded experiment outputs pin it),
        # and a decoder reading those bytes must yield retry_after_ms == 0.
        error = SubscribeError(request_id=2, error_code=4, reason="x", track_alias=9)
        assert error.encode() == bytes.fromhex("0500050204017809")
        decoded = _roundtrip(error)
        assert decoded == error and decoded.retry_after_ms == 0

    def test_standalone_fetch_roundtrip(self):
        message = Fetch(
            request_id=6,
            fetch_type=FetchType.STANDALONE,
            full_track_name=_track(),
            start_group=1,
            start_object=0,
            end_group=5,
            end_object=0,
        )
        assert _roundtrip(message) == message

    def test_joining_fetch_roundtrip(self):
        message = Fetch(
            request_id=8,
            fetch_type=FetchType.RELATIVE_JOINING,
            joining_request_id=2,
            joining_start=1,
        )
        decoded = _roundtrip(message)
        assert decoded.joining_request_id == 2 and decoded.joining_start == 1
        assert decoded.full_track_name is None

    def test_standalone_fetch_without_track_rejected(self):
        with pytest.raises(ProtocolViolation):
            Fetch(request_id=1, fetch_type=FetchType.STANDALONE).encode()

    def test_fetch_responses_roundtrip(self):
        assert _roundtrip(FetchOk(request_id=6, largest_group_id=3)).largest_group_id == 3
        assert _roundtrip(FetchError(request_id=6, error_code=2, reason="nope")).reason == "nope"
        assert _roundtrip(FetchCancel(request_id=6)).request_id == 6

    def test_misc_messages_roundtrip(self):
        assert _roundtrip(Unsubscribe(request_id=3)).request_id == 3
        assert _roundtrip(SubscribeDone(request_id=3, status_code=0, stream_count=2, reason="done")).stream_count == 2
        namespace = TrackNamespace.of("dns")
        assert _roundtrip(Announce(request_id=1, namespace=namespace)).namespace == namespace
        assert _roundtrip(AnnounceOk(request_id=1)).request_id == 1
        assert _roundtrip(MaxRequestId(request_id=128)).request_id == 128
        assert _roundtrip(Goaway(new_session_uri="moqt://other")).new_session_uri == "moqt://other"

    def test_unknown_message_type_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_control_message(b"\x3e\x00\x00")

    def test_truncated_message_raises_need_more_data(self):
        encoded = Subscribe(request_id=1, track_alias=1, full_track_name=_track()).encode()
        with pytest.raises(NeedMoreData):
            decode_control_message(encoded[:5])

    def test_control_stream_parser_handles_fragmentation(self):
        first = SubscribeOk(request_id=2, content_exists=False)
        second = Unsubscribe(request_id=2)
        stream_bytes = first.encode() + second.encode()
        parser = ControlStreamParser(Memo())
        messages = []
        for index in range(0, len(stream_bytes), 3):
            messages.extend(parser.feed(stream_bytes[index: index + 3]))
        assert [type(m) for m in messages] == [SubscribeOk, Unsubscribe]


#: Each site that decodes an enum: the enum and the message built around one
#: of its members.
ENUM_SITES = {
    "Subscribe.group_order": (
        GroupOrder, "group_order",
        lambda value: Subscribe(request_id=4, track_alias=2, full_track_name=_track(), group_order=value),
    ),
    "Subscribe.filter_type": (
        FilterType, "filter_type",
        lambda value: Subscribe(request_id=4, track_alias=2, full_track_name=_track(), filter_type=value),
    ),
    "SubscribeOk.group_order": (
        GroupOrder, "group_order", lambda value: SubscribeOk(request_id=0, group_order=value),
    ),
    "Fetch.group_order": (
        GroupOrder, "group_order",
        lambda value: Fetch(request_id=4, group_order=value, fetch_type=FetchType.RELATIVE_JOINING),
    ),
    "Fetch.fetch_type": (
        FetchType, "fetch_type",
        lambda value: Fetch(request_id=4, fetch_type=value, full_track_name=_track()),
    ),
    "FetchOk.group_order": (
        GroupOrder, "group_order", lambda value: FetchOk(request_id=2, group_order=value),
    ),
}


@pytest.mark.parametrize(
    "site, member",
    [(site, member) for site, (members, _, _) in ENUM_SITES.items() for member in members],
    ids=lambda value: value if isinstance(value, str) else value.name,
)
def test_every_enum_member_decodes_to_itself(site, member):
    _, field_name, build = ENUM_SITES[site]
    assert getattr(_roundtrip(build(member)), field_name) is member


@pytest.mark.parametrize(
    "table, members",
    [(GROUP_ORDERS, GroupOrder), (FILTER_TYPES, FilterType), (FETCH_TYPES, FetchType)],
    ids=["GroupOrder", "FilterType", "FetchType"],
)
def test_each_decode_table_holds_exactly_its_enum_and_is_read_only(table, members):
    assert dict(table) == {member.value: member for member in members}
    with pytest.raises(ValueError, match=members.__name__):
        table[max(table) + 1]
    with pytest.raises(TypeError):
        table[0x7F] = next(iter(members))


def _parameters() -> Parameters:
    return Parameters((Parameter(0x2, encode_varint(77)), Parameter(0x1, b"/dns")))


#: Wire image of every control message type, each branch of its encoder
#: included (optional fields, non-empty parameters, multi-byte varints,
#: non-ASCII reasons).  The hex was generated at the parent of PR 23 — the
#: two-``VarintWriter`` ``encode_payload`` codec — before the one-pass encoder
#: replaced it: a round-trip cannot see an encoder / decoder pair drifting
#: together, these can.
GOLDEN_CONTROL_MESSAGES = [
    ("client_setup_default", ClientSetup, "4040000a01c0000000ff00000c00"),
    (
        "client_setup_versions_and_parameters",
        lambda: ClientSetup((MOQT_VERSION_DRAFT_12, 1, 70_000), _parameters()),
        "4040001903c0000000ff00000c0180011170020202404d01042f646e73",
    ),
    ("server_setup_default", ServerSetup, "40410009c0000000ff00000c00"),
    (
        "server_setup_parameters",
        lambda: ServerSetup(0x3FFF, _parameters()),
        "4041000d7fff020202404d01042f646e73",
    ),
    (
        "subscribe_latest_object",
        lambda: Subscribe(
            request_id=2, track_alias=9, full_track_name=_track(),
            subscriber_priority=7, group_order=GroupOrder.ASCENDING,
        ),
        "03002202090303646e73010101711103777777076578616d706c6503636f6d000701010200",
    ),
    (
        "subscribe_absolute_start",
        lambda: Subscribe(
            request_id=64, track_alias=16384, full_track_name=_track(), forward=False,
            filter_type=FilterType.ABSOLUTE_START, start_group=300, start_object=5,
            parameters=_parameters(),
        ),
        "0300334040800040000303646e73010101711103777777076578616d706c6503636f6d00"
        "80000003412c05020202404d01042f646e73",
    ),
    (
        "subscribe_absolute_range",
        lambda: Subscribe(
            request_id=4, track_alias=1, full_track_name=_track(),
            group_order=GroupOrder.DESCENDING, filter_type=FilterType.ABSOLUTE_RANGE,
            start_group=10, start_object=0, end_group=1 << 30,
        ),
        "03002c04010303646e73010101711103777777076578616d706c6503636f6d00"
        "800201040a00c00000004000000000",
    ),
    ("subscribe_ok_no_content", lambda: SubscribeOk(request_id=2), "0400050200010000"),
    (
        "subscribe_ok_content",
        lambda: SubscribeOk(
            request_id=2, expires_ms=1000, group_order=GroupOrder.DESCENDING,
            content_exists=True, largest_group_id=42, largest_object_id=7,
            parameters=_parameters(),
        ),
        "0400120243e802012a07020202404d01042f646e73",
    ),
    (
        "subscribe_error",
        lambda: SubscribeError(request_id=2, error_code=4, reason="no such track", track_alias=9),
        "05001102040d6e6f207375636820747261636b09",
    ),
    (
        "subscribe_error_retry_after",
        lambda: SubscribeError(
            request_id=5, error_code=7, reason="admission \u2713", track_alias=3,
            retry_after_ms=1234,
        ),
        "05001305070d61646d697373696f6e20e29c930344d2",
    ),
    ("unsubscribe", lambda: Unsubscribe(request_id=70_000), "0a000480011170"),
    (
        "subscribe_done",
        lambda: SubscribeDone(request_id=3, status_code=2, stream_count=200, reason="unsubscribed"),
        "0b0011030240c80c756e73756273637269626564",
    ),
    (
        "fetch_standalone",
        lambda: Fetch(
            request_id=6, subscriber_priority=3, group_order=GroupOrder.DESCENDING,
            fetch_type=FetchType.STANDALONE, full_track_name=_track(),
            start_group=1, start_object=2, end_group=500, end_object=4,
            parameters=_parameters(),
        ),
        "16002f060302010303646e73010101711103777777076578616d706c6503636f6d00"
        "010241f404020202404d01042f646e73",
    ),
    (
        "fetch_relative_joining",
        lambda: Fetch(
            request_id=8, fetch_type=FetchType.RELATIVE_JOINING,
            joining_request_id=2, joining_start=1,
        ),
        "16000708800102020100",
    ),
    (
        "fetch_absolute_joining",
        lambda: Fetch(
            request_id=10, fetch_type=FetchType.ABSOLUTE_JOINING,
            joining_request_id=64, joining_start=20_000,
        ),
        "16000b0a800103404080004e2000",
    ),
    (
        "fetch_ok",
        lambda: FetchOk(
            request_id=6, group_order=GroupOrder.DESCENDING, end_of_track=True,
            largest_group_id=300, largest_object_id=1, parameters=_parameters(),
        ),
        "180011060201412c01020202404d01042f646e73",
    ),
    (
        "fetch_error",
        lambda: FetchError(request_id=6, error_code=2, reason="nope"),
        "1900070602046e6f7065",
    ),
    ("fetch_cancel", lambda: FetchCancel(request_id=6), "17000106"),
    (
        "announce",
        lambda: Announce(
            request_id=1, namespace=TrackNamespace.of("dns", b"\x00\x01"),
            parameters=_parameters(),
        ),
        "060014010203646e73020001020202404d01042f646e73",
    ),
    ("announce_ok", lambda: AnnounceOk(request_id=1), "07000101"),
    ("max_request_id", lambda: MaxRequestId(request_id=1 << 20), "15000480100000"),
    (
        "goaway",
        lambda: Goaway(new_session_uri="moqt://other.example/\u2202"),
        "100019186d6f71743a2f2f6f746865722e6578616d706c652fe28882",
    ),
    ("goaway_empty", Goaway, "10000100"),
]


class TestGoldenControlMessages:
    @pytest.mark.parametrize(
        "build, golden",
        [case[1:] for case in GOLDEN_CONTROL_MESSAGES],
        ids=[case[0] for case in GOLDEN_CONTROL_MESSAGES],
    )
    def test_wire_image_is_frozen(self, build, golden):
        message = build()
        wire = bytes.fromhex(golden)
        assert message.encode() == wire
        assert decode_control_message(wire) == (message, len(wire))

    def test_every_control_message_type_is_pinned(self):
        pinned = {type(build()) for _, build, _ in GOLDEN_CONTROL_MESSAGES}
        assert pinned == set(_DECODERS.values()) and len(pinned) == 15


class TestObjectModel:
    def test_track_state_enforces_identical_payload_per_location(self):
        state = TrackState(_track())
        state.publish(MoqtObject(group_id=1, object_id=0, payload=b"v1"))
        state.publish(MoqtObject(group_id=1, object_id=0, payload=b"v1"))
        with pytest.raises(ValueError):
            state.publish(MoqtObject(group_id=1, object_id=0, payload=b"different"))

    def test_track_state_largest_and_ranges(self):
        state = TrackState(_track())
        for version in (1, 2, 5):
            state.publish(MoqtObject(group_id=version, object_id=0, payload=f"v{version}".encode()))
        assert state.largest == Location(5, 0)
        objects = state.objects_in_range(Location(2, 0), None)
        assert [obj.group_id for obj in objects] == [2, 5]
        assert [obj.group_id for obj in state.latest_objects(2)] == [2, 5]

    def test_track_state_retention_limit(self):
        state = TrackState(_track())
        for version in range(1, MAX_RETAINED_GROUPS + 11):
            state.publish(MoqtObject(group_id=version, object_id=0, payload=b"x"))
        assert len(state) == MAX_RETAINED_GROUPS
        assert state.get(Location(10, 0)) is None
        assert state.get(Location(11, 0)) is not None

    def test_location_ordering(self):
        assert Location(1, 0) < Location(2, 0)
        assert Location(2, 0) < Location(2, 1)
        assert Location(1, 5).next_group() == Location(2, 0)


class TestDataStreamEncodings:
    def test_subgroup_stream_roundtrip(self):
        header = SubgroupStreamHeader(track_alias=3, group_id=9, subgroup_id=0, publisher_priority=100)
        obj = MoqtObject(group_id=9, object_id=0, payload=b"dns-response", publisher_priority=100)
        stream_bytes = header.encode() + encode_subgroup_object(obj)
        decoded_header, objects = decode_complete_datastream(stream_bytes)
        assert decoded_header == header
        assert objects == (obj,)

    def test_fetch_stream_roundtrip_multiple_objects(self):
        header = FetchStreamHeader(request_id=12)
        objects = [
            MoqtObject(group_id=1, object_id=0, payload=b"old"),
            MoqtObject(group_id=2, object_id=0, payload=b"new"),
        ]
        stream_bytes = header.encode() + b"".join(encode_fetch_object(obj) for obj in objects)
        decoded_header, decoded = decode_complete_datastream(stream_bytes)
        assert decoded == tuple(objects)
        assert decoded_header == header

    def test_unknown_stream_type_rejected(self):
        with pytest.raises(ProtocolViolation, match="unknown data stream type 0x3f"):
            decode_complete_datastream(b"\x3f\x01")

    def test_object_status_preserved(self):
        obj = MoqtObject(group_id=1, object_id=0, payload=b"", status=ObjectStatus.END_OF_TRACK)
        header = SubgroupStreamHeader(track_alias=1, group_id=1)
        _, decoded = decode_complete_datastream(header.encode() + encode_subgroup_object(obj))
        assert decoded[0].status == ObjectStatus.END_OF_TRACK

    def test_unknown_object_status_rejected(self):
        obj = MoqtObject(group_id=1, object_id=0, payload=b"x")
        subgroup = SubgroupStreamHeader(track_alias=1, group_id=1).encode()
        fetch = FetchStreamHeader(request_id=4).encode()
        for stream_bytes in (
            subgroup + encode_subgroup_object(obj)[:-1] + b"\x3e",
            fetch + encode_fetch_object(obj)[:-1] + b"\x3e",
        ):
            with pytest.raises(ProtocolViolation, match="unknown object status 0x3e"):
                decode_complete_datastream(stream_bytes)
