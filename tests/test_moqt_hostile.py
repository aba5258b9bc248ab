"""MoQT decoders and sessions against hostile bytes: one way to fail.

``decode_control_payload`` and ``decode_complete_datastream`` return a value
or raise ``ProtocolViolation``, and nothing else, for any input; ``MoqtSession`` catches exactly that in one
handler and closes with ``SessionErrorCode.PROTOCOL_VIOLATION``
(``docs/quic-receive.md`` § One way a session fails).  These tests pin it:

* random payloads behind a valid frame header, for each of the 15 control
  message types, and random and damaged data streams: each decoder returns or raises ``ProtocolViolation``.  What is accepted is whole
  (a control payload with no unread byte) and re-decodes equal after
  ``encode``, which is the oracle;
* every golden control image (``test_moqt_wire.py``) and every data stream
  below, truncated at every offset: the frame level says ``NeedMoreData``, or
  the decoder raises ``ProtocolViolation``, or the cut removed exactly an
  optional trailing field or whole objects;
* through ``Simulator.run`` on a live pair, one case each for the control
  stream and a data stream: the malformed input closes the receiving session (and, by CONNECTION_CLOSE, its peer) with
  ``PROTOCOL_VIOLATION``, nothing escapes, the decode memo keeps nothing of
  it and the pending tables are empty; and random bytes down each path never
  escape;
* objects ride streams only (§4.1), so a QUIC DATAGRAM frame (0x30 or 0x31,
  RFC 9221, never negotiated) is an unknown frame type: the packet carrying
  one is refused whole as a ``PacketDecodeError``, and the connection and
  the session stay open and deliver what comes next;
* one case per site that decodes an enum (a group order, a filter type, a
  fetch type): a value with no member closes the receiving session with
  ``PROTOCOL_VIOLATION``, as the decoder's ``ValueError`` does everywhere;
* a connection holds one bidirectional stream, stream 0: a STREAM frame on
  any other bidirectional id, from either end of the live pair, closes the
  receiving connection with a typed transport error (``STREAM_LIMIT_ERROR``
  for a peer's id, ``STREAM_STATE_ERROR`` for an unopened local or a
  send-only one), and a burst of 1,000 leaves one stream state.

Mutation list — each change below was made to ``src/`` in turn and this file
run against it; every mutant dies, killed by the tests named:

* ``decode_control_payload`` without its ``except ValueError`` —
  ``test_a_control_payload_decodes_or_is_a_violation`` (every type),
  ``test_truncated_control_images_need_more_data_or_are_violations``,
  ``test_a_malformed_input_closes_the_receiving_session[control]``,
  ``test_random_bytes_never_escape_the_simulator[control]``;
* ``decode_control_payload`` without the trailing-bytes check —
  ``test_a_control_payload_decodes_or_is_a_violation`` (every type);
* ``decode_complete_datastream`` without its ``except ValueError`` —
  ``test_a_data_stream_decodes_or_is_a_violation``,
  ``test_truncated_data_streams_are_violations_or_whole_objects``,
  ``test_a_malformed_input_closes_the_receiving_session[data stream]``,
  ``test_random_bytes_never_escape_the_simulator[data stream]``;
* ``decode_complete_datastream`` keeping what parsed before a truncation (the
  old ``except VarintError: pass``) —
  ``test_truncated_data_streams_are_violations_or_whole_objects``,
  ``test_a_malformed_input_closes_the_receiving_session[data stream]``;
* ``MoqtSession.stream_data_received`` without its ``except
  ProtocolViolation`` — ``test_a_malformed_input_closes_the_receiving_session``
  and ``test_random_bytes_never_escape_the_simulator``, ``[control]`` and
  ``[data stream]`` of each;
* the receive loop and ``scan_frames`` reading 0x30 as a length-prefixed
  frame and handing its payload up (the DATAGRAM path) —
  ``test_a_datagram_frame_is_a_malformed_packet_and_changes_nothing``
  (the ``0x30 with a length`` cases and ``empty-0x30``);
* the enum decode tables raising a bare ``KeyError`` for a value with no
  member — ``test_an_enum_value_with_no_member_closes_the_receiving_session``
  (all six cases);
* ``MoqtSession._protocol_violation`` closing with ``NO_ERROR`` —
  ``test_a_malformed_input_closes_the_receiving_session`` and
  ``test_random_bytes_never_escape_the_simulator``, both paths of each;
* ``QuicConnection._on_stream_frame`` reading every bidirectional frame into
  stream 0 — ``test_a_frame_on_another_stream_closes_with_a_typed_error``
  (all five cases) and ``test_a_burst_of_peer_streams_leaves_one_stream_state``;
  the same with the two error codes swapped — all six; a server opening a
  fresh stream 0 for a frame on any bidirectional id —
  ``test_a_frame_on_another_stream_closes_with_a_typed_error`` (``client's
  second bidirectional``, ``server's own, never opened``) and the burst test.

Two more mutants of the same change die elsewhere: ``connection_closed``
keeping the requests queued behind SETUP —
``test_moqt_session.py::TestSubscribeAndFetch::test_a_session_closed_before_setup_keeps_no_queued_request``;
no request-ID check on a received SUBSCRIBE / FETCH —
``test_publisher_fanout.py::test_a_request_id_that_is_not_the_peers_next_closes_the_session``
(all 16 cases).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.memo import Memo
from repro.moqt.datastream import (
    FetchStreamHeader,
    SubgroupStreamHeader,
    decode_complete_datastream,
    encode_fetch_object,
    encode_subgroup_object,
)
from repro.moqt.errors import ProtocolViolation, SessionErrorCode
from repro.moqt.messages import (
    ControlStreamParser,
    Fetch,
    FetchOk,
    FetchType,
    FilterType,
    GroupOrder,
    MessageType,
    NeedMoreData,
    Subscribe,
    SubscribeOk,
    _DECODERS,
    decode_control_message,
    decode_control_payload,
    read_control_frame,
)
from repro.moqt.objectmodel import Location, MoqtObject, ObjectStatus
from repro.moqt.session import MOQT_ALPN, MoqtSession, SubscribeResult
from repro.moqt.track import FullTrackName
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.quic.errors import TransportErrorCode
from repro.quic.frames import PacketDecodeError
from repro.quic.packet import Packet, PacketType
from repro.quic.tls import ServerTlsContext
from repro.quic.varint import VarintReader, encode_varint

from test_moqt_wire import GOLDEN_CONTROL_MESSAGES

TRACK = FullTrackName.of(["dns", "hostile"], b"example")
GOLDEN_WIRES = [bytes.fromhex(golden) for _, _, golden in GOLDEN_CONTROL_MESSAGES]


def frame(message_type: int, payload: bytes) -> bytes:
    """``payload`` behind a valid control-message header."""
    return encode_varint(message_type) + len(payload).to_bytes(2, "big") + payload


def damaged(valid: st.SearchStrategy[bytes]) -> st.SearchStrategy[bytes]:
    """Valid bytes truncated, with one byte replaced, or with bytes appended."""

    @st.composite
    def damage(draw) -> bytes:
        data = draw(valid)
        how = draw(st.sampled_from(["truncate", "replace", "append"]))
        if how == "truncate":
            return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
        if how == "replace" and data:
            index = draw(st.integers(0, len(data) - 1))
            return data[:index] + bytes([draw(st.integers(0, 255))]) + data[index + 1 :]
        return data + draw(st.binary(min_size=1, max_size=8))

    return damage()


# --------------------------------------------------------- control payloads
#: The golden payloads of each message type, the seeds of the damaged ones.
GOLDEN_PAYLOADS: dict[int, list[bytes]] = {}
for _wire in GOLDEN_WIRES:
    _type, _payload, _ = read_control_frame(_wire, 0)
    GOLDEN_PAYLOADS.setdefault(_type, []).append(_payload)


def payloads(message_type: int) -> st.SearchStrategy[bytes]:
    return st.one_of(
        st.binary(max_size=48),
        damaged(st.sampled_from(GOLDEN_PAYLOADS[message_type])),
    )


@pytest.mark.parametrize("message_type", sorted(_DECODERS), ids=lambda t: _DECODERS[t].__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_control_payload_decodes_or_is_a_violation(message_type, data):
    payload = data.draw(payloads(message_type))
    memo = Memo()
    parser = ControlStreamParser(memo)
    try:
        (message,) = parser.feed(frame(message_type, payload))
    except ProtocolViolation:
        assert not memo, "a malformed payload is not kept"
        return
    assert type(message) is _DECODERS[message_type]
    reader = VarintReader(payload)
    _DECODERS[message_type].decode_payload(reader)
    assert reader.at_end(), "an accepted payload has no trailing bytes"
    wire = message.encode()
    assert decode_control_message(wire) == (message, len(wire))


@pytest.mark.parametrize("wire", GOLDEN_WIRES, ids=[name for name, _, _ in GOLDEN_CONTROL_MESSAGES])
def test_truncated_control_images_need_more_data_or_are_violations(wire):
    message_type, payload, _ = read_control_frame(wire, 0)
    whole = decode_control_payload(message_type, payload)
    for cut in range(len(wire)):
        with pytest.raises(NeedMoreData):
            read_control_frame(wire[:cut], 0)
        parser = ControlStreamParser(Memo())
        assert parser.feed(wire[:cut]) == [] and parser.feed(wire[cut:]) == [whole]
    for cut in range(len(payload)):
        try:
            message = decode_control_payload(message_type, payload[:cut])
        except ProtocolViolation:
            continue
        # Only an optional trailing field may be cut off whole: what is left
        # is exactly the encoding of a message without it.
        assert frame(message_type, payload[:cut]) == message.encode()


# ------------------------------------------------------------ data streams
objects = st.builds(
    MoqtObject,
    group_id=st.integers(0, 1 << 20),
    object_id=st.integers(0, 70_000),
    payload=st.binary(max_size=24),
    subgroup_id=st.integers(0, 3),
    publisher_priority=st.integers(0, 255),
    status=st.sampled_from(ObjectStatus),
    extensions=st.binary(max_size=4),
)


def subgroup_stream(alias: int, group: int, subgroup: int, priority: int, bodies: list[MoqtObject]) -> bytes:
    header = SubgroupStreamHeader(alias, group, subgroup, priority)
    return header.encode() + b"".join(encode_subgroup_object(obj) for obj in bodies)


def fetch_stream(request_id: int, bodies: list[MoqtObject]) -> bytes:
    return FetchStreamHeader(request_id).encode() + b"".join(encode_fetch_object(obj) for obj in bodies)


valid_streams = st.one_of(
    st.builds(
        subgroup_stream,
        st.integers(0, 1 << 14), st.integers(0, 1 << 20), st.integers(0, 3), st.integers(0, 255),
        st.lists(objects, max_size=3),
    ),
    st.builds(fetch_stream, st.integers(0, 1 << 20), st.lists(objects, max_size=3)),
)


def reencoded(header: SubgroupStreamHeader | FetchStreamHeader, decoded: tuple[MoqtObject, ...]) -> bytes:
    if isinstance(header, SubgroupStreamHeader):
        return header.encode() + b"".join(encode_subgroup_object(obj) for obj in decoded)
    return header.encode() + b"".join(encode_fetch_object(obj) for obj in decoded)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.binary(max_size=48), damaged(valid_streams)))
def test_a_data_stream_decodes_or_is_a_violation(data):
    try:
        header, decoded = decode_complete_datastream(data)
    except ProtocolViolation:
        return
    assert decode_complete_datastream(reencoded(header, decoded)) == (header, decoded)


_OBJECTS = [
    MoqtObject(group_id=9, object_id=0, payload=b"dns-response", publisher_priority=100),
    MoqtObject(group_id=9, object_id=70_000, payload=b"", extensions=b"\x01\x02",
               status=ObjectStatus.END_OF_GROUP, publisher_priority=100),
    MoqtObject(group_id=1 << 20, object_id=3, payload=b"x" * 70, subgroup_id=2),
]
#: One data stream of each shape the senders produce, multi-byte fields included.
DATA_STREAMS = {
    "subgroup, one object": subgroup_stream(3, 9, 0, 100, _OBJECTS[:1]),
    "subgroup, two objects": subgroup_stream(16_384, 9, 0, 100, _OBJECTS[:2]),
    "fetch, three objects": fetch_stream(70_000, _OBJECTS),
    "fetch, no object": fetch_stream(6, []),
}


@pytest.mark.parametrize("stream", DATA_STREAMS.values(), ids=DATA_STREAMS)
def test_truncated_data_streams_are_violations_or_whole_objects(stream):
    header, whole = decode_complete_datastream(stream)
    boundaries = {len(reencoded(header, whole[:count])): count for count in range(len(whole) + 1)}
    for cut in range(len(stream)):
        try:
            result = decode_complete_datastream(stream[:cut])
        except ProtocolViolation:
            assert cut not in boundaries
            continue
        assert result == (header, whole[: boundaries[cut]])


# ------------------------------------------------- a live pair, Simulator.run
class _Publisher:
    """Accepts every SUBSCRIBE; defers every FETCH, so one is always pending."""

    def __init__(self) -> None:
        self.records = []
        self.fetches = []

    def handle_subscribe(self, session, message):
        self.records.append(session.complete_subscribe(message.request_id, SubscribeResult(ok=True)))
        return None

    def handle_fetch(self, session, message, full_track_name):
        self.fetches.append(message.request_id)
        return None

    def handle_subscription_ended(self, session, subscription):
        self.records.remove(subscription)


class _Pair:
    """A client subscribed to and fetching from a server, one instant after
    SUBSCRIBE_OK, every close recorded as ``(session, code, reason)``."""

    def __init__(self, monkeypatch) -> None:
        self.closes = []
        connection_closed = MoqtSession.connection_closed

        def recorded(session, code, reason):
            self.closes.append((session, code, reason))
            connection_closed(session, code, reason)

        monkeypatch.setattr(MoqtSession, "connection_closed", recorded)
        self.simulator = Simulator(seed=38)
        network = Network(self.simulator)
        network.add_host("server")
        network.add_host("client")
        network.connect("server", "client", LinkConfig(delay=0.01))
        self.publisher = _Publisher()
        servers = []
        QuicEndpoint(
            network.host("server"),
            port=4443,
            server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
            on_connection=lambda connection: servers.append(
                MoqtSession(connection, is_client=False, publisher_delegate=self.publisher)
            ),
        )
        connection = QuicEndpoint(network.host("client")).connect(Address("server", 4443), ConnectionConfig())
        self.client = MoqtSession(connection, is_client=True)
        self.received = []
        self.subscription = self.client.subscribe(TRACK, on_object=self.received.append)
        self.fetch = self.client.fetch(TRACK, Location(0, 0), Location(1, 0), on_complete=lambda fetch: None)
        self.run(1.0)
        (self.server,) = servers
        assert self.subscription.is_active and self.publisher.fetches == [2]
        (self.record,) = self.publisher.records

    def run(self, duration: float) -> None:
        self.simulator.run(until=self.simulator.now + duration)

    def assert_nothing_pending(self) -> None:
        for session in (self.client, self.server):
            assert session._pending_until_ready == ()  # handed back at SETUP
            assert not session._fetches
            assert not session._pending_incoming_subscribes
            assert not session._pending_incoming_fetches
            assert not session._publisher_subscriptions
        assert self.publisher.records == []
        assert self.fetch.state == "error"


def _truncated_subscribe(pair: _Pair) -> tuple[MoqtSession, str, object]:
    """A SUBSCRIBE whose last four bytes are cut off, framed as whole."""
    wire = Subscribe(request_id=4, track_alias=2, full_track_name=TRACK).encode()
    _, payload, _ = read_control_frame(wire, 0)
    malformed = payload[:-4]
    pair.client._send_control(frame(MessageType.SUBSCRIBE, malformed))
    return pair.server, "moqt.control", (MessageType.SUBSCRIBE, malformed)


def _truncated_stream(pair: _Pair) -> tuple[MoqtSession, str, object]:
    obj = MoqtObject(group_id=5, object_id=0, payload=b"v5")
    malformed = subgroup_stream(pair.record.track_alias, 5, 0, 128, [obj])[:-1]
    pair.server.connection.send_encoded_stream(malformed)
    return pair.client, "moqt.stream", malformed


#: How each path is fed a malformed input.
CASES = {"control": _truncated_subscribe, "data stream": _truncated_stream}


@pytest.mark.parametrize("case", CASES)
def test_a_malformed_input_closes_the_receiving_session(monkeypatch, case):
    inject = CASES[case]
    pair = _Pair(monkeypatch)
    receiver, table, key = inject(pair)
    pair.run(1.0)  # nothing escapes
    peer = pair.server if receiver is pair.client else pair.client
    (first, second) = pair.closes
    assert first[0] is receiver and first[1] == SessionErrorCode.PROTOCOL_VIOLATION
    # The code and the reason reach the peer in the CONNECTION_CLOSE.
    assert second == (peer, SessionErrorCode.PROTOCOL_VIOLATION, first[2])
    assert receiver.connection.closed and peer.connection.closed
    assert pair.received == [] and pair.client.statistics.objects_received == 0
    assert key not in pair.simulator.memos[table]
    pair.assert_nothing_pending()


def _with_value(build, good, other, bad: int) -> bytes:
    """``build(good)``'s payload with the one byte where it differs from
    ``build(other)``'s set to ``bad``: the field the two values fill."""
    _, payload, _ = read_control_frame(build(good).encode(), 0)
    _, changed, _ = read_control_frame(build(other).encode(), 0)
    (offset,) = [index for index, (a, b) in enumerate(zip(payload, changed)) if a != b]
    return payload[:offset] + bytes([bad]) + payload[offset + 1 :]


#: Each site that decodes an enum: the message with the field as argument,
#: two valid values, a value with no member, and whether the client sends it.
UNKNOWN_MEMBERS = {
    "Subscribe.group_order": (
        lambda value: Subscribe(request_id=4, track_alias=2, full_track_name=TRACK, group_order=value),
        GroupOrder.PUBLISHER_DEFAULT, GroupOrder.ASCENDING, 3, True,
    ),
    "Subscribe.filter_type": (
        lambda value: Subscribe(request_id=4, track_alias=2, full_track_name=TRACK, filter_type=value),
        FilterType.NEXT_GROUP_START, FilterType.LATEST_OBJECT, 5, True,
    ),
    "SubscribeOk.group_order": (
        lambda value: SubscribeOk(request_id=0, group_order=value),
        GroupOrder.ASCENDING, GroupOrder.DESCENDING, 3, False,
    ),
    "Fetch.group_order": (
        lambda value: Fetch(request_id=4, group_order=value, fetch_type=FetchType.RELATIVE_JOINING),
        GroupOrder.ASCENDING, GroupOrder.DESCENDING, 3, True,
    ),
    "Fetch.fetch_type": (
        lambda value: Fetch(request_id=4, fetch_type=value),
        FetchType.RELATIVE_JOINING, FetchType.ABSOLUTE_JOINING, 7, True,
    ),
    "FetchOk.group_order": (
        lambda value: FetchOk(request_id=2, group_order=value),
        GroupOrder.ASCENDING, GroupOrder.DESCENDING, 3, False,
    ),
}


@pytest.mark.parametrize("site", UNKNOWN_MEMBERS)
def test_an_enum_value_with_no_member_closes_the_receiving_session(monkeypatch, site):
    build, good, other, bad, from_client = UNKNOWN_MEMBERS[site]
    message_type, payload = build(good).TYPE, _with_value(build, good, other, bad)
    with pytest.raises(ProtocolViolation):
        decode_control_payload(message_type, payload)
    pair = _Pair(monkeypatch)
    sender, receiver = (pair.client, pair.server) if from_client else (pair.server, pair.client)
    sender._send_control(frame(message_type, payload))
    pair.run(1.0)  # nothing escapes
    (first, second) = pair.closes
    assert first[0] is receiver and first[1] == SessionErrorCode.PROTOCOL_VIOLATION
    assert second == (sender, SessionErrorCode.PROTOCOL_VIOLATION, first[2])
    assert (message_type, payload) not in pair.simulator.memos["moqt.control"]


@pytest.mark.parametrize("path", ["control", "data stream"])
@settings(max_examples=30, deadline=None)
@given(message_type=st.sampled_from(sorted(_DECODERS)), data=st.binary(max_size=40))
def test_random_bytes_never_escape_the_simulator(path, message_type, data):
    """On the control stream the bytes are framed as one message of a random
    type (unframed, they would mostly wait for more)."""
    with pytest.MonkeyPatch.context() as patch:
        pair = _Pair(patch)
        if path == "control":
            pair.client._send_control(frame(message_type, data))
        else:
            pair.server.connection.send_encoded_stream(data)
        pair.run(1.0)
    for session, code, reason in pair.closes:
        assert code == SessionErrorCode.PROTOCOL_VIOLATION or reason == "no common MoQT version"
    if pair.closes:
        pair.assert_nothing_pending()


class _RawFrame:
    """Frame bytes as they are, for :class:`Packet` to frame."""

    def __init__(self, raw: bytes) -> None:
        self.raw = raw

    def encode_into(self, buffer: bytearray) -> None:
        buffer += self.raw


def _object_datagram(track_alias: int) -> bytes:
    """An object datagram of group 5 (type 0x01, alias, group, object,
    priority, no extensions, payload), as a MoQT peer would send it."""
    return b"".join(
        (encode_varint(1), encode_varint(track_alias), encode_varint(5), encode_varint(0),
         bytes([128]), encode_varint(0), encode_varint(2), b"v5")
    )


#: A DATAGRAM frame's type and whether its payload is length-prefixed:
#: RFC 9221's 0x30 runs to the end of the packet and 0x31 carries a length;
#: a 0x30 with a length is what this model's senders once wrote.
DATAGRAM_FRAMES = {"0x30": (0x30, False), "0x30 with a length": (0x30, True), "0x31": (0x31, True)}


@pytest.mark.parametrize("frame", DATAGRAM_FRAMES)
@pytest.mark.parametrize("payload", ["object", "truncated object", "empty"])
def test_a_datagram_frame_is_a_malformed_packet_and_changes_nothing(monkeypatch, frame, payload):
    pair = _Pair(monkeypatch)
    image = _object_datagram(pair.record.track_alias)
    data = {"object": image, "truncated object": image[:-1], "empty": b""}[payload]
    frame_type, prefixed = DATAGRAM_FRAMES[frame]
    raw = bytes([frame_type]) + (encode_varint(len(data)) if prefixed else b"") + data
    connection = pair.client.connection
    before = dataclasses.astuple(connection.statistics)
    with pytest.raises(PacketDecodeError, match="unknown frame type"):
        connection.datagram_received(Packet(PacketType.ONE_RTT, 0, 1 << 20, (_RawFrame(raw),)).encode())
    assert dataclasses.astuple(connection.statistics) == before
    pair.run(1.0)
    assert pair.closes == [] and not connection.closed
    assert pair.received == []
    # Still open: the next object arrives on its stream.
    pair.server.publish(pair.record, MoqtObject(group_id=5, object_id=0, payload=b"v5"))
    pair.run(1.0)
    assert [obj.group_id for obj in pair.received] == [5]


# ------------------------------------------ one bidirectional stream, stream 0
#: A STREAM frame on a stream other than the control stream: who sends it, on
#: which id, and the transport error the receiving connection closes with.
#: The peer may open one bidirectional stream (RFC 9000 §4.6); a frame on a
#: locally initiated stream never opened, or on a send-only one, is a state
#: error (§19.8).
OTHER_STREAMS = {
    "client's second bidirectional": ("client", 4, TransportErrorCode.STREAM_LIMIT_ERROR),
    "server-initiated bidirectional": ("server", 1, TransportErrorCode.STREAM_LIMIT_ERROR),
    "server's own, never opened": ("client", 1, TransportErrorCode.STREAM_STATE_ERROR),
    "client's own, never opened": ("server", 4, TransportErrorCode.STREAM_STATE_ERROR),
    "client's send-only": ("server", 2, TransportErrorCode.STREAM_STATE_ERROR),
}


@pytest.mark.parametrize("case", OTHER_STREAMS)
def test_a_frame_on_another_stream_closes_with_a_typed_error(monkeypatch, case):
    sender_name, stream_id, code = OTHER_STREAMS[case]
    pair = _Pair(monkeypatch)
    sender, receiver = (
        (pair.client, pair.server) if sender_name == "client" else (pair.server, pair.client)
    )
    sender.connection._send_stream(stream_id, 0, b"hello", False)
    pair.run(1.0)  # nothing escapes
    (first, second) = pair.closes
    assert first[0] is receiver and first[1] == code
    # The code and the reason reach the peer in the CONNECTION_CLOSE.
    assert second == (sender, code, first[2])
    assert receiver.connection.closed and sender.connection.closed
    assert receiver.connection.stream_states == 1  # the control stream, nothing more
    pair.assert_nothing_pending()


def test_a_burst_of_peer_streams_leaves_one_stream_state(monkeypatch):
    """1,000 frames on the client's bidirectional ids 4 … 4000: the server's
    connection closes at the first and holds the control stream alone."""
    pair = _Pair(monkeypatch)
    for sequence in range(1, 1001):
        pair.client.connection._send_stream(sequence << 2, 0, b"x", False)
    pair.run(1.0)
    connection = pair.server.connection
    print(f"server stream_states after 1,000 peer streams: {connection.stream_states}")
    assert connection.stream_states <= 1
    assert connection.closed and pair.closes[0][:2] == (
        pair.server,
        TransportErrorCode.STREAM_LIMIT_ERROR,
    )
