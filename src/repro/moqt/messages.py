"""MoQT control messages and their wire codec.

All control messages are exchanged on the single bidirectional control
stream.  Each message is encoded as a varint message type followed by a
16-bit payload length and the payload (draft-12 §6).  The subset implemented
here covers everything the DNS mapping needs: session setup, subscriptions,
standalone and joining fetches, unsubscription, announcements and GOAWAY.

Encoding is one pass into one ``bytearray``: :meth:`ControlMessage.encode`
opens it with the type and two reserved length bytes, the message appends its
fields in place (``Parameters`` and track names too), and the length is
patched in at the end.  The resulting ``bytes`` is what the QUIC stream
writer copies into the packet and what its ledger keeps for retransmission.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, NoReturn

from repro.memo import Memo
from repro.moqt.errors import ProtocolViolation
from repro.moqt.parameters import Parameters
from repro.moqt.track import FullTrackName, TrackNamespace
from repro.quic.varint import VarintError, VarintReader, append_varint, decode_varint, encode_varint

#: The MoQT draft version this implementation models (draft-12).
MOQT_VERSION_DRAFT_12 = 0xFF00000C
SUPPORTED_VERSIONS = (MOQT_VERSION_DRAFT_12,)


class MessageType(enum.IntEnum):
    """Control message type identifiers."""

    SUBSCRIBE_UPDATE = 0x02
    SUBSCRIBE = 0x03
    SUBSCRIBE_OK = 0x04
    SUBSCRIBE_ERROR = 0x05
    ANNOUNCE = 0x06
    ANNOUNCE_OK = 0x07
    ANNOUNCE_ERROR = 0x08
    UNANNOUNCE = 0x09
    UNSUBSCRIBE = 0x0A
    SUBSCRIBE_DONE = 0x0B
    MAX_REQUEST_ID = 0x15
    FETCH = 0x16
    FETCH_CANCEL = 0x17
    FETCH_OK = 0x18
    FETCH_ERROR = 0x19
    GOAWAY = 0x10
    CLIENT_SETUP = 0x40
    SERVER_SETUP = 0x41


class FilterType(enum.IntEnum):
    """SUBSCRIBE filter types (draft-12 §6.4)."""

    NEXT_GROUP_START = 0x1
    LATEST_OBJECT = 0x2
    ABSOLUTE_START = 0x3
    ABSOLUTE_RANGE = 0x4


class GroupOrder(enum.IntEnum):
    """Group delivery order preference."""

    PUBLISHER_DEFAULT = 0x0
    ASCENDING = 0x1
    DESCENDING = 0x2


class FetchType(enum.IntEnum):
    """FETCH flavours (draft-12 §6.9): standalone or joining."""

    STANDALONE = 0x1
    RELATIVE_JOINING = 0x2
    ABSOLUTE_JOINING = 0x3


class _Members(dict):
    """Wire value -> member of one enum, read without a Python frame.  A
    value with no member raises ``ValueError``, as calling the enum would,
    and ``decode_control_payload`` turns it into ``ProtocolViolation``."""

    __slots__ = ("_enum",)

    def __init__(self, members: type[enum.IntEnum]) -> None:
        super().__init__((member.value, member) for member in members)
        self._enum = members

    def __missing__(self, value: object) -> NoReturn:
        raise ValueError(f"{value!r} is not a valid {self._enum.__name__}")


#: What a payload's group order, filter type and fetch type decode to.
GROUP_ORDERS = MappingProxyType(_Members(GroupOrder))
FILTER_TYPES = MappingProxyType(_Members(FilterType))
FETCH_TYPES = MappingProxyType(_Members(FetchType))


def _append_text(buffer: bytearray, text: str) -> None:
    """Append ``text`` as a varint length followed by its UTF-8 bytes."""
    encoded = text.encode("utf-8")
    append_varint(buffer, len(encoded))
    buffer += encoded


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """Base class for all control messages."""

    TYPE: ClassVar[MessageType] = MessageType.GOAWAY
    #: How every encoding of this message opens: the type varint and the two
    #: length bytes, still zero.
    _PREFIX: ClassVar[bytes]

    def __init_subclass__(cls) -> None:
        cls._PREFIX = encode_varint(cls.TYPE) + b"\x00\x00"

    def _append_payload(self, buffer: bytearray) -> None:
        """Append the message's fields (everything after type and length)."""
        raise NotImplementedError

    def encode(self) -> bytes:
        """Serialise the full message: type, 16-bit length, payload."""
        buffer = bytearray(self._PREFIX)
        start = len(buffer)
        self._append_payload(buffer)
        length = len(buffer) - start
        if length > 0xFFFF:
            raise ProtocolViolation(f"control message too large: {length}")
        buffer[start - 2] = length >> 8
        buffer[start - 1] = length & 0xFF
        return bytes(buffer)


@dataclass(frozen=True, slots=True)
class ClientSetup(ControlMessage):
    """CLIENT_SETUP: offered versions plus setup parameters."""

    supported_versions: tuple[int, ...] = SUPPORTED_VERSIONS
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.CLIENT_SETUP

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, len(self.supported_versions))
        for version in self.supported_versions:
            append_varint(buffer, version)
        self.parameters.append_to(buffer)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "ClientSetup":
        count = reader.read_varint()
        versions = tuple(reader.read_varint() for _ in range(count))
        return cls(versions, Parameters.from_reader(reader))


@dataclass(frozen=True, slots=True)
class ServerSetup(ControlMessage):
    """SERVER_SETUP: the selected version plus setup parameters."""

    selected_version: int = MOQT_VERSION_DRAFT_12
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.SERVER_SETUP

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.selected_version)
        self.parameters.append_to(buffer)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "ServerSetup":
        version = reader.read_varint()
        return cls(version, Parameters.from_reader(reader))


@dataclass(frozen=True, slots=True)
class Subscribe(ControlMessage):
    """SUBSCRIBE: request future objects of a track."""

    request_id: int = 0
    track_alias: int = 0
    full_track_name: FullTrackName = None  # type: ignore[assignment]
    subscriber_priority: int = 128
    group_order: GroupOrder = GroupOrder.PUBLISHER_DEFAULT
    forward: bool = True
    filter_type: FilterType = FilterType.LATEST_OBJECT
    start_group: int = 0
    start_object: int = 0
    end_group: int = 0
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.SUBSCRIBE

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)
        append_varint(buffer, self.track_alias)
        self.full_track_name.append_to(buffer)
        buffer.append(self.subscriber_priority)
        buffer.append(self.group_order)
        buffer.append(1 if self.forward else 0)
        append_varint(buffer, self.filter_type)
        if self.filter_type in (FilterType.ABSOLUTE_START, FilterType.ABSOLUTE_RANGE):
            append_varint(buffer, self.start_group)
            append_varint(buffer, self.start_object)
        if self.filter_type == FilterType.ABSOLUTE_RANGE:
            append_varint(buffer, self.end_group)
        self.parameters.append_to(buffer)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Subscribe":
        request_id = reader.read_varint()
        track_alias = reader.read_varint()
        full_track_name = FullTrackName.from_reader(reader)
        priority = reader.read_uint8()
        group_order = GROUP_ORDERS[reader.read_uint8()]
        forward = reader.read_uint8() == 1
        filter_type = FILTER_TYPES[reader.read_varint()]
        start_group = start_object = end_group = 0
        if filter_type in (FilterType.ABSOLUTE_START, FilterType.ABSOLUTE_RANGE):
            start_group = reader.read_varint()
            start_object = reader.read_varint()
        if filter_type == FilterType.ABSOLUTE_RANGE:
            end_group = reader.read_varint()
        parameters = Parameters.from_reader(reader)
        return cls(
            request_id,
            track_alias,
            full_track_name,
            priority,
            group_order,
            forward,
            filter_type,
            start_group,
            start_object,
            end_group,
            parameters,
        )


@dataclass(frozen=True, slots=True)
class SubscribeOk(ControlMessage):
    """SUBSCRIBE_OK: the publisher accepted the subscription."""

    request_id: int = 0
    expires_ms: int = 0
    group_order: GroupOrder = GroupOrder.ASCENDING
    content_exists: bool = False
    largest_group_id: int = 0
    largest_object_id: int = 0
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.SUBSCRIBE_OK

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)
        append_varint(buffer, self.expires_ms)
        buffer.append(self.group_order)
        buffer.append(1 if self.content_exists else 0)
        if self.content_exists:
            append_varint(buffer, self.largest_group_id)
            append_varint(buffer, self.largest_object_id)
        self.parameters.append_to(buffer)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "SubscribeOk":
        request_id = reader.read_varint()
        expires = reader.read_varint()
        group_order = GROUP_ORDERS[reader.read_uint8()]
        content_exists = reader.read_uint8() == 1
        largest_group = largest_object = 0
        if content_exists:
            largest_group = reader.read_varint()
            largest_object = reader.read_varint()
        parameters = Parameters.from_reader(reader)
        return cls(request_id, expires, group_order, content_exists, largest_group, largest_object, parameters)


@dataclass(frozen=True, slots=True)
class SubscribeError(ControlMessage):
    """SUBSCRIBE_ERROR: the publisher declined the subscription.

    ``retry_after_ms`` is an admission-control hint: how many milliseconds
    the subscriber should wait before retrying (0 means no hint).  It is
    encoded as an optional trailing varint — written only when non-zero, so
    every message emitted before admission control existed keeps its exact
    wire bytes, and decoders accept both the four-field and five-field
    encodings.
    """

    request_id: int = 0
    error_code: int = 0
    reason: str = ""
    track_alias: int = 0
    retry_after_ms: int = 0

    TYPE = MessageType.SUBSCRIBE_ERROR

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)
        append_varint(buffer, self.error_code)
        _append_text(buffer, self.reason)
        append_varint(buffer, self.track_alias)
        if self.retry_after_ms:
            append_varint(buffer, self.retry_after_ms)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "SubscribeError":
        request_id = reader.read_varint()
        error_code = reader.read_varint()
        reason = reader.read_length_prefixed().decode("utf-8")
        track_alias = reader.read_varint()
        retry_after_ms = 0 if reader.at_end() else reader.read_varint()
        return cls(request_id, error_code, reason, track_alias, retry_after_ms)


@dataclass(frozen=True, slots=True)
class Unsubscribe(ControlMessage):
    """UNSUBSCRIBE: the subscriber no longer wants the track."""

    request_id: int = 0

    TYPE = MessageType.UNSUBSCRIBE

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Unsubscribe":
        return cls(reader.read_varint())


@dataclass(frozen=True, slots=True)
class SubscribeDone(ControlMessage):
    """SUBSCRIBE_DONE: the publisher finished (or aborted) a subscription."""

    request_id: int = 0
    status_code: int = 0
    stream_count: int = 0
    reason: str = ""

    TYPE = MessageType.SUBSCRIBE_DONE

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)
        append_varint(buffer, self.status_code)
        append_varint(buffer, self.stream_count)
        _append_text(buffer, self.reason)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "SubscribeDone":
        return cls(
            reader.read_varint(),
            reader.read_varint(),
            reader.read_varint(),
            reader.read_length_prefixed().decode("utf-8"),
        )


@dataclass(frozen=True, slots=True)
class Fetch(ControlMessage):
    """FETCH: request already-published objects.

    A *standalone* fetch names the track and an absolute start/end range.  A
    *joining* fetch references an existing subscription by request ID and asks
    for objects starting a number of groups before that subscription's start
    — the paper's lookup operation uses a relative joining fetch with offset 1
    to retrieve the current record version (§4.1).
    """

    request_id: int = 0
    subscriber_priority: int = 128
    group_order: GroupOrder = GroupOrder.ASCENDING
    fetch_type: FetchType = FetchType.STANDALONE
    full_track_name: FullTrackName | None = None
    start_group: int = 0
    start_object: int = 0
    end_group: int = 0
    end_object: int = 0
    joining_request_id: int = 0
    joining_start: int = 0
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.FETCH

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)
        buffer.append(self.subscriber_priority)
        buffer.append(self.group_order)
        append_varint(buffer, self.fetch_type)
        if self.fetch_type == FetchType.STANDALONE:
            if self.full_track_name is None:
                raise ProtocolViolation("standalone FETCH requires a track name")
            self.full_track_name.append_to(buffer)
            append_varint(buffer, self.start_group)
            append_varint(buffer, self.start_object)
            append_varint(buffer, self.end_group)
            append_varint(buffer, self.end_object)
        else:
            append_varint(buffer, self.joining_request_id)
            append_varint(buffer, self.joining_start)
        self.parameters.append_to(buffer)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Fetch":
        request_id = reader.read_varint()
        priority = reader.read_uint8()
        group_order = GROUP_ORDERS[reader.read_uint8()]
        fetch_type = FETCH_TYPES[reader.read_varint()]
        full_track_name = None
        start_group = start_object = end_group = end_object = 0
        joining_request_id = joining_start = 0
        if fetch_type == FetchType.STANDALONE:
            full_track_name = FullTrackName.from_reader(reader)
            start_group = reader.read_varint()
            start_object = reader.read_varint()
            end_group = reader.read_varint()
            end_object = reader.read_varint()
        else:
            joining_request_id = reader.read_varint()
            joining_start = reader.read_varint()
        parameters = Parameters.from_reader(reader)
        return cls(
            request_id,
            priority,
            group_order,
            fetch_type,
            full_track_name,
            start_group,
            start_object,
            end_group,
            end_object,
            joining_request_id,
            joining_start,
            parameters,
        )


@dataclass(frozen=True, slots=True)
class FetchOk(ControlMessage):
    """FETCH_OK: the publisher will deliver the fetched objects."""

    request_id: int = 0
    group_order: GroupOrder = GroupOrder.ASCENDING
    end_of_track: bool = False
    largest_group_id: int = 0
    largest_object_id: int = 0
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.FETCH_OK

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)
        buffer.append(self.group_order)
        buffer.append(1 if self.end_of_track else 0)
        append_varint(buffer, self.largest_group_id)
        append_varint(buffer, self.largest_object_id)
        self.parameters.append_to(buffer)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "FetchOk":
        return cls(
            reader.read_varint(),
            GROUP_ORDERS[reader.read_uint8()],
            reader.read_uint8() == 1,
            reader.read_varint(),
            reader.read_varint(),
            Parameters.from_reader(reader),
        )


@dataclass(frozen=True, slots=True)
class FetchError(ControlMessage):
    """FETCH_ERROR: the fetch cannot be served."""

    request_id: int = 0
    error_code: int = 0
    reason: str = ""

    TYPE = MessageType.FETCH_ERROR

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)
        append_varint(buffer, self.error_code)
        _append_text(buffer, self.reason)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "FetchError":
        return cls(
            reader.read_varint(),
            reader.read_varint(),
            reader.read_length_prefixed().decode("utf-8"),
        )


@dataclass(frozen=True, slots=True)
class FetchCancel(ControlMessage):
    """FETCH_CANCEL: the subscriber no longer wants the fetched objects."""

    request_id: int = 0

    TYPE = MessageType.FETCH_CANCEL

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "FetchCancel":
        return cls(reader.read_varint())


@dataclass(frozen=True, slots=True)
class Announce(ControlMessage):
    """ANNOUNCE: a publisher advertises a track namespace."""

    request_id: int = 0
    namespace: TrackNamespace = None  # type: ignore[assignment]
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.ANNOUNCE

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)
        self.namespace.append_to(buffer)
        self.parameters.append_to(buffer)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Announce":
        return cls(
            reader.read_varint(),
            TrackNamespace.from_reader(reader),
            Parameters.from_reader(reader),
        )


@dataclass(frozen=True, slots=True)
class AnnounceOk(ControlMessage):
    """ANNOUNCE_OK: the receiver accepted the announcement."""

    request_id: int = 0

    TYPE = MessageType.ANNOUNCE_OK

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "AnnounceOk":
        return cls(reader.read_varint())


@dataclass(frozen=True, slots=True)
class MaxRequestId(ControlMessage):
    """MAX_REQUEST_ID: raises the peer's allowed request ID ceiling."""

    request_id: int = 0

    TYPE = MessageType.MAX_REQUEST_ID

    def _append_payload(self, buffer: bytearray) -> None:
        append_varint(buffer, self.request_id)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "MaxRequestId":
        return cls(reader.read_varint())


@dataclass(frozen=True, slots=True)
class Goaway(ControlMessage):
    """GOAWAY: the server asks the client to move to a new session URI."""

    new_session_uri: str = ""

    TYPE = MessageType.GOAWAY

    def _append_payload(self, buffer: bytearray) -> None:
        _append_text(buffer, self.new_session_uri)

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Goaway":
        return cls(reader.read_length_prefixed().decode("utf-8"))


#: What every session opens with, encoded once: a client's CLIENT_SETUP
#: offering :data:`SUPPORTED_VERSIONS` and a server's SERVER_SETUP selecting
#: draft-12, neither with parameters.
CLIENT_SETUP_WIRE = ClientSetup().encode()
SERVER_SETUP_WIRE = ServerSetup().encode()


_DECODERS: dict[int, type[ControlMessage]] = {
    MessageType.CLIENT_SETUP: ClientSetup,
    MessageType.SERVER_SETUP: ServerSetup,
    MessageType.SUBSCRIBE: Subscribe,
    MessageType.SUBSCRIBE_OK: SubscribeOk,
    MessageType.SUBSCRIBE_ERROR: SubscribeError,
    MessageType.UNSUBSCRIBE: Unsubscribe,
    MessageType.SUBSCRIBE_DONE: SubscribeDone,
    MessageType.FETCH: Fetch,
    MessageType.FETCH_OK: FetchOk,
    MessageType.FETCH_ERROR: FetchError,
    MessageType.FETCH_CANCEL: FetchCancel,
    MessageType.ANNOUNCE: Announce,
    MessageType.ANNOUNCE_OK: AnnounceOk,
    MessageType.MAX_REQUEST_ID: MaxRequestId,
    MessageType.GOAWAY: Goaway,
}


def read_control_frame(data: bytes, offset: int) -> tuple[int, bytes, int]:
    """Frame one control message; returns ``(type, payload, next_offset)``.

    Raises :class:`NeedMoreData` when the buffer does not yet hold the whole
    message, which the control-stream reassembly in the session relies on.
    """
    # The three-byte header is read where it lies: every implemented type
    # but the two SETUPs is a one-byte varint, and the length is two plain
    # bytes.
    try:
        message_type = data[offset]
        if message_type < 64:
            start = offset + 3
        else:
            message_type, start = decode_varint(data, offset)
            start += 2
        end = start + ((data[start - 2] << 8) | data[start - 1])
    except (IndexError, VarintError) as error:
        raise NeedMoreData(str(error)) from None
    if end > len(data):
        raise NeedMoreData(f"truncated data: need {end - start} bytes, have {len(data) - start}")
    payload = data[start:end]
    if type(payload) is not bytes:
        payload = bytes(payload)
    return message_type, payload, end


def decode_control_payload(message_type: int, payload: bytes) -> ControlMessage:
    """Decode the payload of one framed control message of ``message_type``.

    The payload must be exactly one message: anything else — an unknown type,
    a truncated or out-of-range field, a bad track name or UTF-8 text, unread
    trailing bytes — raises :class:`~repro.moqt.errors.ProtocolViolation`,
    and nothing else does.  The field readers raise ``ValueError`` subclasses
    (``VarintError``, ``TrackNameError``, ``UnicodeDecodeError``, the
    ``ValueError`` of a value with no enum member), converted here in one place.
    """
    decoder = _DECODERS.get(message_type)
    if decoder is None:
        raise ProtocolViolation(f"unknown control message type {message_type:#x}")
    reader = VarintReader(payload)
    try:
        message = decoder.decode_payload(reader)
    except ValueError as error:
        raise ProtocolViolation(f"malformed {decoder.__name__}: {error}") from error
    if not reader.at_end():
        raise ProtocolViolation(f"{reader.remaining} trailing bytes after {decoder.__name__}")
    return message


def decode_control_message(data: bytes) -> tuple[ControlMessage, int]:
    """Decode the control message at the start of ``data``; returns
    ``(message, next_offset)``.

    Raises :class:`NeedMoreData` as :func:`read_control_frame` does, and
    :class:`~repro.moqt.errors.ProtocolViolation` as
    :func:`decode_control_payload` does.
    """
    message_type, payload, end = read_control_frame(data, 0)
    return decode_control_payload(message_type, payload), end


class NeedMoreData(Exception):
    """Raised when a control message is not yet fully buffered."""


class ControlStreamParser:
    """Reassembles control messages from stream data chunks.

    Each framed message is decoded through ``memo``, its simulation's
    ``"moqt.control"`` table (:attr:`repro.netsim.simulator.Simulator.memos`),
    keyed by ``(type, payload)``.  Large subscriber populations exchange
    byte-identical CLIENT_SETUP / SERVER_SETUP / SUBSCRIBE messages, and
    messages are frozen dataclasses, so one decoded instance serves every
    session of the simulation, which also interns the embedded track names.
    A malformed message raises :class:`~repro.moqt.errors.ProtocolViolation`
    out of :meth:`feed`, is not stored, and ends the session: the parser is
    not fed again.  ``_buffer`` is the incomplete tail of the last chunk,
    ``b""`` unless a message straddles chunks.
    """

    __slots__ = ("_buffer", "_memo")

    def __init__(self, memo: Memo) -> None:
        self._buffer = b""
        self._memo = memo

    def feed(self, data: bytes) -> list[ControlMessage]:
        """Add bytes and return every now-complete message."""
        held = self._buffer
        if held:
            # A message straddles chunks: one copy of what is held plus the
            # new bytes per feed (not per message).
            data = held + data
        # Otherwise — a chunk is nearly always whole messages — parse it
        # where it lies and hold over only an incomplete tail.
        messages: list[ControlMessage] = []
        memo = self._memo
        offset = 0
        length = len(data)
        while offset < length:
            try:
                message_type, payload, offset = read_control_frame(data, offset)
            except NeedMoreData:
                break
            key = (message_type, payload)
            message = memo.get(key) or memo.keep(key, decode_control_payload(message_type, payload))
            messages.append(message)
        if offset < length:
            self._buffer = bytes(data[offset:])
        elif held:
            self._buffer = b""
        return messages
