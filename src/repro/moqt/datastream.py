"""Encodings of objects on unidirectional data streams.

MoQT can deliver objects on unidirectional QUIC streams or in QUIC DATAGRAM
frames.  The paper's prototype uses streams exclusively, to avoid losing
record updates to datagram unreliability (§4.1), and so does this model.

Two stream flavours exist:

* *subgroup streams* carry live objects for one subscription: a header with
  the track alias, group ID and subgroup ID, followed by objects;
* *fetch streams* carry the objects of one FETCH response: a header with the
  fetch request ID, followed by objects that each repeat their group ID
  because a fetch can span groups.

Only the stream *header* carries the per-subscriber track alias, and
subscribers overwhelmingly share one alias, which is what makes encode-once
fan-out possible: :meth:`~repro.moqt.session.MoqtSession.publish` memoises
the whole :func:`encode_subgroup_stream_chunk` payload per alias.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.moqt.errors import ProtocolViolation
from repro.moqt.objectmodel import MoqtObject, ObjectStatus
from repro.quic.varint import VarintReader, VarintWriter, append_varint


class DataStreamType(enum.IntEnum):
    """First varint of a unidirectional data stream."""

    SUBGROUP_HEADER = 0x04
    FETCH_HEADER = 0x05


@dataclass(frozen=True, slots=True)
class SubgroupStreamHeader:
    """Header of a subgroup data stream."""

    track_alias: int
    group_id: int
    subgroup_id: int = 0
    publisher_priority: int = 128

    def encode(self) -> bytes:
        buffer = bytearray()
        append_varint(buffer, DataStreamType.SUBGROUP_HEADER)
        append_varint(buffer, self.track_alias)
        append_varint(buffer, self.group_id)
        append_varint(buffer, self.subgroup_id)
        buffer.append(self.publisher_priority)
        return bytes(buffer)

    @classmethod
    def decode(cls, reader: VarintReader) -> "SubgroupStreamHeader":
        return cls(
            track_alias=reader.read_varint(),
            group_id=reader.read_varint(),
            subgroup_id=reader.read_varint(),
            publisher_priority=reader.read_uint8(),
        )


@dataclass(frozen=True, slots=True)
class FetchStreamHeader:
    """Header of a fetch data stream."""

    request_id: int

    def encode(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(DataStreamType.FETCH_HEADER)
        writer.write_varint(self.request_id)
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: VarintReader) -> "FetchStreamHeader":
        return cls(request_id=reader.read_varint())


def encode_subgroup_object(obj: MoqtObject) -> bytes:
    """Encode one object following a subgroup stream header.

    The result depends only on the object, never on the subscription it is
    sent to — callers fanning one object out to many subscribers should
    encode once and pass the bytes to :func:`encode_subgroup_stream_chunk`.
    """
    buffer = bytearray()
    append_varint(buffer, obj.object_id)
    extensions = obj.extensions
    append_varint(buffer, len(extensions))
    buffer += extensions
    payload = obj.payload
    append_varint(buffer, len(payload))
    buffer += payload
    append_varint(buffer, int(obj.status))
    return bytes(buffer)


def encode_subgroup_stream_chunk(
    track_alias: int, obj: MoqtObject, body: bytes | None = None
) -> bytes:
    """Header plus object body for a one-object subgroup stream.

    ``body`` is the cached :func:`encode_subgroup_object` encoding when the
    caller already has it (encode-once fan-out); only the small header is
    serialised per subscriber.
    """
    buffer = bytearray()
    append_varint(buffer, DataStreamType.SUBGROUP_HEADER)
    append_varint(buffer, track_alias)
    append_varint(buffer, obj.group_id)
    append_varint(buffer, obj.subgroup_id)
    buffer.append(obj.publisher_priority)
    buffer += body if body is not None else encode_subgroup_object(obj)
    return bytes(buffer)


_OBJECT_STATUSES = {int(status): status for status in ObjectStatus}


def _object_status(value: int) -> ObjectStatus:
    status = _OBJECT_STATUSES.get(value)
    if status is None:
        raise ProtocolViolation(f"unknown object status {value:#x}")
    return status


def decode_subgroup_object(reader: VarintReader, header: SubgroupStreamHeader) -> MoqtObject:
    """Decode one object from a subgroup stream."""
    object_id = reader.read_varint()
    extensions = reader.read_length_prefixed()
    payload = reader.read_length_prefixed()
    status = _object_status(reader.read_varint())
    return MoqtObject(
        group_id=header.group_id,
        object_id=object_id,
        payload=payload,
        subgroup_id=header.subgroup_id,
        publisher_priority=header.publisher_priority,
        status=status,
        extensions=extensions,
    )


def encode_fetch_object(obj: MoqtObject) -> bytes:
    """Encode one object following a fetch stream header."""
    buffer = bytearray()
    append_varint(buffer, obj.group_id)
    append_varint(buffer, obj.subgroup_id)
    append_varint(buffer, obj.object_id)
    buffer.append(obj.publisher_priority)
    append_varint(buffer, len(obj.extensions))
    buffer += obj.extensions
    append_varint(buffer, len(obj.payload))
    buffer += obj.payload
    append_varint(buffer, int(obj.status))
    return bytes(buffer)


def decode_fetch_object(reader: VarintReader) -> MoqtObject:
    """Decode one object from a fetch stream."""
    group_id = reader.read_varint()
    subgroup_id = reader.read_varint()
    object_id = reader.read_varint()
    priority = reader.read_uint8()
    extensions = reader.read_length_prefixed()
    payload = reader.read_length_prefixed()
    status = _object_status(reader.read_varint())
    return MoqtObject(
        group_id=group_id,
        object_id=object_id,
        payload=payload,
        subgroup_id=subgroup_id,
        publisher_priority=priority,
        status=status,
        extensions=extensions,
    )


def decode_complete_datastream(
    data: bytes,
) -> tuple[SubgroupStreamHeader | FetchStreamHeader, tuple[MoqtObject, ...]]:
    """Decode a data stream: the one decoder, since every stream arrives whole.

    A data stream is one STREAM frame with offset 0 and FIN (the only shape
    :meth:`~repro.quic.connection.QuicConnection.send_encoded_stream` sends,
    and the only one the receiving connection delivers), so there is nothing
    to reassemble and the bytes must be exactly a header followed by whole
    objects.  Returns ``(header, objects)``.  Anything else — an unknown
    stream type or object status, a truncated header, a truncated last
    object — raises :class:`~repro.moqt.errors.ProtocolViolation`, and
    nothing else does.  The result is immutable (a header and a tuple of
    frozen objects), which is what lets the receiving session keep it in its
    simulation's memo and hand one decode to every sibling subscriber of a
    fan-out.
    """
    objects: list[MoqtObject] = []
    reader = VarintReader(data)
    try:
        stream_type = reader.read_varint()
        if stream_type == DataStreamType.SUBGROUP_HEADER:
            header = SubgroupStreamHeader.decode(reader)
            while not reader.at_end():
                objects.append(decode_subgroup_object(reader, header))
        elif stream_type == DataStreamType.FETCH_HEADER:
            header = FetchStreamHeader.decode(reader)
            while not reader.at_end():
                objects.append(decode_fetch_object(reader))
        else:
            raise ProtocolViolation(f"unknown data stream type {stream_type:#x}")
    except ValueError as error:
        raise ProtocolViolation(f"malformed data stream: {error}") from error
    return header, tuple(objects)
