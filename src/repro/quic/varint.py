"""QUIC variable-length integers (RFC 9000, section 16).

Varints encode unsigned integers up to 2^62 - 1 in 1, 2, 4 or 8 bytes; the
two most significant bits of the first byte give the length.  The same
encoding is used throughout MoQT, so the MoQT codec imports these helpers.

This module sits under every packet, frame and control message the simulator
moves, so the codec is written for speed: one-byte encodings come from a
precomputed table, multi-byte encodings ride ``int.to_bytes`` /
``int.from_bytes`` (single C calls instead of per-byte Python arithmetic),
and :class:`VarintReader` parses over a :class:`memoryview` so cursors over
large buffers never copy the underlying data to read a varint.
"""

from __future__ import annotations

MAX_VARINT = (1 << 62) - 1

_ONE_BYTE_MAX = 63
_TWO_BYTE_MAX = 16383
_FOUR_BYTE_MAX = 1073741823

#: All 64 one-byte encodings, precomputed — the overwhelmingly common case
#: (frame types, stream IDs, message types, small lengths).
_ONE_BYTE = tuple(bytes((value,)) for value in range(64))

#: Value masks indexed by the two-bit length prefix (1, 2, 4, 8 bytes).
_VALUE_MASK = (0x3F, 0x3FFF, 0x3FFFFFFF, 0x3FFFFFFFFFFFFFFF)


class VarintError(ValueError):
    """Raised for out-of-range values or truncated encodings."""


def varint_size(value: int) -> int:
    """The number of bytes :func:`encode_varint` will use for ``value``."""
    if value < 0 or value > MAX_VARINT:
        raise VarintError(f"value out of varint range: {value}")
    if value <= _ONE_BYTE_MAX:
        return 1
    if value <= _TWO_BYTE_MAX:
        return 2
    if value <= _FOUR_BYTE_MAX:
        return 4
    return 8


def encode_varint(value: int) -> bytes:
    """Encode ``value`` as a QUIC varint."""
    if value <= _ONE_BYTE_MAX:
        if value < 0:
            raise VarintError(f"value out of varint range: {value}")
        return _ONE_BYTE[value]
    if value <= _TWO_BYTE_MAX:
        return (0x4000 | value).to_bytes(2, "big")
    if value <= _FOUR_BYTE_MAX:
        return (0x80000000 | value).to_bytes(4, "big")
    if value <= MAX_VARINT:
        return (0xC000000000000000 | value).to_bytes(8, "big")
    raise VarintError(f"value out of varint range: {value}")


def append_varint(buffer: bytearray, value: int) -> None:
    """Append the varint encoding of ``value`` to ``buffer`` in place.

    The batch-serialisation entry point: frame and packet encoders share one
    output buffer instead of allocating a writer (and joining byte strings)
    per element.
    """
    if value <= _ONE_BYTE_MAX:
        if value < 0:
            raise VarintError(f"value out of varint range: {value}")
        buffer += _ONE_BYTE[value]
    elif value <= _TWO_BYTE_MAX:
        buffer += (0x4000 | value).to_bytes(2, "big")
    elif value <= _FOUR_BYTE_MAX:
        buffer += (0x80000000 | value).to_bytes(4, "big")
    elif value <= MAX_VARINT:
        buffer += (0xC000000000000000 | value).to_bytes(8, "big")
    else:
        raise VarintError(f"value out of varint range: {value}")


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    if offset >= len(data):
        raise VarintError("truncated varint: no bytes available")
    first = data[offset]
    prefix = first >> 6
    if prefix == 0:
        return first, offset + 1
    end = offset + (1 << prefix)
    if end > len(data):
        raise VarintError(f"truncated varint: need {1 << prefix} bytes")
    return int.from_bytes(data[offset:end], "big") & _VALUE_MASK[prefix], end


class VarintReader:
    """A cursor over a byte string that reads varints and length-prefixed data.

    Both the QUIC packet parser and the MoQT message codec are written in
    terms of this reader, which keeps the parsing code flat and explicit.
    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview``; mutable
    buffers are wrapped in a :class:`memoryview` so cursors over reassembly
    buffers never copy the data they scan (``bytes`` input is indexed and
    sliced directly — already zero-cost to construct from).
    """

    __slots__ = ("_view", "_length", "_offset")

    def __init__(self, data: bytes | bytearray | memoryview) -> None:
        if type(data) is not bytes and type(data) is not memoryview:
            data = memoryview(data)
        self._view = data
        self._length = len(data)
        self._offset = 0

    @property
    def offset(self) -> int:
        """Current cursor position."""
        return self._offset

    @property
    def remaining(self) -> int:
        """Number of unread bytes."""
        return self._length - self._offset

    def at_end(self) -> bool:
        """Whether the cursor is at the end of the data."""
        return self._offset >= self._length

    def read_varint(self) -> int:
        """Read one varint."""
        offset = self._offset
        if offset >= self._length:
            raise VarintError("truncated varint: no bytes available")
        view = self._view
        first = view[offset]
        prefix = first >> 6
        if prefix == 0:
            self._offset = offset + 1
            return first
        end = offset + (1 << prefix)
        if end > self._length:
            raise VarintError(f"truncated varint: need {1 << prefix} bytes")
        self._offset = end
        return int.from_bytes(view[offset:end], "big") & _VALUE_MASK[prefix]

    def read_bytes(self, count: int) -> bytes:
        """Read exactly ``count`` raw bytes."""
        end = self._offset + count
        if end > self._length:
            raise VarintError(f"truncated data: need {count} bytes, have {self.remaining}")
        chunk = self._view[self._offset: end]
        self._offset = end
        return chunk if type(chunk) is bytes else bytes(chunk)

    def read_uint8(self) -> int:
        """Read a single byte as an unsigned integer."""
        offset = self._offset
        if offset >= self._length:
            raise VarintError("truncated data: need 1 bytes, have 0")
        self._offset = offset + 1
        return self._view[offset]

    def read_length_prefixed(self) -> bytes:
        """Read a varint length followed by that many bytes."""
        length = self.read_varint()
        return self.read_bytes(length)


class VarintWriter:
    """Builds byte strings out of varints."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def write_varint(self, value: int) -> "VarintWriter":
        """Append one varint."""
        append_varint(self._buffer, value)
        return self

    def getvalue(self) -> bytes:
        """The accumulated bytes."""
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)
