"""Key-value parameters used in MoQT setup and subscription messages."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.quic.varint import VarintReader, append_varint


class SetupParameterType(enum.IntEnum):
    """Parameter keys used in CLIENT_SETUP / SERVER_SETUP."""

    PATH = 0x1
    MAX_REQUEST_ID = 0x2
    MAX_AUTH_TOKEN_CACHE_SIZE = 0x4


class VersionSpecificParameterType(enum.IntEnum):
    """Parameter keys used in SUBSCRIBE / FETCH and friends."""

    AUTHORIZATION_TOKEN = 0x1
    DELIVERY_TIMEOUT = 0x2
    MAX_CACHE_DURATION = 0x4


@dataclass(frozen=True, slots=True)
class Parameter:
    """A single (key, value) parameter.

    Even-numbered keys carry a varint value, odd-numbered keys carry an
    opaque byte string, following the draft's convention; for simplicity the
    value is always stored as bytes and the helpers convert as needed.
    """

    key: int
    value: bytes


@dataclass(frozen=True, slots=True)
class Parameters:
    """An ordered, immutable collection of parameters with a wire codec.

    Immutable all the way down because the sessions of a simulation share one
    decoded message per distinct bytes (its decode memo).
    """

    entries: tuple[Parameter, ...] = ()

    def get(self, key: int) -> Parameter | None:
        """The first parameter with the given key, if any."""
        for parameter in self.entries:
            if parameter.key == key:
                return parameter
        return None

    def __len__(self) -> int:
        return len(self.entries)

    def append_to(self, buffer: bytearray) -> None:
        """Append a varint count followed by key/length/value triples."""
        append_varint(buffer, len(self.entries))
        for parameter in self.entries:
            append_varint(buffer, parameter.key)
            append_varint(buffer, len(parameter.value))
            buffer += parameter.value

    @classmethod
    def from_reader(cls, reader: VarintReader) -> "Parameters":
        """Decode from a :class:`VarintReader`."""
        count = reader.read_varint()
        entries = []
        for _ in range(count):
            key = reader.read_varint()
            value = reader.read_length_prefixed()
            entries.append(Parameter(key, value))
        return cls(tuple(entries))
