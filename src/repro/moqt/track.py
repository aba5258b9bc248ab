"""Track naming: namespaces and full track names.

MoQT identifies a track by a *track namespace* — a tuple of byte strings —
plus a *track name*, a single byte string.  The combined encoded length of
namespace and name must not exceed 4096 bytes; the paper leans on this limit
when mapping DNS queries into track names (Fig. 3 leaves 4091 bytes for the
QNAME).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.quic.varint import VarintReader, append_varint

MAX_FULL_TRACK_NAME_LENGTH = 4096
MAX_NAMESPACE_ELEMENTS = 32


class TrackNameError(ValueError):
    """Raised for invalid namespaces or track names."""


@dataclass(frozen=True, slots=True)
class TrackNamespace:
    """A namespace: an ordered tuple of byte-string elements."""

    elements: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.elements) <= MAX_NAMESPACE_ELEMENTS:
            raise TrackNameError(
                f"namespace must have 1..{MAX_NAMESPACE_ELEMENTS} elements, "
                f"got {len(self.elements)}"
            )

    @classmethod
    def of(cls, *elements: bytes | str) -> "TrackNamespace":
        """Build a namespace from byte-string or text elements."""
        converted = tuple(
            element.encode("utf-8") if isinstance(element, str) else bytes(element)
            for element in elements
        )
        return cls(converted)

    def encoded_length(self) -> int:
        """Total length of the elements (excluding length prefixes)."""
        return sum(len(element) for element in self.elements)

    def append_to(self, buffer: bytearray) -> None:
        """Append a varint count followed by length-prefixed elements."""
        append_varint(buffer, len(self.elements))
        for element in self.elements:
            append_varint(buffer, len(element))
            buffer += element

    @classmethod
    def from_reader(cls, reader: VarintReader) -> "TrackNamespace":
        """Decode from a :class:`VarintReader`."""
        count = reader.read_varint()
        if not 1 <= count <= MAX_NAMESPACE_ELEMENTS:
            raise TrackNameError(f"invalid namespace element count: {count}")
        return cls(tuple(reader.read_length_prefixed() for _ in range(count)))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "/".join(element.hex() for element in self.elements)


@dataclass(frozen=True, slots=True)
class FullTrackName:
    """A namespace plus a track name, uniquely identifying a track."""

    namespace: TrackNamespace
    name: bytes

    def __post_init__(self) -> None:
        total = self.namespace.encoded_length() + len(self.name)
        if total > MAX_FULL_TRACK_NAME_LENGTH:
            raise TrackNameError(
                f"full track name too long: {total} > {MAX_FULL_TRACK_NAME_LENGTH}"
            )

    @classmethod
    def of(cls, namespace: Iterable[bytes | str] | TrackNamespace, name: bytes | str) -> "FullTrackName":
        """Convenience constructor accepting text or byte elements."""
        if not isinstance(namespace, TrackNamespace):
            namespace = TrackNamespace.of(*namespace)
        raw_name = name.encode("utf-8") if isinstance(name, str) else bytes(name)
        return cls(namespace, raw_name)

    def encoded_length(self) -> int:
        """Combined length of namespace elements and track name."""
        return self.namespace.encoded_length() + len(self.name)

    def append_to(self, buffer: bytearray) -> None:
        """Append the namespace followed by the length-prefixed track name."""
        self.namespace.append_to(buffer)
        append_varint(buffer, len(self.name))
        buffer += self.name

    @classmethod
    def from_reader(cls, reader: VarintReader) -> "FullTrackName":
        """Decode from a :class:`VarintReader`."""
        namespace = TrackNamespace.from_reader(reader)
        name = reader.read_length_prefixed()
        return cls(namespace, name)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.namespace}:{self.name.hex()}"
