"""Domain names with full wire-format support.

A :class:`Name` is an immutable sequence of labels.  Names can be parsed
from presentation format (``"www.example.com."``), rendered back, encoded
into DNS wire format (length-prefixed labels terminated by the root label)
with optional compression, and decoded from wire format including
compression-pointer chasing with loop protection.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
_POINTER_MASK = 0xC0


class NameError_(ValueError):
    """Raised for malformed names or wire data.

    Named with a trailing underscore to avoid shadowing the builtin
    ``NameError``.
    """


class Name:
    """An immutable, case-insensitive DNS domain name."""

    __slots__ = ("_labels",)

    def __init__(self, labels: Iterable[bytes] = ()) -> None:
        normalized = tuple(bytes(label).lower() for label in labels)
        for label in normalized:
            if not label:
                raise NameError_("empty label inside a name")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(f"label too long ({len(label)} > {MAX_LABEL_LENGTH})")
        wire_length = sum(len(label) + 1 for label in normalized) + 1
        if wire_length > MAX_NAME_LENGTH:
            raise NameError_(f"name too long ({wire_length} > {MAX_NAME_LENGTH})")
        self._labels = normalized

    # ----------------------------------------------------------- constructors
    @classmethod
    def _from_labels(cls, labels: tuple[bytes, ...]) -> "Name":
        """Trusted constructor: ``labels`` is a suffix of an existing name's
        labels, so it is already lowercased and within the length limits."""
        name = object.__new__(cls)
        name._labels = labels
        return name

    @classmethod
    def root(cls) -> "Name":
        """The root name ``"."``."""
        return cls._from_labels(())

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse presentation format; a trailing dot is optional.

        >>> Name.from_text("WWW.Example.COM").to_text()
        'www.example.com.'
        """
        stripped = text.strip()
        if stripped in ("", "."):
            return cls.root()
        if stripped.endswith("."):
            stripped = stripped[:-1]
        labels = [label.encode("ascii") for label in stripped.split(".")]
        return cls(labels)

    # ------------------------------------------------------------- properties
    @property
    def labels(self) -> tuple[bytes, ...]:
        """The labels, most-specific first, lowercased."""
        return self._labels

    @property
    def is_root(self) -> bool:
        """Whether this is the root name."""
        return not self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._labels)

    def __hash__(self) -> int:
        return hash(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._labels == other._labels

    def __lt__(self, other: "Name") -> bool:
        return self.canonical_key() < other.canonical_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Name({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    # -------------------------------------------------------------- relations
    def parent(self) -> "Name":
        """The name with the leftmost label removed."""
        if not self._labels:
            raise NameError_("the root name has no parent")
        return Name._from_labels(self._labels[1:])

    def child(self, label: str | bytes) -> "Name":
        """Prepend a label, producing a more specific name."""
        raw = label.encode("ascii") if isinstance(label, str) else bytes(label)
        return Name((raw,) + self._labels)

    def is_subdomain_of(self, other: "Name") -> bool:
        """Whether ``self`` equals or falls below ``other``."""
        if len(other) > len(self):
            return False
        if len(other) == 0:
            return True
        return self._labels[len(self) - len(other):] == other._labels

    def relativize(self, origin: "Name") -> tuple[bytes, ...]:
        """Labels of ``self`` below ``origin`` (raises if not a subdomain)."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not a subdomain of {origin}")
        return self._labels[: len(self) - len(origin)]

    def ancestors(self) -> list["Name"]:
        """All names from ``self`` up to and including the root."""
        labels = self._labels
        return [self, *(Name._from_labels(labels[index:]) for index in range(1, len(labels) + 1))]

    def canonical_key(self) -> tuple[bytes, ...]:
        """Labels in reversed (root-first) order, for canonical sorting."""
        return tuple(reversed(self._labels))

    # ------------------------------------------------------------------- text
    def to_text(self) -> str:
        """Presentation format with a trailing dot."""
        if self.is_root:
            return "."
        return ".".join(label.decode("ascii") for label in self._labels) + "."

    # ------------------------------------------------------------------- wire
    def to_wire(self, compress: dict["Name", int] | None = None, offset: int = 0) -> bytes:
        """Encode to wire format.

        When ``compress`` is provided it maps already-emitted names to their
        offsets in the enclosing message; suffixes found there are replaced by
        a compression pointer and new suffixes are added at ``offset``.
        """
        output = bytearray()
        remaining = self
        while True:
            if remaining.is_root:
                output.append(0)
                break
            if compress is not None and remaining in compress:
                pointer = compress[remaining]
                output += bytes([_POINTER_MASK | (pointer >> 8), pointer & 0xFF])
                break
            if compress is not None:
                position = offset + len(output)
                if position < 0x4000:
                    compress[remaining] = position
            label = remaining.labels[0]
            output.append(len(label))
            output += label
            remaining = remaining.parent()
        return bytes(output)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int) -> tuple["Name", int]:
        """Decode a name starting at ``offset``.

        Returns the name and the offset just past its encoding at the original
        position (compression pointers do not advance the caller's cursor
        beyond the 2-byte pointer).
        """
        labels: list[bytes] = []
        cursor = offset
        consumed: int | None = None
        jumps = 0
        while True:
            if cursor >= len(wire):
                raise NameError_("truncated name")
            length = wire[cursor]
            if length & _POINTER_MASK == _POINTER_MASK:
                if cursor + 1 >= len(wire):
                    raise NameError_("truncated compression pointer")
                pointer = ((length & 0x3F) << 8) | wire[cursor + 1]
                if consumed is None:
                    consumed = cursor + 2
                jumps += 1
                if jumps > 128:
                    raise NameError_("compression pointer loop")
                if pointer >= cursor:
                    raise NameError_("forward compression pointer")
                cursor = pointer
                continue
            if length & _POINTER_MASK:
                raise NameError_(f"reserved label type: {length:#x}")
            cursor += 1
            if length == 0:
                if consumed is None:
                    consumed = cursor
                break
            if cursor + length > len(wire):
                raise NameError_("truncated label")
            labels.append(wire[cursor: cursor + length])
            cursor += length
        return cls(labels), consumed
