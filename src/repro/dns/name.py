"""Domain names with full wire-format support.

A :class:`Name` is an immutable sequence of labels.  Names can be parsed
from presentation format (``"www.example.com."``), rendered back, encoded
into DNS wire format (length-prefixed labels terminated by the root label)
with optional compression, and decoded from wire format including
compression-pointer chasing with loop protection.

A message is decoded and encoded over one per-message *name table*
(``docs/dns-codec.md``): :data:`NameTable` maps an offset to the name that
starts there while decoding, and ``dict[Name, int]`` maps a name to the
offset it was written at while encoding.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.dns.errors import NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
MAX_POINTER_JUMPS = 128
_POINTER_MASK = 0xC0


def _lowercase(label: bytes) -> bytes:
    """``label`` lowercased: the very object when it already is lowercase
    ``bytes``, so a name built from another name's labels shares them."""
    lowered = bytes(label).lower()
    return label if type(label) is bytes and lowered == label else lowered


class Name:
    """An immutable, case-insensitive DNS domain name.

    The hash of the label tuple is computed once, on construction: names are
    dictionary keys on every hop of a lookup and of a pushed update.
    """

    __slots__ = ("_labels", "_hash")

    def __init__(self, labels: Iterable[bytes]) -> None:
        normalized = tuple(map(_lowercase, labels))
        for label in normalized:
            if not label:
                raise NameError_("empty label inside a name")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(f"label too long ({len(label)} > {MAX_LABEL_LENGTH})")
        wire_length = sum(len(label) + 1 for label in normalized) + 1
        if wire_length > MAX_NAME_LENGTH:
            raise NameError_(f"name too long ({wire_length} > {MAX_NAME_LENGTH})")
        self._labels = normalized
        self._hash = hash(normalized)

    # ----------------------------------------------------------- constructors
    @classmethod
    def _from_labels(cls, labels: tuple[bytes, ...]) -> "Name":
        """Trusted constructor: ``labels`` is a suffix of an existing name's
        labels, or was lowercased and length-checked by :meth:`from_wire`'s
        walk, so there is nothing left to validate."""
        name = object.__new__(cls)
        name._labels = labels
        name._hash = hash(labels)
        return name

    @classmethod
    def root(cls) -> "Name":
        """The root name ``"."``."""
        return _ROOT

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
        return self._hash

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
    def to_wire(self) -> bytes:
        """Encode to wire format, uncompressed."""
        output = bytearray()
        self._append_wire(output, None)
        return bytes(output)

    def _append_wire(self, output: bytearray, compress: dict["Name", int] | None) -> None:
        """Append the encoding to ``output``.

        When ``compress`` is provided it maps already-emitted names to their
        offsets in the message, and ``output`` is the message itself, so a
        new suffix sits at ``len(output)``; suffixes found there are replaced
        by a compression pointer and new suffixes are added to it."""
        labels = self._labels
        if compress is None:
            for label in labels:
                output.append(len(label))
                output += label
            output.append(0)
            return
        for index, label in enumerate(labels):
            suffix = Name._from_labels(labels[index:]) if index else self
            pointer = compress.get(suffix)
            if pointer is not None:
                output.append(_POINTER_MASK | (pointer >> 8))
                output.append(pointer & 0xFF)
                return
            position = len(output)
            if position < 0x4000:
                compress[suffix] = position
            output.append(len(label))
            output += label
        output.append(0)

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, table: NameTable | None = None
    ) -> tuple["Name", int]:
        """Decode a name starting at ``offset``.

        Returns the name and the offset just past its encoding at the original
        position (compression pointers do not advance the caller's cursor
        beyond the 2-byte pointer).

        ``table`` is the enclosing message's name table: every label this
        walk reads is filed there with the name that starts at it, and a
        compression pointer to a filed offset is answered from the table
        instead of being walked again.  Without a table the whole chain is
        walked; both give the same name, or the same rejection, for the same
        bytes.
        """
        size = len(wire)
        cursor = offset
        consumed = -1
        jumps = 0
        budget = MAX_NAME_LENGTH - 1  # the root label's byte is always there
        labels: list[bytes] = []
        marks: list[tuple[int, int]] = []  # (offset, jumps before it) per label
        suffix = _ROOT
        while True:
            if cursor >= size:
                raise NameError_("truncated name")
            length = wire[cursor]
            if length >= _POINTER_MASK:
                if cursor + 1 >= size:
                    raise NameError_("truncated compression pointer")
                pointer = ((length & 0x3F) << 8) | wire[cursor + 1]
                if consumed < 0:
                    consumed = cursor + 2
                jumps += 1
                if jumps > MAX_POINTER_JUMPS:
                    raise NameError_("compression pointer loop")
                if pointer >= cursor:
                    raise NameError_("forward compression pointer")
                cursor = pointer
                # Only a cursor that a checked pointer led to is looked up:
                # the caller's cursor must advance past bytes actually read.
                filed = table.get(pointer) if table is not None else None
                if filed is None:
                    continue
                suffix, suffix_jumps = filed
                jumps += suffix_jumps
                if jumps > MAX_POINTER_JUMPS:
                    raise NameError_("compression pointer loop")
                if labels:
                    tail = suffix._labels
                    budget -= sum(map(len, tail)) + len(tail)
                    if budget < 0:
                        raise NameError_(f"name too long (> {MAX_NAME_LENGTH})")
                break
            if length & _POINTER_MASK:
                raise NameError_(f"reserved label type: {length:#x}")
            if length == 0:
                if consumed < 0:
                    consumed = cursor + 1
                break
            # A 6-bit length is at most 63 and not zero here, so the label
            # needs none of the constructor's per-label checks.
            end = cursor + 1 + length
            if end > size:
                raise NameError_("truncated label")
            budget -= length + 1
            if budget < 0:
                raise NameError_(f"name too long (> {MAX_NAME_LENGTH})")
            labels.append(bytes(wire[cursor + 1: end]).lower())
            marks.append((cursor, jumps))
            cursor = end
        if not labels:
            return suffix, consumed
        tail = suffix._labels
        if table is None:
            return cls._from_labels((*labels, *tail)), consumed
        name = suffix
        for index in range(len(labels) - 1, -1, -1):
            tail = (labels[index], *tail)
            name = cls._from_labels(tail)
            start, before = marks[index]
            table[start] = (name, jumps - before)
        return name, consumed


#: A message's name table while decoding: offset of a label -> (the name that
#: starts there, the pointer jumps a walk from there takes).  The jump count
#: keeps the loop guard exact when a walk is cut short by a table hit.
NameTable = dict[int, tuple[Name, int]]

_ROOT = Name._from_labels(())
