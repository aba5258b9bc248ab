"""Resource records and RRsets."""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.dns.errors import MessageError
from repro.dns.name import Name, NameTable
from repro.dns.rdata import Rdata, decode_rdata
from repro.dns.types import DNS_CLASSES, RECORD_TYPES, DNSClass, RecordType

#: TYPE, CLASS, TTL, RDLENGTH: the fixed part between owner name and RDATA.
_FIXED = struct.Struct("!HHIH")


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """A single resource record: owner name, type, class, TTL and RDATA."""

    name: Name
    rdtype: RecordType
    rdata: Rdata
    ttl: int
    rdclass: DNSClass = DNSClass.IN

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise ValueError(f"TTL must be non-negative: {self.ttl}")

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """A copy of this record with a different TTL."""
        return replace(self, ttl=ttl)

    def to_text(self) -> str:
        """One-line master-file representation."""
        return (
            f"{self.name.to_text()} {self.ttl} {self.rdclass.to_text()} "
            f"{self.rdtype.to_text()} {self.rdata.to_text()}"
        )

    def to_wire(self) -> bytes:
        """Encode the record, uncompressed."""
        output = bytearray()
        self._append_wire(output, None)
        return bytes(output)

    def _append_wire(self, output: bytearray, compress: dict[Name, int] | None) -> None:
        """Append the encoding to ``output`` (see ``Name._append_wire``)."""
        self.name._append_wire(output, compress)
        rdata = self.rdata.to_wire()
        output += _FIXED.pack(self.rdtype, self.rdclass, self.ttl, len(rdata))
        output += rdata

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, table: NameTable | None
    ) -> tuple["ResourceRecord", int]:
        """Decode one record starting at ``offset``; returns (record, next offset).

        ``table`` is the name table of the message ``wire`` holds
        (``Name.from_wire``).  A TYPE or CLASS without a mnemonic is carried
        as an opaque member, its RDATA as ``GenericRdata``.
        """
        name, offset = Name.from_wire(wire, offset, table)
        rdata_offset = offset + 10
        if rdata_offset > len(wire):
            raise MessageError("truncated resource record")
        rdtype_raw, rdclass_raw, ttl, rdlength = _FIXED.unpack_from(wire, offset)
        rdtype = RECORD_TYPES[rdtype_raw]
        # Filled in directly: the fields come from unsigned wire integers and
        # typed decoders, so the constructor has nothing to check.
        record = object.__new__(cls)
        fill = object.__setattr__
        fill(record, "name", name)
        fill(record, "rdtype", rdtype)
        fill(record, "rdata", decode_rdata(rdtype, wire, rdata_offset, rdlength, table))
        fill(record, "ttl", ttl)
        fill(record, "rdclass", DNS_CLASSES[rdclass_raw])
        return record, rdata_offset + rdlength

    def key(self) -> tuple[Name, RecordType, DNSClass]:
        """Grouping key for RRset membership."""
        return (self.name, self.rdtype, self.rdclass)


class RRset:
    """All records sharing an owner name, type and class.

    The records keep insertion order but compare as sets: two RRsets with the
    same records in different order are equal.  This matters for the paper's
    change-rate methodology, which compares *lexicographically ordered*
    samples to discount round-robin rotation.
    """

    __slots__ = ("name", "rdtype", "rdclass", "_records")

    def __init__(
        self,
        name: Name,
        rdtype: RecordType,
        records: Iterable[ResourceRecord] = (),
        rdclass: DNSClass = DNSClass.IN,
    ) -> None:
        self.name = name
        self.rdtype = rdtype
        self.rdclass = rdclass
        self._records: list[ResourceRecord] = []
        for record in records:
            self.add(record)

    def add(self, record: ResourceRecord) -> None:
        """Add a record; its key must match the RRset's key."""
        if record.key() != (self.name, self.rdtype, self.rdclass):
            raise ValueError(
                f"record {record.to_text()} does not belong to RRset "
                f"{self.name.to_text()}/{self.rdtype.to_text()}"
            )
        if record not in self._records:
            self._records.append(record)

    def __iter__(self) -> Iterator[ResourceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RRset):
            return NotImplemented
        return (
            self.name == other.name
            and self.rdtype == other.rdtype
            and self.rdclass == other.rdclass
            and set(self._records) == set(other._records)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.rdtype, self.rdclass, frozenset(self._records)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RRset({self.name.to_text()} {self.rdtype.to_text()} x{len(self)})"

    @property
    def ttl(self) -> int:
        """The minimum TTL across member records (0 for an empty set)."""
        if not self._records:
            return 0
        return min(record.ttl for record in self._records)

    @property
    def records(self) -> tuple[ResourceRecord, ...]:
        """The member records in insertion order."""
        return tuple(self._records)

    def sorted_rdata_texts(self) -> list[str]:
        """Lexicographically sorted RDATA strings.

        This is the representation the paper's §2 methodology compares between
        consecutive observations so that round-robin reordering of the same
        addresses does not count as a change.
        """
        return sorted(record.rdata.to_text() for record in self._records)

    def with_ttl(self, ttl: int) -> "RRset":
        """A copy with every member record's TTL replaced."""
        return RRset(
            self.name,
            self.rdtype,
            [record.with_ttl(ttl) for record in self._records],
            self.rdclass,
        )

    def to_text(self) -> str:
        """Master-file lines for all member records."""
        return "\n".join(record.to_text() for record in self._records)
