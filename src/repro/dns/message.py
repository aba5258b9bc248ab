"""DNS messages: header, question and record sections, with a wire codec.

The codec implements the RFC 1035 message format including name compression
on output and decompression on input, each in one pass over one per-message
name table (``docs/dns-codec.md``).  Convenience constructors
(:func:`make_query`, :func:`make_response`) build the messages the servers
and resolvers in this repository exchange.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable

from repro.dns.errors import MessageError
from repro.dns.name import Name, NameTable
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import (
    DNS_CLASSES,
    OPCODES,
    RCODES,
    RECORD_TYPES,
    DNSClass,
    Opcode,
    Rcode,
    RecordType,
)

_HEADER = struct.Struct("!HHHHHH")
_QUESTION_FIXED = struct.Struct("!HH")  # QTYPE, QCLASS


@dataclass(frozen=True, slots=True)
class Flags:
    """The flag bits of the DNS header (QR, AA, TC, RD, RA, AD, CD)."""

    qr: bool = False
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    ad: bool = False
    cd: bool = False

    def to_int(self, opcode: Opcode, rcode: Rcode) -> int:
        """Pack flags, opcode and rcode into the 16-bit header field."""
        return (
            (0x8000 if self.qr else 0)
            | ((opcode & 0xF) << 11)
            | (0x0400 if self.aa else 0)
            | (0x0200 if self.tc else 0)
            | (0x0100 if self.rd else 0)
            | (0x0080 if self.ra else 0)
            | (0x0020 if self.ad else 0)
            | (0x0010 if self.cd else 0)
            | (rcode & 0xF)
        )

    @classmethod
    def from_int(cls, value: int) -> tuple["Flags", Opcode, Rcode]:
        """Unpack the 16-bit header field into flags, opcode and rcode."""
        opcode = OPCODES.get((value >> 11) & 0xF)
        rcode = RCODES.get(value & 0xF)
        if opcode is None or rcode is None:
            raise MessageError(f"unknown opcode or rcode in header flags {value:#06x}")
        return _FLAGS_BY_BITS[value & _FLAG_BITS], opcode, rcode


#: The 128 possible values, interned: a decoded header shares its ``Flags``.
_FLAGS_BY_BITS = {
    flags.to_int(Opcode.QUERY, Rcode.NOERROR): flags
    for flags in (Flags(*bits) for bits in product((False, True), repeat=7))
}
_FLAG_BITS = 0x87B0  # QR, AA, TC, RD, RA, AD, CD


@dataclass(frozen=True, slots=True)
class Header:
    """The fixed 12-byte DNS message header."""

    message_id: int = 0
    flags: Flags = field(default_factory=Flags)
    opcode: Opcode = Opcode.QUERY
    rcode: Rcode = Rcode.NOERROR

    def to_wire(self, counts: tuple[int, int, int, int]) -> bytes:
        """Encode with the given section counts (QD, AN, NS, AR)."""
        return _HEADER.pack(
            self.message_id, self.flags.to_int(self.opcode, self.rcode), *counts
        )

    @classmethod
    def from_wire(cls, wire: bytes) -> tuple["Header", tuple[int, int, int, int]]:
        """Decode the header and section counts from the first 12 bytes."""
        if len(wire) < 12:
            raise MessageError("message shorter than the 12-byte header")
        message_id, raw_flags, qd, an, ns, ar = _HEADER.unpack_from(wire, 0)
        # Filled in directly, like the records (``ResourceRecord.from_wire``).
        header = object.__new__(cls)
        flags, opcode, rcode = Flags.from_int(raw_flags)
        fill = object.__setattr__
        fill(header, "message_id", message_id)
        fill(header, "flags", flags)
        fill(header, "opcode", opcode)
        fill(header, "rcode", rcode)
        return header, (qd, an, ns, ar)


@dataclass(frozen=True, slots=True)
class Question:
    """A question section entry: QNAME, QTYPE, QCLASS."""

    qname: Name
    qtype: RecordType
    qclass: DNSClass = DNSClass.IN

    def to_wire(self) -> bytes:
        """Encode the question, uncompressed."""
        output = bytearray()
        self._append_wire(output, None)
        return bytes(output)

    def _append_wire(self, output: bytearray, compress: dict[Name, int] | None) -> None:
        """Append the encoding to ``output`` (see ``Name._append_wire``)."""
        self.qname._append_wire(output, compress)
        output += _QUESTION_FIXED.pack(self.qtype, self.qclass)

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, table: NameTable | None
    ) -> tuple["Question", int]:
        """Decode a question starting at ``offset``; ``table`` is the name
        table of the message ``wire`` holds (``Name.from_wire``)."""
        qname, offset = Name.from_wire(wire, offset, table)
        end = offset + 4
        if end > len(wire):
            raise MessageError("truncated question")
        qtype_raw, qclass_raw = _QUESTION_FIXED.unpack_from(wire, offset)
        question = object.__new__(cls)  # filled in directly, like the header
        fill = object.__setattr__
        fill(question, "qname", qname)
        fill(question, "qtype", RECORD_TYPES[qtype_raw])
        fill(question, "qclass", DNS_CLASSES[qclass_raw])
        return question, end

    def to_text(self) -> str:
        """Presentation format, e.g. ``"www.example.com. IN A"``."""
        return f"{self.qname.to_text()} {self.qclass.to_text()} {self.qtype.to_text()}"


@dataclass(frozen=True, slots=True)
class Message:
    """A complete DNS message: an immutable value, sections as tuples.

    One decoded instance may be shared by every role in the process that
    received the same bytes (``core/encapsulation.py``), so nothing in it can
    change after construction.
    """

    header: Header = field(default_factory=Header)
    questions: tuple[Question, ...] = ()
    answers: tuple[ResourceRecord, ...] = ()
    authorities: tuple[ResourceRecord, ...] = ()
    additionals: tuple[ResourceRecord, ...] = ()

    # ------------------------------------------------------------ convenience
    @property
    def question(self) -> Question:
        """The first (usually only) question."""
        if not self.questions:
            raise MessageError("message has no question")
        return self.questions[0]

    @property
    def rcode(self) -> Rcode:
        """The response code."""
        return self.header.rcode

    @property
    def is_response(self) -> bool:
        """Whether the QR bit is set."""
        return self.header.flags.qr

    def answer_rrset(self, rdtype: RecordType) -> RRset | None:
        """Collect the answer records of type ``rdtype`` into an RRset."""
        matching = [record for record in self.answers if record.rdtype == rdtype]
        if not matching:
            return None
        rrset = RRset(matching[0].name, rdtype, rdclass=matching[0].rdclass)
        for record in matching:
            rrset.add(record)
        return rrset

    def records(self) -> list[ResourceRecord]:
        """All records from all three record sections."""
        return [*self.answers, *self.authorities, *self.additionals]

    # ------------------------------------------------------------------- wire
    def to_wire(self) -> bytes:
        """Encode the full message with name compression."""
        counts = (
            len(self.questions),
            len(self.answers),
            len(self.authorities),
            len(self.additionals),
        )
        output = bytearray(self.header.to_wire(counts))
        compress: dict[Name, int] = {}  # the name table: name -> offset written at
        for question in self.questions:
            question._append_wire(output, compress)
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                record._append_wire(output, compress)
        return bytes(output)

    @classmethod
    def from_wire(cls, wire: bytes) -> "Message":
        """Decode a full message.

        Raises :class:`~repro.dns.errors.DnsFormatError` (``MessageError``,
        ``NameError_`` or ``RdataError``) for malformed bytes, nothing else.
        """
        header, (qd, an, ns, ar) = Header.from_wire(wire)
        table: NameTable = {}  # the name table: offset -> name that starts there
        offset = 12
        questions: list[Question] = []
        for _ in range(qd):
            question, offset = Question.from_wire(wire, offset, table)
            questions.append(question)
        sections: list[list[ResourceRecord]] = [[], [], []]
        for section, count in zip(sections, (an, ns, ar)):
            for _ in range(count):
                record, offset = ResourceRecord.from_wire(wire, offset, table)
                section.append(record)
        message = object.__new__(cls)  # filled in directly, like the header
        fill = object.__setattr__
        fill(message, "header", header)
        fill(message, "questions", tuple(questions))
        fill(message, "answers", tuple(sections[0]))
        fill(message, "authorities", tuple(sections[1]))
        fill(message, "additionals", tuple(sections[2]))
        return message

    # ------------------------------------------------------------------- text
    def to_text(self) -> str:
        """A dig-like multi-line rendering used by examples and traces."""
        lines = [
            f";; opcode: {self.header.opcode.name}, rcode: {self.header.rcode.name}, "
            f"id: {self.header.message_id}",
            ";; QUESTION SECTION:",
        ]
        lines.extend(f";{question.to_text()}" for question in self.questions)
        for title, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authorities),
            ("ADDITIONAL", self.additionals),
        ):
            if section:
                lines.append(f";; {title} SECTION:")
                lines.extend(record.to_text() for record in section)
        return "\n".join(lines)

    @property
    def size(self) -> int:
        """The encoded size of the message in bytes."""
        return len(self.to_wire())


def make_query(qname: Name | str, qtype: RecordType | str, recursion_desired: bool = True) -> Message:
    """Build a standard query message.

    Its id is 0: the transport that sends it assigns one.
    """
    name = qname if isinstance(qname, Name) else Name.from_text(qname)
    rdtype = qtype if isinstance(qtype, RecordType) else RecordType.from_text(qtype)
    header = Header(
        message_id=0,
        flags=Flags(qr=False, rd=recursion_desired),
        opcode=Opcode.QUERY,
        rcode=Rcode.NOERROR,
    )
    return Message(header=header, questions=(Question(name, rdtype),))


def make_response(
    query: Message,
    answers: Iterable[ResourceRecord] = (),
    authorities: Iterable[ResourceRecord] = (),
    additionals: Iterable[ResourceRecord] = (),
    rcode: Rcode = Rcode.NOERROR,
    authoritative: bool = False,
    recursion_available: bool = False,
) -> Message:
    """Build a response mirroring the query's id and question."""
    flags = Flags(
        qr=True,
        aa=authoritative,
        rd=query.header.flags.rd,
        ra=recursion_available,
        cd=query.header.flags.cd,
    )
    header = Header(
        message_id=query.header.message_id,
        flags=flags,
        opcode=query.header.opcode,
        rcode=rcode,
    )
    return Message(
        header=header,
        questions=query.questions,
        answers=tuple(answers),
        authorities=tuple(authorities),
        additionals=tuple(additionals),
    )
