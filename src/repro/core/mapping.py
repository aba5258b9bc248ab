"""Mapping DNS questions to MoQT namespaces and track names (Fig. 3).

The paper maps five fields of the DNS request onto the first three elements
of the MoQT track namespace, and the QNAME onto the track name:

* namespace element 1 — one byte packing the 4-bit OPCODE, the RD bit and the
  CD bit;
* namespace element 2 — the 2-byte QTYPE;
* namespace element 3 — the 2-byte QCLASS;
* track name — the QNAME in wire format (without compression).

Because MoQT limits the combined namespace + track name to 4096 bytes, this
leaves 4091 bytes for the QNAME, far above the DNS limit of 255.  Mapping only
these fields (and not, say, the message ID) guarantees that every subscriber
interested in the same question subscribes to the same track, so publishers
and relays can fan out one object to all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import MappingError
from repro.dns.errors import DnsFormatError
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.types import DNS_CLASSES, OPCODES, RECORD_TYPES, DNSClass, Opcode, RecordType
from repro.moqt.errors import FetchErrorCode, SubscribeErrorCode
from repro.moqt.session import FetchResult, SubscribeResult
from repro.moqt.track import FullTrackName, TrackNamespace

#: Bit positions inside the first namespace element.
_RD_BIT = 0x10
_CD_BIT = 0x20
_OPCODE_MASK = 0x0F

#: Limit left for the QNAME once the fixed namespace elements are accounted
#: for (4096 total - 1 - 2 - 2), as stated in §4.3 of the paper.
QNAME_BYTE_BUDGET = 4091


@dataclass(frozen=True, slots=True)
class DnsQuestionKey:
    """The protocol-relevant identity of a DNS question.

    Two requests with the same key are served by the same MoQT track.  The
    key is what every per-question table on the resolution path is indexed
    by, so its hash is computed once, on construction.
    """

    qname: Name
    qtype: RecordType
    qclass: DNSClass = DNSClass.IN
    opcode: Opcode = Opcode.QUERY
    recursion_desired: bool = True
    checking_disabled: bool = False
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.qname,
                    self.qtype,
                    self.qclass,
                    self.opcode,
                    self.recursion_desired,
                    self.checking_disabled,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_message(cls, message: Message) -> "DnsQuestionKey":
        """Extract the key from a query message."""
        question = message.question
        return cls(
            qname=question.qname,
            qtype=question.qtype,
            qclass=question.qclass,
            opcode=message.header.opcode,
            recursion_desired=message.header.flags.rd,
            checking_disabled=message.header.flags.cd,
        )

    def to_question(self) -> Question:
        """The DNS question section entry for this key."""
        return Question(self.qname, self.qtype, self.qclass)


def _flags_byte(key: DnsQuestionKey) -> int:
    value = int(key.opcode) & _OPCODE_MASK
    if key.recursion_desired:
        value |= _RD_BIT
    if key.checking_disabled:
        value |= _CD_BIT
    return value


def question_to_track(key: DnsQuestionKey) -> FullTrackName:
    """Map a DNS question to its MoQT full track name (Fig. 3)."""
    qname_wire = key.qname.to_wire()
    if len(qname_wire) > QNAME_BYTE_BUDGET:
        raise MappingError(
            f"QNAME wire form exceeds the track-name budget: "
            f"{len(qname_wire)} > {QNAME_BYTE_BUDGET}"
        )
    namespace = TrackNamespace(
        (
            bytes([_flags_byte(key)]),
            int(key.qtype).to_bytes(2, "big"),
            int(key.qclass).to_bytes(2, "big"),
        )
    )
    return FullTrackName(namespace, qname_wire)


def track_to_question(full_track_name: FullTrackName | None) -> DnsQuestionKey:
    """Recover the DNS question from a MoQT full track name (inverse of Fig. 3).

    ``None`` (a FETCH the session could not resolve to a track) is no question
    either; publishers answer every :class:`MappingError` with :func:`no_such_track`.
    """
    if full_track_name is None:
        raise MappingError("request without a resolvable track name")
    elements = full_track_name.namespace.elements
    if len(elements) < 3:
        raise MappingError(f"namespace has {len(elements)} elements, expected at least 3")
    flags_element, qtype_element, qclass_element = elements[0], elements[1], elements[2]
    if len(flags_element) != 1:
        raise MappingError("first namespace element must be a single byte")
    if len(qtype_element) != 2 or len(qclass_element) != 2:
        raise MappingError("QTYPE and QCLASS namespace elements must be two bytes")
    flags = flags_element[0]
    opcode = OPCODES.get(flags & _OPCODE_MASK)
    qtype = RECORD_TYPES.get(int.from_bytes(qtype_element, "big"))
    qclass = DNS_CLASSES.get(int.from_bytes(qclass_element, "big"))
    if opcode is None or qtype is None or qclass is None:
        raise MappingError(
            f"no such opcode, QTYPE or QCLASS: {flags & _OPCODE_MASK}, "
            f"{qtype_element.hex()}, {qclass_element.hex()}"
        )
    try:
        qname, consumed = Name.from_wire(full_track_name.name, 0)
    except DnsFormatError as error:
        raise MappingError(f"track name is not a wire-format QNAME: {error}") from None
    if consumed != len(full_track_name.name):
        raise MappingError("trailing bytes after the QNAME in the track name")
    return DnsQuestionKey(
        qname=qname,
        qtype=qtype,
        qclass=qclass,
        opcode=opcode,
        recursion_desired=bool(flags & _RD_BIT),
        checking_disabled=bool(flags & _CD_BIT),
    )


_NO_SUCH_TRACK = {
    SubscribeResult: SubscribeErrorCode.TRACK_DOES_NOT_EXIST,
    FetchResult: FetchErrorCode.TRACK_DOES_NOT_EXIST,
}


def no_such_track(
    result_type: type[SubscribeResult] | type[FetchResult], reason: object
) -> SubscribeResult | FetchResult:
    """A DNS publisher's answer to a SUBSCRIBE or FETCH whose track names no
    question it can answer: not a Fig. 3 name, outside its zones, unresolvable."""
    return result_type(ok=False, error_code=_NO_SUCH_TRACK[result_type], reason=str(reason))
