"""DNS constants: record types, classes, opcodes and response codes."""

from __future__ import annotations

import enum

from repro.netsim.packet import MOQT_PORT  # noqa: F401 - one of the ports below


def _opaque_member(cls, value: object, prefix: str):
    """An unregistered member of ``cls`` named ``<prefix><value>`` (RFC 3597
    section 5) for a 16-bit code this repository has no mnemonic for, so a
    record of unknown TYPE or CLASS is carried and re-encoded unchanged."""
    if not isinstance(value, int) or not 0 <= value <= 0xFFFF:
        return None
    member = int.__new__(cls, value)
    member._name_ = f"{prefix}{int(value)}"
    member._value_ = int(value)
    return member


def _from_mnemonic(cls, text: str, prefix: str, what: str):
    upper = text.upper()
    member = cls.__members__.get(upper)
    if member is not None:
        return member
    digits = upper.removeprefix(prefix)
    if digits != upper and digits.isascii() and digits.isdigit() and int(digits) <= 0xFFFF:
        return cls(int(digits))
    raise ValueError(f"unknown {what}: {text!r}")


class RecordType(enum.IntEnum):
    """DNS resource-record (and query) types used in this repository.

    Any other 16-bit code is a valid value too: ``RecordType(99)`` is an
    opaque member whose mnemonic is ``TYPE99``.
    """

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    OPT = 41
    SVCB = 64
    HTTPS = 65
    ANY = 255

    @classmethod
    def _missing_(cls, value: object) -> "RecordType | None":
        return _opaque_member(cls, value, "TYPE")

    @classmethod
    def from_text(cls, text: str) -> "RecordType":
        """Parse a record type mnemonic such as ``"AAAA"`` or ``"TYPE99"``."""
        return _from_mnemonic(cls, text, "TYPE", "record type")

    def to_text(self) -> str:
        """The standard mnemonic for this type (``TYPE<n>`` without one)."""
        return self._name_  # ``.name`` is a descriptor call; this is per record rendered


class DNSClass(enum.IntEnum):
    """DNS classes; only IN is used in practice.  Any other 16-bit code is
    carried as an opaque member (``DNSClass(77)`` is ``CLASS77``)."""

    IN = 1
    CH = 3
    HS = 4
    NONE = 254
    ANY = 255

    @classmethod
    def _missing_(cls, value: object) -> "DNSClass | None":
        return _opaque_member(cls, value, "CLASS")

    @classmethod
    def from_text(cls, text: str) -> "DNSClass":
        """Parse a class mnemonic such as ``"IN"`` or ``"CLASS77"``."""
        return _from_mnemonic(cls, text, "CLASS", "DNS class")

    def to_text(self) -> str:
        """The standard mnemonic for this class (``CLASS<n>`` without one)."""
        return self._name_


class Opcode(enum.IntEnum):
    """DNS opcodes (4 bits in the header)."""

    QUERY = 0
    IQUERY = 1
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5


class Rcode(enum.IntEnum):
    """DNS response codes (4 bits in the header)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5
    YXDOMAIN = 6
    YXRRSET = 7
    NXRRSET = 8
    NOTAUTH = 9
    NOTZONE = 10


class _CodeTable(dict):
    """Code -> member of an enum in which every 16-bit code is a value.
    Indexing a code without a mnemonic answers the enum's opaque member;
    ``get`` answers ``None`` for it, for callers that serve known codes only."""

    def __init__(self, members: type[enum.IntEnum]) -> None:
        super().__init__((member.value, member) for member in members)
        self._members = members

    def __missing__(self, code: int) -> enum.IntEnum:
        return self._members(code)


#: For the wire decoders: a dictionary probe costs a fifth of the enum call.
#: An opcode or rcode missing from its table is one this repository rejects.
RECORD_TYPES: dict[int, RecordType] = _CodeTable(RecordType)
DNS_CLASSES: dict[int, DNSClass] = _CodeTable(DNSClass)
OPCODES: dict[int, Opcode] = {member.value: member for member in Opcode}
RCODES: dict[int, Rcode] = {member.value: member for member in Rcode}

# Well-known ports used by the simulated transports (MOQT_PORT, 4443, is
# shared with the MoQT layer and defined beside netsim's Address).
DNS_UDP_PORT = 53
