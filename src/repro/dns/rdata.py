"""Typed RDATA for the record types used in this repository.

Each RDATA class implements a byte-exact wire codec (``to_wire`` /
``from_wire``), presentation-format parsing and rendering (``from_text`` /
``to_text``) and value equality.  The generic :class:`GenericRdata` carries
unknown types opaquely so messages with unrecognised records still round-trip.

``from_wire`` takes the enclosing message's name table (``docs/dns-codec.md``)
so that names inside RDATA are decoded, and filed for later compression
pointers, in the same pass as the owner names.  Every decoder holds its RDATA
to RDLENGTH and raises :class:`RdataError` (or ``NameError_``) otherwise.
"""

from __future__ import annotations

import ipaddress
import re
import struct
from dataclasses import dataclass, field
from typing import ClassVar

from repro.dns.errors import RdataError
from repro.dns.name import Name, NameTable
from repro.dns.types import RecordType


def _framed_end(wire: bytes, offset: int, length: int) -> int:
    """The offset just past RDATA of ``length`` bytes, which must lie inside ``wire``."""
    end = offset + length
    if end > len(wire):
        raise RdataError(f"truncated RDATA: {length} bytes at {offset} of {len(wire)}")
    return end


def _check_framing(cls: type[Rdata], decoded_end: int, rdata_end: int) -> None:
    """RDATA that holds a name must end where RDLENGTH says.  With
    ``_framed_end`` before it, this also puts the fixed fields in front of
    the name inside the wire: a decoded name cannot end past it."""
    if decoded_end != rdata_end:
        raise RdataError(
            f"{cls.rdtype.to_text()} rdata ends at {decoded_end}, RDLENGTH says {rdata_end}"
        )


@dataclass(frozen=True, slots=True)
class Rdata:
    """Base class for all RDATA types."""

    rdtype: ClassVar[RecordType]

    def to_wire(self) -> bytes:
        """Encode the RDATA (without the length prefix)."""
        raise NotImplementedError

    def to_text(self) -> str:
        """Presentation format of the RDATA."""
        raise NotImplementedError

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "Rdata":
        """Decode RDATA occupying ``wire[offset:offset + length]``; ``table``
        is the name table of the message ``wire`` holds, if it is one."""
        raise NotImplementedError

    @classmethod
    def from_text(cls, text: str) -> "Rdata":
        """Parse RDATA from presentation format."""
        raise NotImplementedError


#: One octet of a dotted quad: ASCII decimal, no leading zero, at most 255.
_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD = re.compile(r"\.".join([_OCTET] * 4))


def _is_dotted_quad(text: object) -> bool:
    """Whether ``text`` is what ``ipaddress.IPv4Address`` accepts as text:
    four ASCII-decimal octets of at most three digits, no leading zero, each
    at most 255."""
    return type(text) is str and _DOTTED_QUAD.fullmatch(text) is not None


@dataclass(frozen=True, slots=True)
class ARdata(Rdata):
    """IPv4 address record (type A)."""

    address: str
    rdtype: ClassVar[RecordType] = RecordType.A

    def __post_init__(self) -> None:
        if not _is_dotted_quad(self.address):
            ipaddress.IPv4Address(self.address)  # raises its precise error

    def to_wire(self) -> bytes:
        # ``address`` is a strict dotted quad: validated on construction or
        # formatted from wire bytes, so there is nothing left to check.
        return bytes(map(int, self.address.split(".")))

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "ARdata":
        if length != 4:
            raise RdataError(f"A rdata must be 4 bytes, got {length}")
        packed = wire[offset: offset + 4]
        if len(packed) != 4:
            raise RdataError("truncated A rdata")
        # Text formatted from wire bytes is valid by construction: filled in
        # directly, without the constructor's re-parse.
        rdata = object.__new__(cls)
        object.__setattr__(rdata, "address", "%d.%d.%d.%d" % tuple(packed))
        return rdata

    @classmethod
    def from_text(cls, text: str) -> "ARdata":
        return cls(text.strip())


@dataclass(frozen=True, slots=True)
class AAAARdata(Rdata):
    """IPv6 address record (type AAAA)."""

    address: str
    # What ``to_wire`` and ``to_text`` return, derived from ``address`` and
    # left out of equality, hashing and repr: those stay on ``address`` as given.
    _packed: bytes = field(init=False, compare=False, repr=False)
    _text: str = field(init=False, compare=False, repr=False)
    rdtype: ClassVar[RecordType] = RecordType.AAAA

    def __post_init__(self) -> None:
        parsed = ipaddress.IPv6Address(self.address)
        object.__setattr__(self, "_packed", parsed.packed)
        object.__setattr__(self, "_text", str(parsed))

    def to_wire(self) -> bytes:
        return self._packed

    def to_text(self) -> str:
        return self._text

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "AAAARdata":
        if length != 16:
            raise RdataError(f"AAAA rdata must be 16 bytes, got {length}")
        packed = bytes(wire[offset: offset + 16])
        if len(packed) != 16:
            raise RdataError("truncated AAAA rdata")
        text = str(ipaddress.IPv6Address(packed))
        rdata = object.__new__(cls)  # as in ARdata.from_wire
        fill = object.__setattr__
        fill(rdata, "address", text)
        fill(rdata, "_packed", packed)
        fill(rdata, "_text", text)
        return rdata

    @classmethod
    def from_text(cls, text: str) -> "AAAARdata":
        return cls(text.strip())


@dataclass(frozen=True, slots=True)
class NameRdata(Rdata):
    """Base for RDATA holding a single domain name (CNAME, NS, PTR)."""

    target: Name

    def to_wire(self) -> bytes:
        return self.target.to_wire()

    def to_text(self) -> str:
        return self.target.to_text()

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "NameRdata":
        end = _framed_end(wire, offset, length)
        target, cursor = Name.from_wire(wire, offset, table)
        _check_framing(cls, cursor, end)
        return cls(target)

    @classmethod
    def from_text(cls, text: str) -> "NameRdata":
        return cls(Name.from_text(text))


@dataclass(frozen=True, slots=True)
class CNAMERdata(NameRdata):
    """Canonical-name alias record."""

    rdtype: ClassVar[RecordType] = RecordType.CNAME


@dataclass(frozen=True, slots=True)
class NSRdata(NameRdata):
    """Delegation (nameserver) record."""

    rdtype: ClassVar[RecordType] = RecordType.NS


@dataclass(frozen=True, slots=True)
class PTRRdata(NameRdata):
    """Pointer record."""

    rdtype: ClassVar[RecordType] = RecordType.PTR


@dataclass(frozen=True, slots=True)
class SOARdata(Rdata):
    """Start-of-authority record; ``serial`` is the zone version number."""

    mname: Name
    rname: Name
    serial: int
    refresh: int = 3600
    retry: int = 600
    expire: int = 86400
    minimum: int = 300
    rdtype: ClassVar[RecordType] = RecordType.SOA

    def to_wire(self) -> bytes:
        return (
            self.mname.to_wire()
            + self.rname.to_wire()
            + struct.pack(
                "!IIIII", self.serial, self.refresh, self.retry, self.expire, self.minimum
            )
        )

    def to_text(self) -> str:
        return (
            f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "SOARdata":
        end = _framed_end(wire, offset, length)
        mname, cursor = Name.from_wire(wire, offset, table)
        rname, cursor = Name.from_wire(wire, cursor, table)
        _check_framing(cls, cursor + 20, end)
        return cls(mname, rname, *struct.unpack_from("!IIIII", wire, cursor))

    @classmethod
    def from_text(cls, text: str) -> "SOARdata":
        parts = text.split()
        if len(parts) != 7:
            raise RdataError(f"SOA rdata needs 7 fields, got {len(parts)}")
        return cls(
            Name.from_text(parts[0]),
            Name.from_text(parts[1]),
            int(parts[2]),
            int(parts[3]),
            int(parts[4]),
            int(parts[5]),
            int(parts[6]),
        )


@dataclass(frozen=True, slots=True)
class MXRdata(Rdata):
    """Mail-exchanger record."""

    preference: int
    exchange: Name
    rdtype: ClassVar[RecordType] = RecordType.MX

    def to_wire(self) -> bytes:
        return struct.pack("!H", self.preference) + self.exchange.to_wire()

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text()}"

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "MXRdata":
        end = _framed_end(wire, offset, length)
        exchange, cursor = Name.from_wire(wire, offset + 2, table)
        _check_framing(cls, cursor, end)
        return cls(*struct.unpack_from("!H", wire, offset), exchange)

    @classmethod
    def from_text(cls, text: str) -> "MXRdata":
        preference, exchange = text.split()
        return cls(int(preference), Name.from_text(exchange))


#: RFC 1035 §5.1 presentation of a byte inside a character-string, keyed by
#: the byte's Latin-1 code point (for ``str.translate``): printable ASCII as
#: itself, ``"`` and ``\\`` backslash-escaped, any other byte as ``\\DDD``.
_TEXT_ESCAPES = {
    **{byte: f"\\{byte:03d}" for byte in (*range(0x20), *range(0x7F, 0x100))},
    ord('"'): '\\"',
    ord("\\"): "\\\\",
}
#: An ALPN id in an unquoted SVCB value list: a space as ``\\032`` and a
#: comma inside the id as ``\\,`` (RFC 9460 Appendix A.1).
_ALPN_ESCAPES = {**_TEXT_ESCAPES, ord(" "): "\\032", ord(","): "\\,"}
#: One id of an SVCB ALPN value list, escapes included.
_ALPN_ID = re.compile(r"(?:[^,\\]|\\.)+", re.DOTALL)
_ALPN_LIST = re.compile(rf"{_ALPN_ID.pattern}(?:,{_ALPN_ID.pattern})*", re.DOTALL)
_ESCAPE = re.compile(r"\\(?:([0-9]{3})|(.))", re.DOTALL)
#: A TXT rdata's character-strings: quoted (escapes inside) or bare words.
_TXT_STRING = re.compile(r'\s*(?:"((?:[^"\\]|\\.)*)"|((?:[^\s"\\]|\\.)+))', re.DOTALL)


def _alpn_ids(value: bytes) -> list[bytes]:
    """The ids of an encoded ALPN SvcParamValue, each length-prefixed."""
    ids = []
    cursor = 0
    while cursor < len(value):
        size = value[cursor]
        cursor += 1
        ids.append(value[cursor : cursor + size])
        cursor += size
    return ids


def _unescaped(text: str) -> bytes:
    """The bytes presentation-format ``text`` spells: ``\\DDD`` is one byte,
    ``\\X`` is ``X``, anything else is its UTF-8 encoding."""
    output = bytearray()
    cursor = 0
    for escape in _ESCAPE.finditer(text):
        output += text[cursor : escape.start()].encode("utf-8")
        decimal, character = escape.groups()
        if decimal is None:
            output += character.encode("utf-8")
        elif int(decimal) > 255:
            raise RdataError(f"escape \\{decimal} is not a byte")
        else:
            output.append(int(decimal))
        cursor = escape.end()
    output += text[cursor:].encode("utf-8")
    return bytes(output)


@dataclass(frozen=True, slots=True)
class TXTRdata(Rdata):
    """Text record: one or more character strings."""

    strings: tuple[bytes, ...]
    rdtype: ClassVar[RecordType] = RecordType.TXT

    def __post_init__(self) -> None:
        for item in self.strings:
            if len(item) > 255:
                raise RdataError("TXT character-string longer than 255 bytes")

    def to_wire(self) -> bytes:
        output = bytearray()
        for item in self.strings:
            output.append(len(item))
            output += item
        return bytes(output)

    def to_text(self) -> str:
        return " ".join(f'"{item.decode("latin-1").translate(_TEXT_ESCAPES)}"' for item in self.strings)

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "TXTRdata":
        end = _framed_end(wire, offset, length)
        strings: list[bytes] = []
        cursor = offset
        while cursor < end:
            size = wire[cursor]
            cursor += 1
            if cursor + size > end:
                raise RdataError("truncated TXT character-string")
            strings.append(bytes(wire[cursor: cursor + size]))
            cursor += size
        return cls(tuple(strings))

    @classmethod
    def from_text(cls, text: str) -> "TXTRdata":
        strings: list[bytes] = []
        cursor, end = 0, len(text.rstrip())
        while cursor < end:
            match = _TXT_STRING.match(text, cursor)
            if match is None:
                raise RdataError(f"malformed TXT character-string at {cursor}: {text!r}")
            quoted, bare = match.groups()
            strings.append(_unescaped(bare if quoted is None else quoted))
            cursor = match.end()
        return cls(tuple(strings))


@dataclass(frozen=True, slots=True)
class SRVRdata(Rdata):
    """Service-location record (RFC 2782)."""

    priority: int
    weight: int
    port: int
    target: Name
    rdtype: ClassVar[RecordType] = RecordType.SRV

    def to_wire(self) -> bytes:
        return struct.pack("!HHH", self.priority, self.weight, self.port) + self.target.to_wire()

    def to_text(self) -> str:
        return f"{self.priority} {self.weight} {self.port} {self.target.to_text()}"

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "SRVRdata":
        end = _framed_end(wire, offset, length)
        target, cursor = Name.from_wire(wire, offset + 6, table)
        _check_framing(cls, cursor, end)
        return cls(*struct.unpack_from("!HHH", wire, offset), target)

    @classmethod
    def from_text(cls, text: str) -> "SRVRdata":
        priority, weight, port, target = text.split()
        return cls(int(priority), int(weight), int(port), Name.from_text(target))


# SVCB/HTTPS service parameter keys (RFC 9460, section 7).
SVC_PARAM_ALPN = 1
SVC_PARAM_PORT = 3
SVC_PARAM_IPV4HINT = 4
SVC_PARAM_IPV6HINT = 6

_SVC_PARAM_NAMES = {
    SVC_PARAM_ALPN: "alpn",
    SVC_PARAM_PORT: "port",
    SVC_PARAM_IPV4HINT: "ipv4hint",
    SVC_PARAM_IPV6HINT: "ipv6hint",
}
_SVC_PARAM_KEYS = {name: key for key, name in _SVC_PARAM_NAMES.items()}


@dataclass(frozen=True, slots=True)
class SVCBRdata(Rdata):
    """SVCB record (RFC 9460): priority, target and service parameters.

    ``params`` maps numeric SvcParamKeys to already-encoded SvcParamValues;
    helpers are provided for the ALPN parameter since the paper highlights
    HTTPS records signalling ALPN support.
    """

    priority: int
    target: Name
    params: tuple[tuple[int, bytes], ...]
    rdtype: ClassVar[RecordType] = RecordType.SVCB

    @classmethod
    def with_alpn(cls, priority: int, target: Name, alpns: list[str], **extra: bytes) -> "SVCBRdata":
        """Build a record advertising the given ALPN protocol identifiers."""
        encoded = bytearray()
        for alpn in alpns:
            raw = alpn.encode("ascii")
            encoded.append(len(raw))
            encoded += raw
        params: list[tuple[int, bytes]] = [(SVC_PARAM_ALPN, bytes(encoded))]
        for name, value in extra.items():
            params.append((_SVC_PARAM_KEYS[name], value))
        return cls(priority, target, tuple(sorted(params)))

    def alpns(self) -> list[str]:
        """Decode the ALPN parameter, if present."""
        for key, value in self.params:
            if key == SVC_PARAM_ALPN:
                return [alpn.decode("ascii") for alpn in _alpn_ids(value)]
        return []

    def to_wire(self) -> bytes:
        output = bytearray(struct.pack("!H", self.priority))
        output += self.target.to_wire()
        for key, value in sorted(self.params):
            output += struct.pack("!HH", key, len(value))
            output += value
        return bytes(output)

    def to_text(self) -> str:
        parts = [str(self.priority), self.target.to_text()]
        for key, value in sorted(self.params):
            name = _SVC_PARAM_NAMES.get(key, f"key{key}")
            if key == SVC_PARAM_ALPN:
                ids = [alpn.decode("latin-1").translate(_ALPN_ESCAPES) for alpn in _alpn_ids(value)]
                parts.append(f"{name}={','.join(ids)}")
            else:
                parts.append(f"{name}={value.hex()}")
        return " ".join(parts)

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "SVCBRdata":
        end = _framed_end(wire, offset, length)
        target, cursor = Name.from_wire(wire, offset + 2, table)
        params: list[tuple[int, bytes]] = []
        while cursor < end:
            if cursor + 4 > end:
                raise RdataError("truncated SvcParam")
            key, size = struct.unpack_from("!HH", wire, cursor)
            cursor += 4
            if cursor + size > end:
                raise RdataError("truncated SvcParam")
            params.append((key, bytes(wire[cursor: cursor + size])))
            cursor += size
        _check_framing(cls, cursor, end)
        return cls(*struct.unpack_from("!H", wire, offset), target, tuple(params))

    @classmethod
    def from_text(cls, text: str) -> "SVCBRdata":
        parts = text.split()
        if len(parts) < 2:
            raise RdataError("SVCB rdata needs priority and target")
        priority = int(parts[0])
        target = Name.from_text(parts[1])
        params: list[tuple[int, bytes]] = []
        for token in parts[2:]:
            name, _, value = token.partition("=")
            if name == "alpn":
                if not _ALPN_LIST.fullmatch(value):
                    raise RdataError(f"malformed ALPN list: {value!r}")
                encoded = bytearray()
                for alpn in _ALPN_ID.findall(value):
                    raw = _unescaped(alpn)
                    encoded.append(len(raw))
                    encoded += raw
                params.append((SVC_PARAM_ALPN, bytes(encoded)))
            elif name in _SVC_PARAM_KEYS:
                params.append((_SVC_PARAM_KEYS[name], bytes.fromhex(value)))
            else:
                raise RdataError(f"unknown SvcParam: {name}")
        return cls(priority, target, tuple(sorted(params)))


@dataclass(frozen=True, slots=True)
class HTTPSRdata(SVCBRdata):
    """HTTPS record (RFC 9460); identical to SVCB apart from the type code."""

    rdtype: ClassVar[RecordType] = RecordType.HTTPS


@dataclass(frozen=True, slots=True)
class GenericRdata(Rdata):
    """Opaque RDATA for record types without a dedicated class."""

    type_code: int
    data: bytes
    rdtype: ClassVar[RecordType] = RecordType.ANY

    def to_wire(self) -> bytes:
        return self.data

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, length: int, table: NameTable | None = None
    ) -> "GenericRdata":
        return cls(0, bytes(wire[offset: _framed_end(wire, offset, length)]))

    @classmethod
    def from_text(cls, text: str) -> "GenericRdata":
        """Parse the RFC 3597 form ``\\# <length> <hex>``."""
        parts = text.split()
        if len(parts) >= 2 and parts[0] == "\\#":
            try:
                data = bytes.fromhex("".join(parts[2:]))
                if len(data) == int(parts[1]):
                    return cls(0, data)
            except ValueError:
                pass
        raise RdataError(f"cannot parse generic rdata: {text!r}")


_RDATA_CLASSES: dict[RecordType, type[Rdata]] = {
    RecordType.A: ARdata,
    RecordType.AAAA: AAAARdata,
    RecordType.CNAME: CNAMERdata,
    RecordType.NS: NSRdata,
    RecordType.PTR: PTRRdata,
    RecordType.SOA: SOARdata,
    RecordType.MX: MXRdata,
    RecordType.TXT: TXTRdata,
    RecordType.SRV: SRVRdata,
    RecordType.SVCB: SVCBRdata,
    RecordType.HTTPS: HTTPSRdata,
}


def decode_rdata(
    rdtype: RecordType, wire: bytes, offset: int, length: int, table: NameTable | None
) -> Rdata:
    """Decode RDATA of the given type; unknown types become GenericRdata."""
    klass = _RDATA_CLASSES.get(rdtype)
    if klass is None:
        return GenericRdata(int(rdtype), bytes(wire[offset: _framed_end(wire, offset, length)]))
    return klass.from_wire(wire, offset, length, table)


def parse_rdata(rdtype: RecordType, text: str) -> Rdata:
    """Parse presentation-format RDATA of the given type."""
    klass = _RDATA_CLASSES.get(rdtype)
    if klass is None:
        return GenericRdata(int(rdtype), GenericRdata.from_text(text).data)
    return klass.from_text(text)
