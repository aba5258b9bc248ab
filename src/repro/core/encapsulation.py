"""Encapsulating DNS responses in MoQT objects (Fig. 4).

A DNS response message is carried verbatim as the payload of a MoQT object.
The object metadata encodes the versioning scheme of §4.2:

* the *group ID* is the zone version number (a strictly monotonically
  increasing integer maintained by the authoritative server, bumped on every
  zone change);
* the *object ID* is always zero — DNS over MoQT has no notion of multiple
  objects per group;
* the *subgroup ID* is always zero.

Because the DNS message ID is connection-specific, it is always set to zero
inside encapsulated responses so that two subscribers of the same track see
byte-identical objects, as MoQT requires.
"""

from __future__ import annotations

from repro.core.errors import MappingError
from repro.dns.errors import DnsFormatError
from repro.dns.message import Header, Message
from repro.moqt.objectmodel import MoqtObject

#: Object ID used for every DNS object (§4.3: groups contain one object).
DNS_OBJECT_ID = 0


def normalize_response(message: Message) -> Message:
    """Zero out connection-specific header fields of a response.

    The message ID has no meaning in a pub/sub track shared by many
    subscribers; normalising it guarantees identical payloads for identical
    record versions.  The sections are immutable, so the new message shares
    them.
    """
    header = Header(
        message_id=0,
        flags=message.header.flags,
        opcode=message.header.opcode,
        rcode=message.header.rcode,
    )
    return Message(
        header=header,
        questions=message.questions,
        answers=message.answers,
        authorities=message.authorities,
        additionals=message.additionals,
    )


def encapsulate_response(message: Message, zone_version: int) -> MoqtObject:
    """Wrap a DNS response in a MoQT object for the given zone version."""
    if zone_version < 0:
        raise MappingError(f"zone version must be non-negative: {zone_version}")
    normalized = normalize_response(message)
    return MoqtObject(
        group_id=zone_version,
        object_id=DNS_OBJECT_ID,
        payload=normalized.to_wire(),
    )


def decapsulate_response(obj: MoqtObject) -> Message:
    """Extract the DNS response message from a MoQT object."""
    try:
        return Message.from_wire(obj.payload)
    except DnsFormatError as error:
        raise MappingError(f"object payload is not a DNS message: {error}") from None
