"""Errors the DNS codec raises for malformed input.

Decoding bytes from outside the process — a datagram payload, a MoQT object
payload, a track name — raises a :class:`DnsFormatError` and nothing else, so
a caller that must keep running catches exactly that (``docs/dns-codec.md``).
"""

from __future__ import annotations


class DnsFormatError(ValueError):
    """Base of every error raised for malformed wire bytes or presentation text."""


class NameError_(DnsFormatError):
    """Raised for malformed names or wire data.

    Named with a trailing underscore to avoid shadowing the builtin
    ``NameError``.
    """


class RdataError(DnsFormatError):
    """Raised for malformed RDATA."""


class MessageError(DnsFormatError):
    """Raised for malformed DNS messages and records."""
