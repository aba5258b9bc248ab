"""Datagrams and addresses exchanged through the simulated network.

The simulator models an idealised IP/UDP layer: endpoints are identified by a
host address (a string such as ``"10.0.0.1"`` or a symbolic name) and a
numeric port, and payloads are opaque byte strings.  Higher layers (classic
DNS, QUIC) build their own framing inside the payload.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Well-known port of the simulated MoQT servers.  It sits beside
#: :class:`Address` because the DNS and the MoQT packages both name it and
#: neither imports the other.
MOQT_PORT = 4443


@dataclass(frozen=True, order=True)
class Address:
    """A (host, port) endpoint address in the simulated network."""

    host: str
    port: int

    def __str__(self) -> str:
        # Rendered twice per datagram by a recording trace; cache on first use.
        try:
            return self._str  # type: ignore[attr-defined]
        except AttributeError:
            text = f"{self.host}:{self.port}"
            object.__setattr__(self, "_str", text)
            return text


@dataclass(slots=True)
class Datagram:
    """A single datagram in flight between two addresses.

    Attributes
    ----------
    source / destination:
        Endpoint addresses.
    payload:
        Opaque application bytes.  Senders materialise each packet once as
        immutable ``bytes``, so a consumer may keep the payload (or slices of
        it) for as long as it likes.
    protocol:
        A label used only for tracing and statistics (e.g. ``"udp-dns"``,
        ``"quic"``).
    """

    source: Address
    destination: Address
    payload: bytes
    protocol: str = "udp"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Datagram({self.source}->{self.destination}, "
            f"{len(self.payload)}B, proto={self.protocol})"
        )
