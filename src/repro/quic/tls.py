"""A simulated TLS 1.3 handshake with session tickets.

Real cryptography is irrelevant to the paper's arguments, but the *timing
structure* of the TLS handshake is central to them: a full handshake costs
one round trip before application data can be sent, while a resumed handshake
with a previously obtained session ticket allows 0-RTT application data in
the very first flight.

The classes here model exactly that: the client builds a ``ClientHello``
(optionally with an ``early_data`` indication when it holds a ticket), the
server answers with a ``ServerHello`` that includes a fresh session ticket,
and both sides derive a "handshake confirmed" state.  ALPN negotiation is
included because the paper points out that future MoQT versions will move
version negotiation into ALPN (§5.2, third optimisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.table import SmallTable

#: ALPN identifier for MoQT — what every simulated connection offers unless
#: configured otherwise.  Defined here, once, because the transport's default
#: needs it and the layers above import downwards.
MOQT_ALPN = "moq-00"


class AlpnMismatchError(Exception):
    """Raised when client and server share no application protocol."""


class HelloDecodeError(ValueError):
    """Raised when CRYPTO bytes do not hold the expected hello message."""


@dataclass(frozen=True, slots=True)
class SessionTicket:
    """A resumption ticket issued by a server.

    Attributes
    ----------
    server_name:
        The peer the ticket is valid for.
    alpn:
        The application protocol negotiated when the ticket was issued;
        0-RTT data may only be sent for the same protocol.
    issued_at:
        Virtual time of issuance.
    lifetime:
        Validity period in seconds (tickets expire like real NewSessionTicket
        lifetimes do).
    ticket_id:
        Opaque identifier, unique per issuing server.
    """

    server_name: str
    alpn: str
    issued_at: float
    lifetime: float = 7 * 24 * 3600.0
    ticket_id: int = 0

    def is_valid(self, now: float) -> bool:
        """Whether the ticket can still be used at virtual time ``now``."""
        return now < self.issued_at + self.lifetime


class SessionTicketStore:
    """Client-side store of session tickets, keyed by server name."""

    __slots__ = ("_tickets",)

    def __init__(self) -> None:
        #: A client usually talks to one server: the table keeps its ticket
        #: in two slots.
        self._tickets: SmallTable[str, SessionTicket] = SmallTable()

    def put(self, ticket: SessionTicket) -> None:
        """Store (or replace) the ticket for the ticket's server."""
        self._tickets[ticket.server_name] = ticket

    def get(self, server_name: str, now: float) -> SessionTicket | None:
        """A valid ticket for ``server_name``, or ``None``."""
        ticket = self._tickets.get(server_name)
        if ticket is None:
            return None
        if not ticket.is_valid(now):
            self._tickets.pop(server_name)
            return None
        return ticket

    def remove(self, server_name: str) -> None:
        """Forget the ticket for a server (e.g. after a rejected 0-RTT)."""
        self._tickets.pop(server_name, None)

    def __len__(self) -> int:
        return len(self._tickets)


@dataclass
class ClientHello:
    """The client's first handshake message."""

    server_name: str
    alpn_protocols: tuple[str, ...]
    session_ticket: SessionTicket | None = None
    offers_early_data: bool = False

    def to_bytes(self) -> bytes:
        """A compact serialisation used inside CRYPTO frames."""
        ticket = self.session_ticket.ticket_id if self.session_ticket else 0
        alpn = ",".join(self.alpn_protocols)
        early = 1 if self.offers_early_data else 0
        return f"CH|{self.server_name}|{alpn}|{ticket}|{early}".encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "ClientHello":
        """Parse the compact serialisation."""
        try:
            kind, server_name, alpn, ticket, early = data.decode("utf-8").split("|")
            ticket_id = int(ticket)
        except ValueError:  # field count, non-integer ticket, invalid UTF-8
            raise HelloDecodeError("malformed ClientHello") from None
        if kind != "CH":
            raise HelloDecodeError("not a ClientHello")
        session_ticket = None
        if ticket_id:
            # The receiving server only needs to know a ticket was presented.
            session_ticket = SessionTicket(
                server_name=server_name, alpn="", issued_at=0.0, ticket_id=ticket_id
            )
        return cls(
            server_name=server_name,
            alpn_protocols=tuple(alpn.split(",")) if alpn else (),
            session_ticket=session_ticket,
            offers_early_data=early == "1",
        )


@dataclass
class ServerHello:
    """The server's handshake response."""

    alpn: str
    accepts_early_data: bool
    new_ticket_id: int

    def to_bytes(self) -> bytes:
        """A compact serialisation used inside CRYPTO frames."""
        early = 1 if self.accepts_early_data else 0
        return f"SH|{self.alpn}|{early}|{self.new_ticket_id}".encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "ServerHello":
        """Parse the compact serialisation."""
        try:
            kind, alpn, early, ticket = data.decode("utf-8").split("|")
            ticket_id = int(ticket)
        except ValueError:  # field count, non-integer ticket, invalid UTF-8
            raise HelloDecodeError("malformed ServerHello") from None
        if kind != "SH":
            raise HelloDecodeError("not a ServerHello")
        return cls(alpn=alpn, accepts_early_data=early == "1", new_ticket_id=ticket_id)


@dataclass
class ServerTlsContext:
    """Server-side handshake policy: supported ALPNs and 0-RTT acceptance."""

    alpn_protocols: tuple[str, ...]
    accept_early_data: bool = True
    _next_ticket_id: int = field(default=1, repr=False)

    def process_client_hello(self, hello: ClientHello) -> ServerHello:
        """Negotiate ALPN and decide whether to accept early data."""
        supported = self.alpn_protocols
        for candidate in hello.alpn_protocols:
            if candidate in supported:
                # The configured string, not the hello's decoded copy: the
                # connection keeps it for life.
                selected = supported[supported.index(candidate)]
                break
        else:
            raise AlpnMismatchError(
                f"no common ALPN: client={hello.alpn_protocols} server={supported}"
            )
        accepts = bool(
            self.accept_early_data and hello.offers_early_data and hello.session_ticket
        )
        ticket_id = self._next_ticket_id
        self._next_ticket_id += 1
        return ServerHello(alpn=selected, accepts_early_data=accepts, new_ticket_id=ticket_id)
