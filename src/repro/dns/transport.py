"""Classic DNS-over-UDP transport on the simulated network.

The module provides two building blocks:

* :class:`DnsUdpEndpoint` — a bidirectional endpoint bound to a host port.
  It can serve queries (by installing a request handler) and issue queries
  (callback-based, with per-query retransmission timers), which is exactly
  what a recursive resolver needs: it answers stubs downstream while querying
  authoritative servers upstream over the same code path.
* :class:`PendingQuery` — bookkeeping for an in-flight query.

Everything is callback-driven because the simulator is single-threaded and
event-based; there is no asyncio involved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.dns.errors import DnsFormatError
from repro.dns.message import Message, make_response
from repro.dns.types import Rcode
from repro.netsim.node import Host
from repro.netsim.packet import Address, Datagram
from repro.netsim.simulator import Simulator, Timer

QueryCallback = Callable[[Message | None], None]
RequestHandler = Callable[[Message, Address, Callable[[Message], None]], None]

DEFAULT_QUERY_TIMEOUT = 2.0
DEFAULT_RETRIES = 2
PROTOCOL_LABEL = "udp-dns"


@dataclass
class PendingQuery:
    """An outstanding query awaiting a response or timeout."""

    destination: Address
    query: Message
    callback: QueryCallback
    timer: Timer
    retries_left: int
    sent_at: float
    attempts: int = 1


@dataclass
class TransportStatistics:
    """Message/byte counters of a UDP DNS endpoint."""

    responses_received: int = 0
    timeouts: int = 0
    retransmissions: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class DnsUdpEndpoint:
    """A DNS endpoint speaking classic DNS over UDP on the simulator.

    Parameters
    ----------
    host:
        The simulated host this endpoint runs on.
    port:
        The local port to bind; defaults to an ephemeral port (clients) —
        pass ``DNS_UDP_PORT`` for servers.
    handler:
        Optional request handler for incoming queries.  The handler receives
        the query, the client address and a ``respond`` callable.

    An outgoing query is retransmitted ``DEFAULT_RETRIES`` times, each after
    ``DEFAULT_QUERY_TIMEOUT`` seconds without an answer.
    """

    def __init__(
        self,
        host: Host,
        port: int | None = None,
        handler: RequestHandler | None = None,
    ) -> None:
        self._host = host
        self._simulator: Simulator = host.simulator
        self._handler = handler
        self._pending: dict[tuple[int, Address], PendingQuery] = {}
        self._next_message_id = 1
        self.statistics = TransportStatistics()
        if port is None:
            self.address = host.bind_ephemeral(self)
        else:
            self.address = host.bind(port, self)

    # -------------------------------------------------------------- client side
    def allocate_message_id(self) -> int:
        """Allocate a locally unique message id."""
        message_id = self._next_message_id
        self._next_message_id = (self._next_message_id + 1) % 65536 or 1
        return message_id

    def query(
        self,
        message: Message,
        destination: Address,
        callback: QueryCallback,
    ) -> PendingQuery:
        """Send ``message`` to ``destination`` and invoke ``callback`` once.

        The callback receives the response message, or ``None`` if every
        retransmission timed out.
        """
        if message.header.message_id == 0:
            header = replace(message.header, message_id=self.allocate_message_id())
            message = replace(message, header=header)
        key = (message.header.message_id, destination)
        timer = Timer(self._simulator, lambda: self._on_timeout(key))
        pending = PendingQuery(
            destination=destination,
            query=message,
            callback=callback,
            timer=timer,
            retries_left=DEFAULT_RETRIES,
            sent_at=self._simulator.now,
        )
        self._pending[key] = pending
        self._transmit(pending)
        timer.start(DEFAULT_QUERY_TIMEOUT)
        return pending

    def _transmit(self, pending: PendingQuery) -> None:
        payload = pending.query.to_wire()
        self.statistics.bytes_sent += len(payload)
        self._host.send(
            Datagram(
                source=self.address,
                destination=pending.destination,
                payload=payload,
                protocol=PROTOCOL_LABEL,
            )
        )

    def _on_timeout(self, key: tuple[int, Address]) -> None:
        pending = self._pending.get(key)
        if pending is None:
            return
        if pending.retries_left > 0:
            pending.retries_left -= 1
            pending.attempts += 1
            self.statistics.retransmissions += 1
            self._transmit(pending)
            pending.timer.start(DEFAULT_QUERY_TIMEOUT)
            return
        del self._pending[key]
        self.statistics.timeouts += 1
        pending.callback(None)

    def cancel_all(self) -> None:
        """Cancel every outstanding query without invoking callbacks."""
        for pending in self._pending.values():
            pending.timer.stop()
        self._pending.clear()

    # ----------------------------------------------------------------- dispatch
    def datagram_received(self, datagram: Datagram) -> None:
        """Entry point from the host: decode and dispatch a datagram."""
        self.statistics.bytes_received += len(datagram.payload)
        try:
            message = Message.from_wire(datagram.payload)
        except DnsFormatError:
            # Malformed datagrams are dropped; a real server would FORMERR.
            return
        if message.is_response:
            self._handle_response(message, datagram.source)
        else:
            self._handle_query(message, datagram.source)

    def _handle_response(self, message: Message, source: Address) -> None:
        key = (message.header.message_id, source)
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        pending.timer.stop()
        self.statistics.responses_received += 1
        pending.callback(message)

    def _handle_query(self, message: Message, source: Address) -> None:
        if self._handler is None:
            refusal = make_response(message, rcode=Rcode.REFUSED)
            self._send_response(refusal, source)
            return

        def respond(response: Message) -> None:
            self._send_response(response, source)

        self._handler(message, source, respond)

    def _send_response(self, response: Message, destination: Address) -> None:
        payload = response.to_wire()
        self.statistics.bytes_sent += len(payload)
        self._host.send(
            Datagram(
                source=self.address,
                destination=destination,
                payload=payload,
                protocol=PROTOCOL_LABEL,
            )
        )

    def close(self) -> None:
        """Unbind from the host port and cancel outstanding queries."""
        self.cancel_all()
        self._host.unbind(self.address.port)
