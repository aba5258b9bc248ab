"""Hosts and port handlers.

A :class:`Host` is an endpoint in the simulated network.  Protocol endpoints
(a classic DNS server, a QUIC endpoint, ...) bind to numbered ports on a host
by registering a :class:`PortHandler`; incoming datagrams addressed to that
port are dispatched to the handler's :meth:`PortHandler.datagram_received`.
"""

from __future__ import annotations

from typing import Protocol

from repro.netsim.packet import Address, Datagram
from repro.netsim.simulator import Simulator


class NetworkInterface(Protocol):
    """Interface the host uses to hand datagrams to the network."""

    def route(self, datagram: Datagram) -> None:
        """Deliver ``datagram`` towards its destination."""


class PortHandler(Protocol):
    """Anything that can be bound to a host port."""

    def datagram_received(self, datagram: Datagram) -> None:
        """Handle a datagram addressed to the bound port."""


class PortInUseError(Exception):
    """Raised when binding to a port that already has a handler."""


class HostNotAttachedError(Exception):
    """Raised when a host sends before being attached to a network."""


class Host:
    """An endpoint in the simulated network.

    Parameters
    ----------
    simulator:
        The owning simulator.
    address:
        A unique host address string (e.g. ``"resolver.example"`` or an IP
        literal); purely symbolic.
    """

    __slots__ = ("simulator", "address", "_ports", "network", "_next_ephemeral")

    def __init__(self, simulator: Simulator, address: str) -> None:
        self.simulator = simulator
        self.address = address
        self._ports: dict[int, PortHandler] = {}
        #: The network this host is attached to (None before attachment);
        #: set by :meth:`attach`, read-only for everyone else.
        self.network: NetworkInterface | None = None
        self._next_ephemeral = 49152

    def attach(self, network: NetworkInterface) -> None:
        """Attach this host to a network (called by :class:`Network`)."""
        self.network = network

    def bind(self, port: int, handler: PortHandler) -> Address:
        """Bind ``handler`` to ``port`` and return the resulting address."""
        if port in self._ports:
            raise PortInUseError(f"port {port} already bound on {self.address}")
        self._ports[port] = handler
        return Address(self.address, port)

    def bind_ephemeral(self, handler: PortHandler) -> Address:
        """Bind ``handler`` to the next free ephemeral port."""
        while self._next_ephemeral in self._ports:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return self.bind(port, handler)

    def unbind(self, port: int) -> None:
        """Release a port binding; unknown ports are ignored."""
        self._ports.pop(port, None)

    def bound_ports(self) -> list[int]:
        """Ports that currently have a handler."""
        return sorted(self._ports)

    def send(self, datagram: Datagram) -> None:
        """Send a datagram into the network."""
        if self.network is None:
            raise HostNotAttachedError(f"host {self.address} is not attached")
        self.network.route(datagram)

    def deliver(self, datagram: Datagram) -> None:
        """Deliver an incoming datagram to the bound handler, if any.

        Datagrams for unbound ports are silently dropped, mirroring a closed
        UDP port with ICMP suppressed; counting such drops is left to traces.
        """
        handler = self._ports.get(datagram.destination.port)
        if handler is not None:
            handler.datagram_received(datagram)
