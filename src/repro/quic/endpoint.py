"""QUIC endpoints: the glue between connections and the simulated network.

An endpoint binds to a host port, demultiplexes incoming packets to
connections by connection ID, creates client connections on
:meth:`QuicEndpoint.connect` and server connections when an INITIAL packet
with an unknown connection ID arrives.
"""

from __future__ import annotations

from typing import Callable

from repro.netsim.node import Host, HostNotAttachedError
from repro.netsim.packet import Address, Datagram
from repro.netsim.table import SmallTable
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.frames import PacketDecodeError, scan_frames
from repro.quic.packet import PacketType, decode_header
from repro.quic.tls import ServerTlsContext, SessionTicketStore

PROTOCOL_LABEL = "quic"

ConnectionHandler = Callable[[QuicConnection], None]


class QuicEndpoint:
    """A UDP socket speaking QUIC on the simulated network.

    Parameters
    ----------
    host:
        The simulated host.
    port:
        The local port; defaults to an ephemeral port (client endpoints).
    server_config:
        When given, the endpoint accepts incoming connections using this
        configuration.
    server_tls:
        Server-side ALPN/0-RTT policy (required to accept connections).
    on_connection:
        Callback invoked with every newly accepted server connection, before
        any of its application callbacks fire — the MoQT layer uses this to
        attach a session to the connection.
    """

    __slots__ = (
        "_host",
        "_network",
        "_simulator",
        "_server_config",
        "_server_tls",
        "_send_datagram",
        "on_connection",
        "ticket_store",
        "_connections",
        "_next_connection_id",
        "address",
        "datagrams_malformed",
    )

    def __init__(
        self,
        host: Host,
        port: int | None = None,
        server_config: ConnectionConfig | None = None,
        server_tls: ServerTlsContext | None = None,
        on_connection: ConnectionHandler | None = None,
    ) -> None:
        network = host.network
        if network is None:
            raise HostNotAttachedError(f"host {host.address} is not attached")
        self._host = host
        #: Outgoing datagrams go straight to the network (what ``Host.send``
        #: would do after its attachment check, made once above).
        self._network = network
        self._simulator = host.simulator
        self._server_config = server_config
        self._server_tls = server_tls
        #: Bound once: every connection of the endpoint sends through this
        #: one object (a relay serving thousands holds one, not thousands).
        self._send_datagram = self._send_payload
        self.on_connection = on_connection
        self.ticket_store = SessionTicketStore()
        #: A client endpoint holds one connection (two slots); a server's
        #: table turns into a dict at its second.
        self._connections: SmallTable[int, QuicConnection] = SmallTable()
        self._next_connection_id = 1
        #: Datagrams dropped whole because they were not a well-formed packet
        #: (the end-of-run scrape's ``quic_datagrams_malformed`` gauge).
        self.datagrams_malformed = 0
        if port is None:
            self.address = host.bind_ephemeral(self)
        else:
            self.address = host.bind(port, self)

    # ----------------------------------------------------------------- client
    def connect(
        self,
        peer: Address,
        config: ConnectionConfig,
    ) -> QuicConnection:
        """Open a client connection and start its handshake immediately."""
        connection_id = self._allocate_connection_id()
        connection = QuicConnection(
            simulator=self._simulator,
            send_datagram=self._send_datagram,
            local_address=self.address,
            peer_address=peer,
            connection_id=connection_id,
            is_client=True,
            config=config,
            server_name=peer.host,
            ticket_store=self.ticket_store,
        )
        self._connections[connection_id] = connection
        connection.start_handshake()
        return connection

    def _allocate_connection_id(self) -> int:
        # Connection IDs must be unique per *receiving* endpoint, and a busy
        # server (a relay with hundreds of downstream subscribers) sees IDs
        # chosen independently by many client endpoints.  48 random bits keep
        # the collision probability negligible at that scale; 16 bits were
        # measurably not enough (birthday collisions wedged handshakes at
        # ~60 clients).  The counter is masked to 14 bits so the composite
        # never exceeds QUIC's 62-bit varint range — past 16384 connections
        # per endpoint, uniqueness rests on the random component alone.
        connection_id = ((self._next_connection_id & 0x3FFF) << 48) | (
            self._simulator.rng.randrange(1 << 48)
        )
        self._next_connection_id += 1
        return connection_id

    # ----------------------------------------------------------------- server
    @property
    def is_server(self) -> bool:
        """Whether this endpoint accepts incoming connections."""
        return self._server_tls is not None

    @property
    def server_tls(self) -> "ServerTlsContext | None":
        """The server-side TLS context (None for client-only endpoints)."""
        return self._server_tls

    def _accept(
        self, packet_type: int, connection_id: int, source: Address
    ) -> QuicConnection | None:
        if not self.is_server or packet_type not in (
            PacketType.INITIAL,
            PacketType.ZERO_RTT,
        ):
            return None
        config = self._server_config
        if config is None:
            # One default for every connection this endpoint will accept.
            config = self._server_config = ConnectionConfig()
        connection = QuicConnection(
            simulator=self._simulator,
            send_datagram=self._send_datagram,
            local_address=self.address,
            peer_address=source,
            connection_id=connection_id,
            is_client=False,
            config=config,
            server_tls=self._server_tls,
        )
        self._connections[connection_id] = connection
        if self.on_connection is not None:
            self.on_connection(connection)
        return connection

    # ------------------------------------------------------------------ wiring
    def _send_payload(self, payload: bytes, destination: Address) -> None:
        self._network.route(Datagram(self.address, destination, payload, PROTOCOL_LABEL))

    def datagram_received(self, datagram: Datagram) -> None:
        """Entry point from the host: demultiplex to a connection.

        The header is parsed here, once (the connection id picks the
        connection); the connection walks the frames where they lie.  A
        datagram that is not a well-formed packet is dropped whole and
        counted; any other exception is a bug and propagates.
        """
        data = datagram.payload
        try:
            packet_type, connection_id, packet_number, offset, end = decode_header(data)
            connection = self._connections.get(connection_id)
            if connection is None:
                # Validate before accepting: a malformed first packet must
                # not leave a connection behind.
                scan_frames(data, offset, end)
                connection = self._accept(packet_type, connection_id, datagram.source)
                if connection is None:
                    return
            connection.receive_packet(packet_type, packet_number, data, offset, end, len(data))
        except PacketDecodeError:
            self.datagrams_malformed += 1

    # --------------------------------------------------------------- lifecycle
    def connections(self) -> list[QuicConnection]:
        """All connections this endpoint has seen (including closed ones)."""
        return list(self._connections.values())

    def open_connections(self) -> list[QuicConnection]:
        """Connections that have not been closed."""
        return [connection for connection in self._connections.values() if not connection.closed]

    def close(self) -> None:
        """Close every connection and release the port."""
        for connection in list(self._connections.values()):
            if not connection.closed:
                connection.close()
        self._host.unbind(self.address.port)

    def abandon(self) -> None:
        """Crash the endpoint: release the port, abandon every connection.

        Unlike :meth:`close`, nothing is sent and no callbacks fire — the
        process simply vanishes, incoming datagrams hit an unbound port, and
        peers must detect the failure through their own liveness machinery.
        """
        for connection in self._connections.values():
            connection.abandon()
        self._host.unbind(self.address.port)
