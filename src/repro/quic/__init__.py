"""Simulated QUIC transport.

This package implements the subset of QUIC (RFC 9000) that the paper's
latency and pub/sub arguments depend on, running over the discrete-event
simulator:

* variable-length integer encoding (:mod:`repro.quic.varint`), shared with the
  MoQT codec;
* frames and packets with a byte-exact wire format
  (:mod:`repro.quic.frames`, :mod:`repro.quic.packet`);
* a TLS-like handshake with session tickets enabling 0-RTT resumption
  (:mod:`repro.quic.tls`);
* ordered, reliable bidirectional and unidirectional streams
  (:mod:`repro.quic.stream`); the optional DATAGRAM extension (RFC 9221) is
  not modelled, since the paper's prototype sends objects on streams only;
* the connection state machine with handshake round trips, loss recovery,
  ACKs and idle timeouts (:mod:`repro.quic.connection`);
* endpoints that bind to simulated hosts and multiplex connections
  (:mod:`repro.quic.endpoint`).

The timing model reproduces what matters for the paper: a fresh connection
costs one round trip before application data can flow, a 0-RTT resumption
lets the first flight carry application data, and an established connection
adds no extra round trips.
"""

from repro.quic.varint import encode_varint, decode_varint, varint_size
from repro.quic.connection import ConnectionConfig, QuicConnection, QuicConnectionError
from repro.quic.endpoint import QuicEndpoint
from repro.quic.stream import QuicStream
from repro.quic.tls import SessionTicket, SessionTicketStore

__all__ = [
    "encode_varint",
    "decode_varint",
    "varint_size",
    "ConnectionConfig",
    "QuicConnection",
    "QuicConnectionError",
    "QuicEndpoint",
    "QuicStream",
    "SessionTicket",
    "SessionTicketStore",
]
